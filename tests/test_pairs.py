"""Every per-pair answer rejects a rank mismatch and a pair that is not below."""

import re

import pytest

from bsymbols.adjacency import adjacency_move, is_adjacent, saturated_chain
from bsymbols.errors import NotComparable, RankMismatch
from bsymbols.preorder import preceq, witness_step
from bsymbols.symbols import Bipartition

PAIR_ANSWERS = (preceq, is_adjacent, adjacency_move, saturated_chain, witness_step)


def pair(low: str, high: str) -> tuple[Bipartition, Bipartition]:
    return Bipartition.parse(low), Bipartition.parse(high)


@pytest.mark.parametrize("answer", PAIR_ANSWERS, ids=lambda f: f.__name__)
def test_different_ranks_raise_rank_mismatch(answer):
    with pytest.raises(RankMismatch, match=re.escape("ranks differ: 1|- has 1, 1,1|- has 2")):
        answer(*pair("1|-", "1,1|-"), 0)


@pytest.mark.parametrize("answer", PAIR_ANSWERS[1:], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "low, high",
    [("-|3,1", "1,1|2"), ("1,1|2", "-|3,1"), ("3|-", "-|1,1,1")],
    ids=["incomparable", "incomparable-reversed", "strictly-above"],
)
def test_pair_not_below_raises_not_comparable(answer, low, high):
    with pytest.raises(NotComparable, match=re.escape(f"kappa of {low} is not below that of {high}")):
        answer(*pair(low, high), 1)


def test_preceq_is_false_on_an_incomparable_pair():
    a, c = pair("-|3,1", "1,1|2")
    assert not preceq(a, c, 1) and not preceq(c, a, 1)
