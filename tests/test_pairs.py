"""Every per-pair answer rejects a rank mismatch and a pair that is not below."""

import re

import pytest

from bsymbols.adjacency import adjacency_move, is_adjacent, saturated_chain
from bsymbols.errors import NotAdjacent, NotComparable, RankMismatch
from bsymbols.families import enumerate_bipartitions
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


def outcome(call, *args):
    """call's result, or the type and text of what it raised."""
    try:
        return call(*args)
    except (NotComparable, NotAdjacent) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("answer", PAIR_ANSWERS, ids=lambda f: f.__name__)
def test_a_raw_bipartition_answers_as_its_normal_form(answer):
    # the family table holds only normalized members: a raw Bipartition with
    # trailing zeros is located by its kappa, and gets the same answers
    raw, normal = Bipartition((1, 1, 0), (1, 0)), Bipartition((1, 1), (1,))

    def as_normal(result):
        if isinstance(result, list):  # a chain starts or ends at the raw element
            return [normal if x == raw else x for x in result]
        if isinstance(result, tuple) and isinstance(result[1], str):
            return result[0], result[1].replace(raw.text(), normal.text())
        return result

    for b in range(5):
        for x in enumerate_bipartitions(3):
            if x == normal:
                continue
            for args in ((raw, x), (x, raw)):
                normal_args = tuple(normal if y is raw else y for y in args)
                assert as_normal(outcome(answer, *args, b)) == outcome(answer, *normal_args, b)


@pytest.mark.parametrize("answer", PAIR_ANSWERS, ids=lambda f: f.__name__)
def test_a_negative_weight_raises_value_error_after_the_rank_check(answer):
    with pytest.raises(ValueError, match=re.escape("weight b must be >= 0")):
        answer(*pair("-|1,1,1", "3|-"), -1)
    with pytest.raises(RankMismatch, match=re.escape("ranks differ: 1|- has 1, 1,1|- has 2")):
        answer(*pair("1|-", "1,1|-"), -1)


@pytest.mark.parametrize("answer", (is_adjacent, adjacency_move, witness_step), ids=lambda f: f.__name__)
def test_equal_kappas_raise_not_comparable(answer):
    with pytest.raises(NotComparable, match=re.escape("2,1|- and -|3 have equal kappa")):
        answer(*pair("2,1|-", "-|3"), 1)
