"""The symmetric-group analogue: Pieri rules and the dominance preorder.

For partitions of n, the induction preorder is generated by: for n = k + l
and p already related to p' at rank k, every partition obtained from p by
adding one box to each of l different rows sits below the one obtained
from p' by adding a box to its l greatest rows, together with the same
rule read through conjugation.  That preorder is the dominance order, and
this module provides the oracle to confirm it at small rank: the shared
generated-preorder kernel, whose vector of p is p padded to length n.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Set

from ._util import GeneratedPreorder, generated_preorder
from .errors import NoSingleMove, NotAdjacent, SizeMismatch
from .partitions import (
    BoxMove,
    Parts,
    _is_increment,
    _shift_largest,
    _single_move,
    as_partition,
    dominance_leq,
    format_partition,
    normalize,
    padded,
    partitions_of,
    size,
    transpose,
)


def a_value_typeA(p: Parts) -> int:
    """Sum of the parts weighted by row index minus one."""
    return sum(i * v for i, v in enumerate(as_partition(p)))


def pieri_targets(p: Parts, l: int) -> Set[Parts]:
    """Partitions obtained by adding one box to l different rows of p.

    Rows below the diagram count as addable, so the result is exactly the
    set of partitions containing p whose difference is a vertical l-strip.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    n = size(p) + l
    base = padded(normalize(as_partition(p)), n)
    return {q for q in partitions_of(n) if _is_increment(base, padded(q, n), l)}


def truncated_pieri_targets(p: Parts, l: int) -> Set[Parts]:
    """The single partition adding one box to each of the l greatest rows."""
    if l < 1:
        raise ValueError("l must be >= 1")
    base = normalize(as_partition(p))
    base = padded(base, max(len(base), l))
    return {normalize(_shift_largest(base, l, 1))}


class TypeAOracle(GeneratedPreorder):
    """The relation generated by the Pieri steps at one rank."""

    def __init__(self, n: int, partitions: tuple[Parts, ...], rows: tuple[int, ...]):
        super().__init__(n, partitions, rows, format_partition, lambda p: normalize(as_partition(p)))
        self.partitions = partitions


@lru_cache(maxsize=None)
def _typea_rows(n: int) -> tuple[int, ...]:
    return generated_preorder(
        n,
        partitions_of,
        padded,
        _typea_rows,
        transpose,
    )


def preceq_typeA_oracle(n: int) -> TypeAOracle:
    """Build the symmetric-group relation from the Pieri steps alone."""
    return TypeAOracle(n, partitions_of(n), _typea_rows(n))


def adjacent_single_box(p: Parts, q: Parts) -> BoxMove:
    """The box move by which q covers p in the dominance order on partitions of n.

    By Brylawski's criterion (The lattice of integer partitions, 1973), q
    covers p exactly when q = up(p, Up(k1, k2)) with k2 = k1 + 1 or
    p_k1 = p_k2.
    """
    p = normalize(as_partition(p))
    q = normalize(as_partition(q))
    if size(p) != size(q):
        raise SizeMismatch(f"|{p}| != |{q}|")
    if p == q or not dominance_leq(p, q):
        raise NotAdjacent(f"{p} is not strictly dominated by {q}")
    try:
        move = _single_move(p, padded(q, len(p)))  # q dominating p has no more parts
    except NoSingleMove as exc:
        raise NotAdjacent(f"{q} is not one box above {p}") from exc
    if move.k2 > move.k1 + 1 and p[move.k1 - 1] != p[move.k2 - 1]:
        raise NotAdjacent(f"a partition lies strictly between {p} and {q}")
    return move
