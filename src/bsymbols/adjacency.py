"""Adjacency of bipartitions under the dominance order on kappa vectors.

Two bipartitions of n with distinct kappa values are adjacent when no
bipartition of n has a kappa strictly between them.  Adjacent pairs differ
by a single box move on their kappa vectors.  Every adjacency, chain and
Hasse query of rank n reads one cached dominance poset of all the rank's
kappa values.  It is built on dominance_rows, a bit-parallel kernel over
the prefix sums of any tuple of vectors, which the verify suites also use
to compare whole ranks at once.  A pair is located through the family
table's position map, so a warm chain computes no kappa.  This module
also extracts the move, refines arbitrary comparisons into saturated
chains (_walk serves saturated_chain and the chain command alike), and
checks the structural facts about adjacency frames used elsewhere.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import (
    NotAdjacent,
    NotComparable,
    NotStrictlyDominated,
    PreconditionViolated,
    SizeMismatch,
)
from .families import FamilyTable, family_table
from .partitions import BoxMove, Parts, _single_move, break_points, dominance_leq, gap, part, size
from .symbols import Bipartition, Kappa, _common_rank, kappa


class AdjacencyFrame(NamedTuple):
    kappa_low: Kappa
    kappa_high: Kappa
    i: int  # first position where the low vector falls short
    j: int  # first later position where the prefix sums agree again


def frame(k: Kappa, k2: Kappa) -> AdjacencyFrame:
    """Frame (i, j) of a strict dominance pair of kappa vectors."""
    if (k.b, k.N) != (k2.b, k2.N):
        raise NotComparable(f"different parameters: ({k.b},{k.N}) vs ({k2.b},{k2.N})")
    lo, hi = k.entries, k2.entries
    if size(lo) != size(hi):
        raise SizeMismatch(f"|{lo}| != |{hi}|")
    if lo == hi or not dominance_leq(lo, hi):
        raise NotStrictlyDominated(f"{lo} is not strictly dominated by {hi}")
    i = next(t for t, (x, y) in enumerate(zip(lo, hi), 1) if x != y)
    sl = sum(lo[:i])
    sh = sum(hi[:i])
    j = i
    while sl != sh:
        sl += lo[j]
        sh += hi[j]
        j += 1
    assert part(lo, j) > part(hi, j) >= part(hi, j + 1) >= part(lo, j + 1)
    return AdjacencyFrame(k, k2, i, j)


class Poset(NamedTuple):
    """Nodes are the positions of the families in family_table(n, b)."""

    above: tuple[int, ...]  # bitmask of the nodes strictly dominating node i
    cover_up: tuple[tuple[int, ...], ...]  # covers of node i, increasing kappa


def dominance_rows(vectors: Sequence[Parts]) -> tuple[int, ...]:
    """Row i is the bitmask of the j whose vector dominates vectors[i].

    The vectors have one length and one total; i itself and every vector
    equal to vectors[i] are in row i.  A pass over the positions keeps the
    prefix sums and narrows each row, which starts full, to the j whose
    sum is at least its own.
    """
    m = len(vectors)
    rows = [(1 << m) - 1] * m
    sums = [0] * m
    for column in zip(*vectors):
        sums = [s + x for s, x in zip(sums, column)]
        at_least: dict[int, int] = {}
        mask = 0
        for i in sorted(range(m), key=sums.__getitem__, reverse=True):
            mask |= 1 << i
            at_least[sums[i]] = mask
        rows = [r & at_least[s] for r, s in zip(rows, sums)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _poset(n: int, b: int) -> Poset:
    """Dominance poset of the distinct kappa vectors of rank n at N = n.

    The families' kappas are distinct, so a node's dominance row without
    the node itself is strict dominance.  Covers are taken smallest kappa
    first: that one is a cover, and all above it is dropped.
    """
    rows = dominance_rows([f.kappa.entries for f in family_table(n, b).families])
    above = [row ^ 1 << i for i, row in enumerate(rows)]
    cover_up = []
    for rest in above:
        ups = []
        while rest:
            j = rest.bit_length() - 1
            ups.append(j)
            rest &= ~(above[j] | 1 << j)
        cover_up.append(tuple(ups))
    return Poset(tuple(above), tuple(cover_up))


def _node(table: FamilyTable, x: Bipartition) -> int:
    """The position of x's family in the table.

    A member is looked up; a bipartition the table does not hold, such as
    one with trailing zeros, is located by its kappa.
    """
    i = table.position.get(x)
    return table.index[kappa(x, table.b, table.N).entries] if i is None else i


def _located(a: Bipartition, c: Bipartition, b: int):
    """The rank's table and poset and the nodes of a and c, with kappa(a) at most kappa(c)."""
    n = _common_rank(a, c)
    table = family_table(n, b)
    poset = _poset(n, b)
    ia, ic = _node(table, a), _node(table, c)
    if ia != ic and not poset.above[ia] >> ic & 1:
        raise NotComparable(f"kappa of {a.text()} is not below that of {c.text()}")
    return table, poset, ia, ic


def _adjacency(a: Bipartition, c: Bipartition, b: int) -> tuple[Parts, Parts, bool]:
    """The kappas of a and c at their rank and whether the second covers the first.

    The kappas are read off the family table; equal ones raise NotComparable.
    """
    table, poset, ia, ic = _located(a, c, b)
    if ia == ic:
        raise NotComparable(f"{a.text()} and {c.text()} have equal kappa")
    families = table.families
    return families[ia].kappa.entries, families[ic].kappa.entries, ic in poset.cover_up[ia]


def _cover_kappas(a: Bipartition, c: Bipartition, b: int) -> tuple[Parts, Parts]:
    """The kappas of a and c at their rank; raises NotAdjacent unless the second covers the first."""
    lo, hi, adjacent = _adjacency(a, c, b)
    if not adjacent:
        raise NotAdjacent(f"{a.text()} and {c.text()} are not adjacent at b={b}")
    return lo, hi


def is_adjacent(a: Bipartition, c: Bipartition, b: int) -> bool:
    """True when kappa(a) is covered by kappa(c) among all rank-n values."""
    return _adjacency(a, c, b)[2]


def adjacency_move(a: Bipartition, c: Bipartition, b: int) -> BoxMove:
    """The single box move turning kappa(a) into kappa(c)."""
    return _single_move(*_cover_kappas(a, c, b))


def _walk(
    a: Bipartition, c: Bipartition, b: int
) -> tuple[FamilyTable, list[int], list[Bipartition]]:
    """The rank's table, saturated_chain's path as family positions, and its elements.

    Between distinct families the path climbs to the first cover still
    below c, and each inner element is its family's first member.  Inside
    one family the path is [i] when a equals c and [i, i] when it does
    not, so the path has one position per element of the chain.
    """
    table, poset, ia, ic = _located(a, c, b)
    if ia == ic:
        return (table, [ia], [a]) if a == c else (table, [ia, ia], [a, c])
    above, cover_up = poset.above, poset.cover_up
    i, path = ia, [ia]
    while i != ic:
        for i in cover_up[i]:  # the first cover still below c
            if i == ic or above[i] >> ic & 1:
                break
        path.append(i)
    families = table.families
    return table, path, [a, *(families[i].members[0] for i in path[1:-1]), c]


def saturated_chain(a: Bipartition, c: Bipartition, b: int) -> list[Bipartition]:
    """A chain from a to c whose consecutive kappa values are adjacent.

    Ties are broken towards the lexicographically smallest kappa, and
    intermediate steps are represented by the textually first member of
    their family, so the chain is deterministic.
    """
    return _walk(a, c, b)[2]


def verify_double_break(fr: AdjacencyFrame) -> bool:
    """Check that a flat stretch of the frame's upper kappa has two break points.

    Requires every gap of the upper vector on [i, j-1] to be 0 or 1; under
    that hypothesis the count of break points in [i, j-1] must be at least
    two for adjacent pairs.
    """
    entries = fr.kappa_high.entries
    for m in range(fr.i, fr.j):
        g = gap(entries, m)
        if g is math.inf or g > 1:
            raise PreconditionViolated(f"gap at {m} of {entries} exceeds 1")
    return len(break_points(entries, fr.i, fr.j - 1)) >= 2
