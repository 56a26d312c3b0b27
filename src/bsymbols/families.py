"""Enumeration of bipartitions and their grouping into families.

Two bipartitions of n lie in the same family exactly when their kappa
vectors agree; the table below groups the whole of the rank-n set at the
common admissible size N = n, attaches a-values, and indexes the
families by kappa, so every module locates a kappa of rank n through it.
The module also exposes the Hasse diagram of the dominance order on the
distinct kappa values.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .partitions import Parts, partitions_of
from .symbols import Bipartition, Kappa, _a, kappa


def enumerate_bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All bipartitions of rank n, sorted by their textual form: the text table's keys."""
    return tuple(_texts(n))


@lru_cache(maxsize=None)
def _texts(n: int) -> dict[Bipartition, str]:
    """The textual form of every bipartition of rank n, in textual order.

    The enumeration itself: each bipartition is rendered once, sorted by
    that text, and the table is shared by every weight, so no query of
    the rank (families, avalues or chain) renders a member again.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    bips = [
        tuple.__new__(Bipartition, (a, c))
        for k in range(n + 1)
        for a in partitions_of(k)
        for c in partitions_of(n - k)
    ]
    return dict(sorted(zip(bips, map(Bipartition.text, bips)), key=itemgetter(1)))


class Family(NamedTuple):
    kappa: Kappa
    members: tuple[Bipartition, ...]  # sorted by textual form
    a: int


class FamilyTable(NamedTuple):
    n: int
    b: int
    N: int
    families: tuple[Family, ...]  # sorted by decreasing kappa
    index: dict[Parts, int]  # kappa entries -> position
    position: dict[Bipartition, int]  # member -> position of its family


@lru_cache(maxsize=None)
def family_table(n: int, b: int) -> FamilyTable:
    """Group the bipartitions of n by kappa at the common size N = n."""
    if b < 0:
        raise ValueError("weight b must be >= 0")
    N = n
    groups: dict[Parts, list[Bipartition]] = {}
    for bp in enumerate_bipartitions(n):
        groups.setdefault(kappa(bp, b, N).entries, []).append(bp)
    ordered = sorted(groups.items(), reverse=True)
    families = tuple(
        Family(Kappa(entries, b, N), tuple(members), _a(entries, b, N))
        for entries, members in ordered
    )
    index, position = {}, {}
    for i, (entries, members) in enumerate(ordered):
        index[entries] = i
        position.update(dict.fromkeys(members, i))
    return FamilyTable(n, b, N, families, index, position)


class HasseDiagram(NamedTuple):
    nodes: tuple[Kappa, ...]  # decreasing kappa, same order as the family table
    edges: tuple[tuple[int, int], ...]  # (i, j) with nodes[i] covered by nodes[j]


def family_hasse(table: FamilyTable) -> HasseDiagram:
    """Covering relation of dominance on the distinct kappa values.

    Reads the covers of the rank's cached dominance poset (`_poset` in the
    adjacency module), so the comparisons run once per (n, b) in a process.
    """
    from .adjacency import _poset  # adjacency imports this module

    cover_up = _poset(table.n, table.b).cover_up
    nodes = tuple(f.kappa for f in table.families)
    # covers come in increasing kappa, which is decreasing index
    edges = tuple((i, j) for i, ups in enumerate(cover_up) for j in reversed(ups))
    return HasseDiagram(nodes, edges)
