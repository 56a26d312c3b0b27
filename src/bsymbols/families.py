"""Enumeration of bipartitions and their grouping into families.

Two bipartitions of n lie in the same family exactly when their kappa
vectors agree; the table below groups the whole of the rank-n set at the
common admissible size N = n, attaches a-values, and indexes the
families by kappa, so every module locates a kappa of rank n through it.
The module also holds the dominance poset of those kappas (_poset, built
on partitions.dominance_rows), which the adjacency layer reads, and the
Hasse diagram of its covers.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .partitions import Parts, dominance_rows, partitions_of
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
    sizes = [partitions_of(k) for k in range(n + 1)]
    bips = [
        tuple.__new__(Bipartition, (a, c))
        for k in range(n + 1)
        for a in sizes[k]
        for c in sizes[n - k]
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


class Poset(NamedTuple):
    """Nodes are the positions of the families in family_table(n, b)."""

    above: tuple[int, ...]  # bitmask of the nodes strictly dominating node i
    cover_up: tuple[tuple[int, ...], ...]  # covers of node i, increasing kappa


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


class HasseDiagram(NamedTuple):
    nodes: tuple[Kappa, ...]  # decreasing kappa, same order as the family table
    edges: tuple[tuple[int, int], ...]  # (i, j) with nodes[i] covered by nodes[j]


def family_hasse(table: FamilyTable) -> HasseDiagram:
    """Covering relation of dominance on the distinct kappa values.

    Reads the covers of the rank's cached dominance poset, `_poset`, so
    the comparisons run once per (n, b) in a process.
    """
    cover_up = _poset(table.n, table.b).cover_up
    nodes = tuple(f.kappa for f in table.families)
    # covers come in increasing kappa, which is decreasing index
    edges = tuple((i, j) for i, ups in enumerate(cover_up) for j in reversed(ups))
    return HasseDiagram(nodes, edges)
