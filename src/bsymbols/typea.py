"""The symmetric-group analogue: Pieri rules and the dominance preorder.

For partitions of n, the induction preorder is generated by: for n = k + l
and p already related to p' at rank k, every partition obtained from p by
adding one box to each of l different rows sits below the one obtained
from p' by adding a box to its l greatest rows, together with the same
rule read through conjugation.  That preorder is the dominance order, and
this module provides the oracle to confirm it at small rank.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Set

from ._util import generated_preorder
from .adjacency import _single_move
from .errors import NotAdjacent, SizeMismatch
from .partitions import (
    BoxMove,
    Parts,
    as_partition,
    dominance_leq,
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
    base = padded(normalize(as_partition(p)), len(normalize(as_partition(p))) + l)
    out = set()
    for rows in combinations(range(len(base)), l):
        q = list(base)
        for r in rows:
            q[r] += 1
        if all(x >= y for x, y in zip(q, q[1:])):
            out.add(normalize(q))
    return out


def truncated_pieri_targets(p: Parts, l: int) -> Set[Parts]:
    """The single partition adding one box to each of the l greatest rows."""
    if l < 1:
        raise ValueError("l must be >= 1")
    base = normalize(as_partition(p))
    base = padded(base, max(len(base), l))
    return {normalize(tuple(v + 1 if t < l else v for t, v in enumerate(base)))}


class TypeAOracle:
    """The relation generated by the Pieri steps at one rank."""

    def __init__(self, n: int, partitions: tuple[Parts, ...], rows: tuple[int, ...]):
        self.n = n
        self.partitions = partitions
        self._index = {p: i for i, p in enumerate(partitions)}
        self._rows = rows

    def holds(self, p: Parts, q: Parts) -> bool:
        return bool(self._rows[self._index[normalize(p)]] >> self._index[normalize(q)] & 1)

    def render(self) -> str:
        """Square 0/1 matrix with a header row of partition labels."""
        from .partitions import format_partition

        m = len(self.partitions)
        header = "\t".join(format_partition(p) for p in self.partitions)
        lines = [header]
        for i, p in enumerate(self.partitions):
            row = "\t".join(str(self._rows[i] >> j & 1) for j in range(m))
            lines.append(format_partition(p) + "\t" + row)
        return "\n".join(lines)


@lru_cache(maxsize=None)
def _typea_rows(n: int) -> tuple[int, ...]:
    parts = partitions_of(n)
    index = {p: i for i, p in enumerate(parts)}

    def steps():
        for k in range(n):
            l = n - k
            pieri_masks = []
            trunc_masks = []
            for p in partitions_of(k):
                pmask = tmask = 0
                for q in pieri_targets(p, l):
                    pmask |= 1 << index[q]
                for q in truncated_pieri_targets(p, l):
                    tmask |= 1 << index[q]
                pieri_masks.append(pmask)
                trunc_masks.append(tmask)
            yield _typea_rows(k), pieri_masks, trunc_masks

    tr = [index[transpose(p)] for p in parts]
    return generated_preorder([1 << i for i in range(len(parts))], tr, steps())


def preceq_typeA_oracle(n: int) -> TypeAOracle:
    """Build the symmetric-group relation from the Pieri steps alone."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return TypeAOracle(n, partitions_of(n), _typea_rows(n))


def adjacent_single_box(p: Parts, q: Parts) -> BoxMove:
    """The unique box move between two adjacent partitions of n."""
    p = normalize(as_partition(p))
    q = normalize(as_partition(q))
    if size(p) != size(q):
        raise SizeMismatch(f"|{p}| != |{q}|")
    if p == q or not dominance_leq(p, q):
        raise NotAdjacent(f"{p} is not strictly dominated by {q}")
    for r in partitions_of(size(p)):
        if r != p and r != q and dominance_leq(p, r) and dominance_leq(r, q):
            raise NotAdjacent(f"{r} lies strictly between {p} and {q}")
    width = max(len(p), len(q))
    return _single_move(padded(p, width), padded(q, width))
