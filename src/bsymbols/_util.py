"""Small internal helpers and the generated-preorder kernel."""

from __future__ import annotations

from typing import Callable, Iterator

from .errors import RankMismatch
from .partitions import _is_increment, _shift_largest


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def generated_preorder(n, elements_of, vector, lower_rows, transpose) -> tuple[int, ...]:
    """Bitset rows of the preorder on elements_of(n) generated by induction steps.

    Row i is the set of j with element i related to element j, and
    vector(x, n) is x's vector at size n.  Each row starts as its own
    element, so the closure derives the families (elements sharing a
    vector); the vectors only locate the steps' targets.  For each rank
    k < n and l = n - k, nu in elements_of(k) induces the elements whose
    vector adds 1 to l entries of vector(nu, n) and truncates to those
    whose vector adds 1 to its l largest.  When nu is related to nu' at
    rank k (lower_rows(k)), every induced target of nu is related to every
    truncated target of nu', and their transposes the other way round.
    One Warshall pass then closes the rows under transitivity.
    """
    elements = elements_of(n)
    index = {x: i for i, x in enumerate(elements)}
    tr = [index[transpose(x)] for x in elements]
    masks: dict = {}
    for i, x in enumerate(elements):
        v = vector(x, n)
        masks[v] = masks.get(v, 0) | 1 << i
    rows = [1 << i for i in range(len(elements))]
    for k in range(n):
        l = n - k
        bases = [vector(nu, n) for nu in elements_of(k)]
        trunc_masks = [masks.get(_shift_largest(base, l, 1), 0) for base in bases]
        for sub_row, base in zip(lower_rows(k), bases):
            # the masks are disjoint, so their sum is their union
            ind = sum(m for v, m in masks.items() if _is_increment(base, v, l))
            union_trunc = 0
            for j in iter_bits(sub_row):
                union_trunc |= trunc_masks[j]
            for x in iter_bits(ind):
                rows[x] |= union_trunc
            t_ind = sum(1 << tr[x] for x in iter_bits(ind))
            for x in iter_bits(union_trunc):
                rows[tr[x]] |= t_ind

    for k, row_k in enumerate(rows):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return tuple(rows)


class GeneratedPreorder:
    """A preorder on a tuple of elements: bit j of rows[i] relates element i to element j.

    holds reads each argument as read(x), its normal form, or read raises.
    """

    def __init__(self, n: int, elements: tuple, rows: tuple[int, ...], label: Callable, read: Callable):
        self.n = n
        self.elements = elements
        self._index = {x: i for i, x in enumerate(elements)}
        self.rows = rows
        self._label = label
        self._read = read

    def holds(self, x, y) -> bool:
        x, y = self._read(x), self._read(y)
        try:
            return bool(self.rows[self._index[x]] >> self._index[y] & 1)
        except KeyError as exc:
            label = self._label(exc.args[0])
            raise RankMismatch(f"{label} is not an element of rank {self.n}") from None
