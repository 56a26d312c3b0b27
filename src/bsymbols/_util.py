"""Small internal helpers and the generated-preorder kernel."""

from __future__ import annotations

from typing import Callable, Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def generated_preorder(n, elements_of, lower_rows, targets, classes, transpose) -> tuple[int, ...]:
    """Bitset rows of the preorder on elements_of(n) generated by induction steps.

    Row i is the set of j with element i related to element j.  classes
    splits elements_of(n) into tuples of mutually related elements (the
    families, or singletons), and each row starts as its element's class.
    For each rank k < n and l = n - k, targets(nu, l) is the pair
    (induced, truncated) of rank-n elements reached from nu in
    elements_of(k).  When nu is related to nu' at rank k (lower_rows(k)),
    every induced target of nu is related to every truncated target of
    nu', and their transposes the other way round.  One Warshall pass
    then closes the rows under transitivity.
    """
    elements = elements_of(n)
    index = {x: i for i, x in enumerate(elements)}
    tr = [index[transpose(x)] for x in elements]

    def bits(indices) -> int:
        out = 0
        for i in indices:
            out |= 1 << i
        return out

    rows = [0] * len(elements)
    for cls in classes:
        mask = bits(index[x] for x in cls)
        for x in cls:
            rows[index[x]] = mask
    for k in range(n):
        l = n - k
        pairs = [targets(nu, l) for nu in elements_of(k)]
        ind_masks = [bits(index[x] for x in ind) for ind, _ in pairs]
        trunc_masks = [bits(index[x] for x in trunc) for _, trunc in pairs]
        for sub_row, ind in zip(lower_rows(k), ind_masks):
            union_trunc = 0
            for j in iter_bits(sub_row):
                union_trunc |= trunc_masks[j]
            for x in iter_bits(ind):
                rows[x] |= union_trunc
            t_ind = bits(tr[x] for x in iter_bits(ind))
            for x in iter_bits(union_trunc):
                rows[tr[x]] |= t_ind

    for k, row_k in enumerate(rows):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return tuple(rows)


class GeneratedPreorder:
    """A preorder on a tuple of elements: bit j of rows[i] relates element i to element j."""

    def __init__(self, elements: tuple, rows: tuple[int, ...], label: Callable[..., str]):
        self.elements = elements
        self._index = {x: i for i, x in enumerate(elements)}
        self.rows = rows
        self._label = label

    def holds(self, x, y) -> bool:
        return bool(self.rows[self._index[x]] >> self._index[y] & 1)

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        m = len(self.elements)
        return tuple(tuple(row >> j & 1 for j in range(m)) for row in self.rows)

    def render(self) -> str:
        """Square 0/1 matrix with a header row of element labels."""
        labels = [self._label(x) for x in self.elements]
        lines = ["\t".join(labels)]
        for label, row in zip(labels, self.matrix()):
            lines.append(label + "\t" + "\t".join(str(v) for v in row))
        return "\n".join(lines)
