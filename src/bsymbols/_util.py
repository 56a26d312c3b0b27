"""Small internal helpers."""

from __future__ import annotations

from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def generated_preorder(rows: list[int], tr: list[int], steps) -> tuple[int, ...]:
    """Close bitset rows under induction steps, transposition and transitivity.

    rows[i] is the set of j with i related to j, reflexive to start with;
    tr[i] indexes the transpose of element i.  Each step is (sub_rows,
    ind_masks, trunc_masks) at a smaller rank: when nu is related to nu'
    there, every induced target of nu is related to the truncated target
    of nu', and their transposes are related the other way round.
    """

    def transported(mask: int) -> int:
        out = 0
        for i in iter_bits(mask):
            out |= 1 << tr[i]
        return out

    for sub_rows, ind_masks, trunc_masks in steps:
        for sub_row, ind in zip(sub_rows, ind_masks):
            union_trunc = 0
            for j in iter_bits(sub_row):
                union_trunc |= trunc_masks[j]
            for x in iter_bits(ind):
                rows[x] |= union_trunc
            t_ind = transported(ind)
            for x in iter_bits(transported(union_trunc)):
                rows[x] |= t_ind

    changed = True
    while changed:
        changed = False
        for i in range(len(rows)):
            new = rows[i]
            for j in iter_bits(new):
                new |= rows[j]
            if new != rows[i]:
                rows[i] = new
                changed = True
    return tuple(rows)
