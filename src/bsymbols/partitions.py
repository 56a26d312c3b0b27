"""Integer partitions: dominance order, conjugation, overlaps and box moves.

A partition is stored as a tuple of weakly decreasing nonnegative integers.
Trailing zeros are legal and significant where a fixed length is mandated by
context (the kappa vectors of the symbols module keep their zeros); abstract
partitions are normally handled in normalized form without them.

Out-of-range indices follow the usual boundary conventions: entries below
the diagram are 0 and entries above the first row are +infinity.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby, zip_longest
from operator import ge, index
from typing import Iterator, NamedTuple, Sequence

from .errors import NoSingleMove, NotAPartition, SizeMismatch

Parts = tuple[int, ...]


class _BoxMoveFields(NamedTuple):
    k1: int
    k2: int


class BoxMove(_BoxMoveFields):
    """A single box moved from row k2 up to row k1 (1-based, k1 < k2)."""

    __slots__ = ()

    def __new__(cls, k1: int, k2: int) -> "BoxMove":
        if not 1 <= k1 < k2:
            raise ValueError(f"box move needs 1 <= k1 < k2, got ({k1}, {k2})")
        return super().__new__(cls, k1, k2)

    def __str__(self) -> str:
        return f"Up({self.k1},{self.k2})"


def as_partition(seq: Sequence[int]) -> Parts:
    """Validate seq as a partition and return it as a tuple, zeros kept.

    Every part must be an integer (operator.index): a float or a string
    part raises NotAPartition instead of being truncated or parsed.
    """
    ints = map(index, seq)  # a seq that is not iterable stays a TypeError
    try:
        parts = tuple(ints)
    except TypeError:
        raise NotAPartition(f"non-integer part in {seq!r}") from None
    if parts and parts[-1] < 0:
        raise NotAPartition(f"negative part in {parts}")
    if not all(map(ge, parts, parts[1:])):
        raise NotAPartition(f"not weakly decreasing: {parts}")
    return parts


def normalize(seq: Sequence[int]) -> Parts:
    """Drop trailing zeros."""
    parts = tuple(seq)
    if not parts or parts[-1]:
        return parts
    end = len(parts)
    while end > 0 and parts[end - 1] == 0:
        end -= 1
    return parts[:end]


def padded(seq: Sequence[int], length: int) -> Parts:
    """Extend with zeros up to the requested length."""
    parts = tuple(seq)
    if len(parts) > length:
        raise ValueError(f"{parts} is longer than {length}")
    return parts + (0,) * (length - len(parts))


def size(p: Sequence[int]) -> int:
    return sum(p)


def part(p: Sequence[int], i: int) -> int | float:
    """Entry p_i (1-based) with the boundary conventions."""
    if i <= 0:
        return math.inf
    if i <= len(p):
        return p[i - 1]
    return 0


def dominance_leq(p: Sequence[int], q: Sequence[int]) -> bool:
    """Prefix-sum comparison of two partitions of the same total."""
    if size(p) != size(q):
        raise SizeMismatch(f"|{tuple(p)}| = {size(p)} but |{tuple(q)}| = {size(q)}")
    sp = sq = 0
    for a, b in zip_longest(p, q, fillvalue=0):
        sp += a
        sq += b
        if sp > sq:
            return False
    return True


def dominance_lt(p: Sequence[int], q: Sequence[int]) -> bool:
    return dominance_leq(p, q) and normalize(p) != normalize(q)


def transpose(p: Sequence[int]) -> Parts:
    """Conjugate partition, always returned in normalized form.

    One walk over the parts, smallest first: columns p_{i+1} + 1 to p_i
    have length i.
    """
    q = as_partition(p)
    conj: list[int] = []
    for i in range(len(q), 0, -1):
        conj += [i] * (q[i - 1] - len(conj))
    return tuple(conj)


def overlap_count(p: Sequence[int], l: int) -> int:
    """Number of maximal runs of equal entries of length exactly l.

    Entries are taken as stored, so explicit zeros count like any value.
    """
    if l < 1:
        raise ValueError("run length must be >= 1")
    return sum(1 for _, run in groupby(p) if sum(1 for _ in run) == l)


def _moved(p: Sequence[int], move: BoxMove, sign: int) -> Parts:
    """p with sign added to row move.k1 and taken from row move.k2."""
    parts = as_partition(p)
    if move.k2 > len(parts):
        raise NotAPartition(f"index {move.k2} out of range for {parts}")
    q = list(parts)
    q[move.k1 - 1] += sign
    q[move.k2 - 1] -= sign
    return as_partition(q)


def up(p: Sequence[int], move: BoxMove) -> Parts:
    """Move one box from row move.k2 to row move.k1."""
    return _moved(p, move, 1)


def down(p: Sequence[int], move: BoxMove) -> Parts:
    """Move one box from row move.k1 to row move.k2; inverse of up."""
    return _moved(p, move, -1)


def _is_increment(base: Sequence[int], target: Sequence[int], l: int) -> bool:
    """Whether target arises from base by adding 1 to l of its entries."""
    total = 0
    for x, y in zip(base, target):
        d = y - x
        if d < 0 or d > 1:
            return False
        total += d
    return total == l


def _shift_largest(p: Sequence[int], l: int, d: int) -> Parts:
    """p with d added to each of its l first (largest) entries."""
    return tuple(v + d for v in p[:l]) + tuple(p[l:])


def _single_move(lo: Parts, hi: Parts) -> BoxMove:
    """The unique box move with hi = up(lo), or a NoSingleMove tripwire."""
    # the pair must differ at exactly two positions, by +1 and then by -1
    moved = [(t, y - x) for t, (x, y) in enumerate(zip(lo, hi), 1) if x != y]
    if [d for _, d in moved] != [1, -1]:
        raise NoSingleMove(f"{hi} is not a single raised box away from {lo}")
    return BoxMove(moved[0][0], moved[1][0])


def gap(p: Sequence[int], k: int) -> int | float:
    """Difference p_k - p_{k+1}; +infinity when k = 0 by convention."""
    if k < 0:
        raise ValueError("gap index must be >= 0")
    return part(p, k) - part(p, k + 1)


def break_points(p: Sequence[int], i: int, j: int) -> list[int]:
    """Indices k in [i, j] flanked by two positive gaps."""
    if i < 1:
        raise ValueError("break point range is 1-based")
    return [k for k in range(i, j + 1) if gap(p, k - 1) >= 1 and gap(p, k) >= 1]


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Parts, ...]:
    """All partitions of n in decreasing lexicographic order, normalized."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining: int, cap: int) -> Iterator[Parts]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


# str() of 0-255, built once: a lookup costs less than str() on a small
# int, and every part the pinned outputs render is at most 75
_DECIMAL = {v: str(v) for v in range(256)}


def format_partition(p: Sequence[int]) -> str:
    """Comma-separated decimal parts; the empty partition renders as "-".

    The one renderer of a sequence of int parts.  Each part is looked up
    in a table of the decimal strings of 0-255; a sequence holding any
    other value is joined with str() instead, so the bytes are the same.
    """
    if not len(p):
        return "-"
    try:
        return ",".join(map(_DECIMAL.__getitem__, p))
    except KeyError:
        return ",".join(map(str, p))


def _numeral(text: str) -> int:
    """The value of a string of ASCII digits, the only numerals format_partition prints."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a numeral: {text!r}")
    return int(text)


def parse_partition(text: str) -> Parts:
    """Inverse of format_partition."""
    text = text.strip()
    if text == "-":
        return ()
    try:
        values = [_numeral(v) for v in text.split(",")]
    except ValueError as exc:
        raise NotAPartition(f"cannot parse partition {text!r}") from exc
    return as_partition(values)
