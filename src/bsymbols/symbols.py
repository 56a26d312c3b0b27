"""Bipartitions, their two-row symbols and kappa vectors.

A bipartition (l1, l2) of rank n labels an irreducible representation of the
type B_n Weyl group; the weight parameter b is the value of the weight
function on the order-2 generator t.  For N admissible (at least the index
of the last nonzero part of either component) the symbol rows are

    row1_j = l1_j - j + N + b   for j = 1, ..., N + b,
    row2_j = l2_j - j + N       for j = 1, ..., N,

and kappa is the multiset of all 2N+b row entries sorted decreasingly.
Equality of kappa vectors cuts out the families, and their dominance order
is the order studied by the rest of the package.  The a-function is the
weighted sum n_stat(kappa) normalized so that the empty bipartition gets 0.
A sympartition, padded and read smallest first, fixes its symbol rows up
to which row takes each free singleton; one walk over that vector, with no
count table, builds the preimage of a choice: _fiber yields every choice's,
the canonical one first, and from_sympartition builds the canonical one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, count, pairwise
from operator import add, eq, mul
from typing import Iterator, NamedTuple, Sequence, Set

from . import partitions as pt
from .errors import NotAdmissible, NotSympartition, RankMismatch
from .partitions import Parts, format_partition, normalize, parse_partition

class Bipartition(NamedTuple):
    """A pair of partitions, each a normalized tuple of parts.

    The NamedTuple constructor does not validate its components;
    bipartition() and Bipartition.parse do, and raise NotAPartition.
    The package builds its own with tuple.__new__(Bipartition, ...), which
    skips the NamedTuple's Python-level __new__ and gives the same value.
    """

    first: Parts
    second: Parts

    @property
    def rank(self) -> int:
        return sum(self.first) + sum(self.second)

    def transpose(self) -> "Bipartition":
        """Conjugate both components and swap them (tensoring by the sign)."""
        return tuple.__new__(Bipartition, (pt.transpose(self.second), pt.transpose(self.first)))

    def text(self) -> str:
        return f"{format_partition(self.first)}|{format_partition(self.second)}"

    @classmethod
    def parse(cls, text: str) -> "Bipartition":
        """The bipartition written as '<first>|<second>'.

        A str goes through the memo _parsed, which holds the last
        _PARSE_MEMO_SIZE texts parsed; anything else is parsed
        uncached, so it raises what the parser raises on it, never the
        memo's TypeError for an unhashable key.
        """
        return _parsed(text) if isinstance(text, str) else _parsed.__wrapped__(text)


# Bipartition.parse's memo, the one bounded memo of the package: a
# long-lived caller may parse any number of distinct texts, and every
# pinned workload parses fewer than this many, so none evicts.
_PARSE_MEMO_SIZE = 1024


@lru_cache(maxsize=_PARSE_MEMO_SIZE)
def _parsed(text: str) -> Bipartition:
    """Bipartition.parse; a raise is never stored, so a bad text raises on every call."""
    left, sep, right = text.partition("|")
    if not sep or "|" in right:
        raise pt.NotAPartition(f"expected '<first>|<second>', got {text!r}")
    # parse_partition checks each component, so neither is checked again
    parts = (normalize(parse_partition(left)), normalize(parse_partition(right)))
    return tuple.__new__(Bipartition, parts)


def bipartition(first: Sequence[int], second: Sequence[int]) -> Bipartition:
    """Validated, normalized constructor."""
    parts = (normalize(pt.as_partition(first)), normalize(pt.as_partition(second)))
    return tuple.__new__(Bipartition, parts)


EMPTY = Bipartition((), ())


class Symbol(NamedTuple):
    b: int
    N: int
    row2: Parts  # N entries, increasing
    row1: Parts  # N + b entries, increasing


class Kappa(NamedTuple):
    entries: Parts  # 2N + b entries, decreasing, zeros kept
    b: int
    N: int


def min_admissible(bp: Bipartition) -> int:
    """Smallest N whose symbol rows accommodate every nonzero part."""
    return _admitted(bp, 0, None)[2]


def _admitted(bp: Bipartition, b: int, N: int | None) -> tuple[Parts, Parts, int]:
    """bp's components without trailing zeros, and N checked against the least admissible value.

    N defaults to that least value.  Raises ValueError for b < 0 and
    NotAdmissible for N below the least value.  A component that is empty
    or ends in a nonzero part, as every validated one does, is read as it
    is; only a raw one with trailing zeros is normalized.
    """
    if b < 0:
        raise ValueError("weight b must be >= 0")
    first, second = bp
    if first and not first[-1]:
        first = normalize(first)
    if second and not second[-1]:
        second = normalize(second)
    if N is None:
        N = max(len(first), len(second))
    elif N < len(first) or N < len(second):
        least = max(len(first), len(second))
        raise NotAdmissible(f"N={N} is below the minimal admissible {least} for {bp.text()}")
    return first, second, N


def _rows(bp: Bipartition, b: int, N: int | None) -> tuple[list[int], list[int], int]:
    """bp's two symbol rows at (b, N), each largest first, and N.

    The one builder of a symbol row: in a row of length c, part l_j adds
    l_j to c - j, and the missing parts leave the staircase c - len - 1,
    ..., 0.  bp's components are not validated: build bp with
    bipartition() or Bipartition.parse, which do, since a raw Bipartition
    of non-partitions gives rows no bipartition has (Bipartition((1, 2),
    ()) at b = 0 gives the kappa (2, 2, 1, 0)).
    """
    first, second, N = _admitted(bp, b, N)
    c = N + b
    row1 = [*map(add, first, count(c - 1, -1)), *range(c - 1 - len(first), -1, -1)]
    row2 = [*map(add, second, count(N - 1, -1)), *range(N - 1 - len(second), -1, -1)]
    return row1, row2, N


def symbol(bp: Bipartition, b: int, N: int | None = None) -> Symbol:
    """The (b, N)-symbol of bp, rows smallest first; N defaults to the least admissible value."""
    row1, row2, N = _rows(bp, b, N)
    return Symbol(b, N, tuple(row2[::-1]), tuple(row1[::-1]))


def kappa(bp: Bipartition, b: int, N: int | None = None) -> Kappa:
    """All 2N+b symbol entries of bp sorted decreasingly.

    Both rows come largest first, so the one in-place sort merges two runs.
    """
    entries, row2, N = _rows(bp, b, N)
    entries += row2
    entries.sort(reverse=True)
    # tuple.__new__ builds the NamedTuple without its Python-level __new__
    return tuple.__new__(Kappa, (tuple(entries), b, N))


def _common_rank(a: Bipartition, c: Bipartition) -> int:
    """The rank n of a and c.

    Every per-pair answer of the package reads the pair through here, so
    this is the one place that rejects a pair of different ranks.
    """
    n = a.rank
    if c.rank != n:
        raise RankMismatch(f"ranks differ: {a.text()} has {n}, {c.text()} has {c.rank}")
    return n


def _rank_kappas(a: Bipartition, c: Bipartition, b: int) -> tuple[Parts, Parts]:
    """The kappa entries of a and c at the common size N = n of their rank n."""
    n = _common_rank(a, c)
    return kappa(a, b, n).entries, kappa(c, b, n).entries


def _dual(entries: Sequence[int], b: int, N: int) -> Parts:
    """The reflected complement of a kappa vector in [0, 2N + b - 1].

    Each value 2N + b - 1 - y is taken 2 - mult(y) times, mult(y) being
    how often entries takes y.  For N at least the rank, this is the kappa
    of the transpose: when entries is kappa(bp, b, N).entries, it is
    kappa(bp.transpose(), b, N).entries, tensoring with the sign reversing
    the order.  witness-soundness checks that on every member of its grid.
    """
    top = 2 * N + b - 1
    left = [2] * (top + 1)
    for y in entries:
        left[y] -= 1
    dual: list[int] = []
    v = top
    for c in left:
        if c == 2:
            dual += v, v
        elif c:
            dual.append(v)
        v -= 1
    return tuple(dual)


def f_stat(b: int, N: int, n: int) -> int:
    """Total size of any kappa vector at (b, N) for rank n."""
    return n + N * (N - 1) // 2 + (N + b) * (N + b - 1) // 2


def n_stat(k: Kappa | Sequence[int]) -> int:
    """Weighted sum of the entries, position i (1-based) weighted by i - 1."""
    return sum(map(mul, k.entries if isinstance(k, Kappa) else k, count()))


def a_value(bp: Bipartition, b: int) -> int:
    """Value of the a-function on the representation labelled by bp.

    Computed at the minimal admissible N, kappa's default; the result does
    not depend on that choice (checked by the verification suites).
    """
    return _a(*kappa(bp, b))


def _a(entries: Sequence[int], b: int, N: int) -> int:
    """The a-value of a kappa at (b, N): its n_stat less the empty bipartition's.

    The empty bipartition's kappa is N + b - 1, ..., N once, then N - 1,
    ..., 0 twice each, so its n_stat is sum_{i<b} i(N+b-1-i) +
    sum_{k<N} (2b+4k+1)(N-1-k), summed here as one polynomial in b and N.
    """
    empty = (b * (b - 1) * (3 * N + b - 2) + N * (N - 1) * (6 * b + 4 * N - 5)) // 6
    return n_stat(entries) - empty


def _profile(p: Sequence[int], b: int, N: int, n: int) -> tuple[Parts, int]:
    """p padded to 2N+b entries, smallest first, and its number of doubled values.

    Raises NotSympartition when p is no (b, N, n)-sympartition.
    """
    if b < 0 or N < 0 or n < 0:
        raise ValueError("b, N, n must all be >= 0")
    parts = pt.as_partition(p)
    length = 2 * N + b
    if len(parts) <= length and sum(parts) == f_stat(b, N, n):
        rising = (0,) * (length - len(parts)) + parts[::-1]
        values = set(rising)
        doubles = length - len(values)  # the repeats, each a double when no value is thrice
        thrice = doubles > 1 and any(map(eq, rising, rising[2:]))  # a third copy takes two repeats
        if doubles <= N and not thrice and values.issuperset(range(b)):
            return rising, doubles
    raise NotSympartition(f"{tuple(p)} is not a ({b},{N},{n})-sympartition")


def is_sympartition(p: Sequence[int], b: int, N: int, n: int) -> bool:
    """True when p is the kappa vector of some bipartition of n at (b, N).

    Conditions, after padding p with zeros to exactly 2N+b entries:
    total f(b,N,n); no value repeated three times; at most N values repeated
    twice; every value 0..b-1 present.  The last condition is forced on
    kappa images because the bottom of the long row of any symbol with N
    admissible is the staircase b-1, ..., 1, 0.
    """
    try:
        _profile(p, b, N, n)
    except NotSympartition:
        return False
    return True


def _split(rising: Parts, b: int, low: int) -> Bipartition:
    """The preimage whose row2 takes the free singletons the bitmask low sets.

    Bit k of low stands for the k-th free singleton, smallest first.  One
    walk over the padded vector, smallest entry first: a doubled value puts
    its first copy in row1 and its second in row2, a singleton below b goes
    to row1 (the staircase at its bottom), a free singleton where its bit
    says.  An entry's part is the entry minus the entries placed below it
    in its row; the parts 0 at the bottom of a row are left out.
    """
    first: list[int] = []
    second: list[int] = []
    below1 = below2 = 0
    pairs = pairwise(rising + (-1,))  # each entry with the one above it
    for v, above in pairs:
        if v == above:  # a doubled value: its first copy to row1, its second to row2
            next(pairs)
            if v > below1:
                first.append(v - below1)
            below1 += 1
            to_row2 = True
        elif v < b:  # the staircase: row1 below v holds 0..v-1, so its part is 0
            below1 += 1
            continue
        else:  # a free singleton
            to_row2 = low & 1
            low >>= 1
        if to_row2:
            if v > below2:
                second.append(v - below2)
            below2 += 1
        else:
            if v > below1:
                first.append(v - below1)
            below1 += 1
    return tuple.__new__(Bipartition, (tuple(first[::-1]), tuple(second[::-1])))


def _fiber(p: Sequence[int], b: int, N: int, n: int) -> Iterator[Bipartition]:
    """Every bipartition of n whose kappa at (b, N) is p, the canonical one first.

    The profile of p fixes the symbol rows up to one freedom: every doubled
    value puts one copy in each row, the staircase values 0..b-1 sit at the
    bottom of row1, and the remaining singletons of value >= b are split
    between the top of row1 and row2, which takes N minus the doubles of
    them.  The first split keeps the largest free singletons in row1.
    """
    rising, doubles = _profile(p, b, N, n)
    free = sum(v >= b and rising.count(v) == 1 for v in set(rising))
    for low in combinations(range(free), N - doubles):
        yield _split(rising, b, sum(1 << k for k in low))


def from_sympartition(p: Sequence[int], b: int, N: int, n: int) -> Bipartition:
    """One bipartition of n whose kappa at (b, N) equals p.

    The canonical choice, the fiber's first, keeps the largest free
    singletons in row1 and gives row2 the smallest, the N - doubles low
    bits, so the result is deterministic; the full fiber is family_members.
    """
    rising, doubles = _profile(p, b, N, n)
    return _split(rising, b, (1 << (N - doubles)) - 1)


def family_members(p: Sequence[int], b: int, N: int, n: int) -> Set[Bipartition]:
    """The whole family: every bipartition of n with kappa equal to p."""
    return set(_fiber(p, b, N, n))
