"""Batch verification suites over exhaustively enumerable ranges.

Every suite re-checks one of the structural facts the package relies on,
at a scale given by the caller: partition-order axioms, sympartition
characterization and round trips, N-stability, the single-box adjacency
theorem with its frame lemmas, witness soundness, a-function monotonicity
and the equivalence of dominance with the induction oracle.  _checks
declares each suite once, with its printed name and unit, as a generator
of checks under the one runner, which counts them, stops at the first
counterexample and returns (ok, detail): "<count> <unit>", or the
counterexample's text.  A unit may name {seen}, the number of counts
yielded; suite_double_break yields 0 for a cover outside the lemma.
SUITES lists the suites in declaration order; ORACLE_SUITE is declared
last.  The three rank-wide comparisons (the oracle, N-stability, type A)
compare whole bitset rows from adjacency.dominance_rows, not pairs.
"""

from __future__ import annotations

from functools import wraps
from itertools import accumulate, groupby, product
from math import comb
from typing import Callable, Iterator, NamedTuple

from .adjacency import _poset, dominance_rows, frame, verify_double_break
from .errors import NotAPartition, NotSympartition, PreconditionViolated, WitnessInvalid
from .families import enumerate_bipartitions, family_table
from .partitions import (
    BoxMove,
    Parts,
    _single_move,
    dominance_leq,
    dominance_lt,
    down,
    overlap_count,
    padded,
    part,
    partitions_of,
    size,
    transpose,
    up,
)
from .preorder import _witness, preceq_oracle, truncated_targets
from .symbols import (
    EMPTY,
    Bipartition,
    _dual,
    a_value,
    f_stat,
    from_sympartition,
    is_sympartition,
    kappa,
    min_admissible,
    n_stat,
)
from .typea import a_value_typeA, preceq_typeA_oracle


class SuiteResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _sympartitions_by_rank(b: int, N: int, hi: int) -> list[list[Parts]]:
    """The (b,N,n)-sympartitions of every rank n <= hi from one search.

    Built from the definition, independent of the symbol machinery, so it
    can serve as the oracle for round-trip checks.  Generates every weakly
    decreasing vector of length 2N+b whose values repeat at most twice,
    with at most N repeated values, containing every value below b, and
    whose total is f(b,N,n) for some n <= hi: values come largest first,
    a branch never skips one below b (there the next value is the one just
    below, placed with no loop), keeps a slot for each still to come, and
    is cut when no total in [f(b,N,0), f(b,N,hi)] can still be reached.  A
    prefix is a tuple, its parent's plus one or two entries, and a vector
    is recorded where its last value completes it, with no call for the
    empty rest.  Bucket n holds the rank-n vectors in the order of the
    search, which is the order of a search for that rank alone.
    """

    def rec(slots: int, top: int, total: int, doubles_left: int, acc: Parts) -> None:
        # total is what the vector still lacks to reach f(b, N, hi); slots > 0
        options = (moves if doubles_left else singles)[slots]
        start = top if top < total else total  # the largest value that still fits
        # no value below b may be skipped, so under b the next value is top
        for v in range(start, -1, -1) if top >= b else (top,) if start == top else ():
            if v < top and v < b - 1:  # skips v + 1 < b, as does every smaller v
                break
            for mult, rest_slots in options:
                # a slot for each of the min(v, b) values below b still to
                # come, and no value below v taken more than twice
                if rest_slots < v and rest_slots < b or rest_slots > 2 * v:
                    continue
                rest_total = total - mult * v
                low = least[rest_slots]
                if not low <= rest_total <= rest_slots * (v - 1) - low + hi:
                    continue
                head = acc + (v,) * mult
                if rest_slots == 0:  # complete, and rest_total <= hi: rank hi - rest_total
                    buckets[hi - rest_total].append(head)
                else:
                    rec(rest_slots, v - 1, rest_total, doubles_left - (mult == 2), head)

    # least[s] = q(q-1+r) is the least sum of s = 2q+r values each used at
    # most twice; below a cap t their greatest is s*t - least[s]
    least = [s // 2 * (s // 2 - 1 + s % 2) for s in range(2 * N + b)]
    # (multiplicity, slots left) of the next value with s slots to fill, a double first
    singles = [((1, s - 1),) for s in range(2 * N + b + 1)]
    moves = [((2, s - 2),) * (s >= 2) + single for s, single in enumerate(singles)]
    buckets: list[list[Parts]] = [[] for _ in range(hi + 1)]
    if N == b == 0:  # the one vector of length 0 is empty, of rank 0
        buckets[0].append(())
    else:
        target = f_stat(b, N, hi)
        rec(2 * N + b, target, target, N, ())
    return buckets


Suite = Callable[[int, tuple[int, ...]], tuple[bool, str]]
_DECLARED: list[tuple[str, Suite]] = []


def _checks(name: str, unit: str):
    """Declare a suite, printed as name, from a generator of checks.

    The generator yields the number of checks it has just passed, or the
    text of a counterexample; the suite returns (ok, detail), stopping at
    the first counterexample and otherwise reporting "<count> <unit>".  The
    unit may name {seen}, the number of counts the generator yielded.
    Suites run in declaration order, and the oracle suite is declared last.
    """

    def runner(gen: Callable[[int, tuple[int, ...]], Iterator[int | str]]) -> Suite:
        @wraps(gen)
        def suite(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
            checked = seen = 0
            for found in gen(max_n, b_list):
                if isinstance(found, str):
                    return False, found
                checked += found
                seen += 1
            return True, f"{checked} {unit.format(seen=seen)}"

        _DECLARED.append((name, suite))
        return suite

    return runner


def _row_checks(rows: tuple[int, ...], expected: tuple[int, ...], describe):
    """The m^2 checks of m bitset rows against expected ones.

    A difference is reported as describe(i, j) of the first differing pair
    in row-major order: row i, lowest differing bit j.
    """
    for i, (x, y) in enumerate(zip(rows, expected)):
        if x != y:
            yield describe(i, ((x ^ y) & -(x ^ y)).bit_length() - 1)
    yield len(rows) ** 2


# ---------------------------------------------------------------------------
# partition suites


@_checks("partition-order-axioms", "triples checked")
def suite_partition_order(max_n: int, b_list: tuple[int, ...]):
    for s in range(max_n + 1):
        ps = partitions_of(s)
        for p in ps:
            if not dominance_leq(p, p):
                yield f"reflexivity fails at {p}"
        for p, q in product(ps, ps):
            if dominance_leq(p, q) and dominance_leq(q, p) and p != q:
                yield f"antisymmetry fails at {p}, {q}"
        for p, q in product(ps, ps):
            if not dominance_leq(p, q):
                continue
            for r in ps:
                if dominance_leq(q, r) and not dominance_leq(p, r):
                    yield f"transitivity fails at {p}, {q}, {r}"
                yield 1


@_checks("transpose-anti-isomorphism", "pairs checked")
def suite_transpose(max_n: int, b_list: tuple[int, ...]):
    for s in range(max_n + 1):
        ps = partitions_of(s)
        for p in ps:
            if transpose(transpose(p)) != p:
                yield f"involution fails at {p}"
        for p, q in product(ps, ps):
            if dominance_leq(p, q) != dominance_leq(transpose(q), transpose(p)):
                yield f"anti-isomorphism fails at {p}, {q}"
            yield 1


@_checks("raising-moves", "moves checked")
def suite_box_moves(max_n: int, b_list: tuple[int, ...]):
    for s in range(max_n + 1):
        for p in partitions_of(s):
            for k1 in range(1, len(p) + 1):
                for k2 in range(k1 + 1, len(p) + 1):
                    move = BoxMove(k1, k2)
                    try:
                        q = up(p, move)
                    except NotAPartition:
                        continue
                    if size(q) != size(p):
                        yield f"size not preserved: {p} {move}"
                    if not dominance_lt(p, q):
                        yield f"up does not raise strictly: {p} {move}"
                    if down(q, move) != p:
                        yield f"down(up(p)) != p at {p} {move}"
                    yield 1


@_checks("overlap-statistics", "partitions checked")
def suite_overlaps(max_n: int, b_list: tuple[int, ...]):
    for s in range(max_n + 1):
        for p in partitions_of(s):
            repeated = sum(
                run for run in (len(list(g)) for _, g in groupby(p)) if run >= 2
            )
            weighted = sum(
                l * overlap_count(p, l) for l in range(2, len(p) + 1)
            )
            if weighted != repeated:
                yield f"overlap weight mismatch at {p}"
            if p and p[-1] >= 1:
                longer = p + (p[-1] - 1,)
                for l in range(2, len(p) + 2):
                    if overlap_count(longer, l) != overlap_count(p, l):
                        yield f"overlap instability at {p}, l={l}"
            yield 1


# ---------------------------------------------------------------------------
# symbol suites


@_checks("kappa-is-sympartition", "kappas checked")
def suite_kappa_sympartition(max_n: int, b_list: tuple[int, ...]):
    for n, b in product(range(max_n + 1), b_list):
        for bp in enumerate_bipartitions(n):
            least = min_admissible(bp)
            for N in sorted({least, least + 1, max(n, least + 2)}):
                k = kappa(bp, b, N)
                if size(k.entries) != f_stat(b, N, n):
                    yield f"|kappa| != f at {bp.text()} b={b} N={N}"
                if not is_sympartition(k.entries, b, N, n):
                    yield f"kappa not a sympartition at {bp.text()} b={b} N={N}"
                yield 1


@_checks("a-value-stability", "bipartitions checked")
def suite_a_stability(max_n: int, b_list: tuple[int, ...]):
    # every N used below is at most least + 3 <= max_n + 3
    empty = {(b, N): n_stat(kappa(EMPTY, b, N)) for b in b_list for N in range(max_n + 4)}
    for n, b in product(range(max_n + 1), b_list):
        for bp in enumerate_bipartitions(n):
            least = min_admissible(bp)
            values = {
                n_stat(kappa(bp, b, N)) - empty[b, N] for N in range(least, least + 4)
            }
            if len(values) != 1 or values != {a_value(bp, b)}:
                yield f"a-value depends on N at {bp.text()} b={b}"
            yield 1


@_checks("sympartition-roundtrip", "sympartitions round-tripped")
def suite_roundtrip(max_n: int, b_list: tuple[int, ...]):
    """Round trip over every sympartition of total at most 30."""
    for N, b in product(range(7), range(9)):
        base = f_stat(b, N, 0)
        if base > 30:
            continue
        for n, bucket in enumerate(_sympartitions_by_rank(b, N, 30 - base)):
            for p in bucket:
                try:
                    bp = from_sympartition(p, b, N, n)
                except NotSympartition:  # is_sympartition is False
                    yield f"generator/predicate disagree at {p} ({b},{N},{n})"
                    continue
                if bp.rank != n or min_admissible(bp) > N:
                    yield f"bad preimage {bp.text()} for {p} ({b},{N},{n})"
                if kappa(bp, b, N).entries != p:
                    yield f"round trip fails at {p} ({b},{N},{n})"
            yield len(bucket)


@_checks("family-partition", "memberships checked")
def suite_family_partition(max_n: int, b_list: tuple[int, ...]):
    for n, b in product(range(max_n + 1), b_list):
        seen: list[Bipartition] = []
        for fam in family_table(n, b).families:
            for bp in fam.members:
                seen.append(bp)
                if kappa(bp, b, n).entries != fam.kappa.entries:
                    yield f"member {bp.text()} has wrong kappa (n={n}, b={b})"
                if a_value(bp, b) != fam.a:
                    yield f"member {bp.text()} has wrong a (n={n}, b={b})"
        all_bips = enumerate_bipartitions(n)
        if len(seen) != len(all_bips) or set(seen) != set(all_bips):
            yield f"families do not partition rank {n} at b={b}"
        yield len(all_bips)


@_checks("dominance-stability", "pairs checked")
def suite_dominance_stability(max_n: int, b_list: tuple[int, ...]):
    for n, b in product(range(max_n + 1), b_list):
        bips = enumerate_bipartitions(n)
        yield from _row_checks(
            dominance_rows([kappa(bp, b, n).entries for bp in bips]),
            dominance_rows([kappa(bp, b, n + 1).entries for bp in bips]),
            lambda i, j: f"dominance depends on N at {bips[i].text()} vs "
            f"{bips[j].text()} (n={n}, b={b})",
        )


@_checks("asymptotic-singletons", "families checked")
def suite_asymptotic(max_n: int, b_list: tuple[int, ...]):
    for n in range(max_n + 1):
        weights = {n} | {b for b in b_list if b > n - 1}
        for b in sorted(weights):
            for fam in family_table(n, b).families:
                if len(fam.members) != 1:
                    yield f"family of size {len(fam.members)} at n={n}, b={b}"
                yield 1


# ---------------------------------------------------------------------------
# adjacency suites


def _covers(n: int, b: int):
    """(low, high) for every covering pair of families at (n, b), at N = n."""
    families = family_table(n, b).families
    for fam, ups in zip(families, _poset(n, b).cover_up):
        for j in ups:
            yield fam, families[j]


def _adjacent_family_pairs(max_n: int, b_list: tuple[int, ...]):
    """_covers over the grid."""
    return (pair for n, b in product(range(max_n + 1), b_list) for pair in _covers(n, b))


@_checks("adjacency-single-move", "adjacent pairs checked")
def suite_single_move(max_n: int, b_list: tuple[int, ...]):
    for low, high in _adjacent_family_pairs(max_n, b_list):
        move = _single_move(low.kappa.entries, high.kappa.entries)
        fr = frame(low.kappa, high.kappa)
        if not fr.i <= move.k1 < move.k2 <= fr.j:
            yield (
                f"move {move} outside frame [{fr.i},{fr.j}] for "
                f"{low.kappa.entries} -> {high.kappa.entries}"
            )
        try:
            moved = up(low.kappa.entries, move)
        except NotAPartition:  # the move is not legal on the low vector
            moved = None
        if moved != high.kappa.entries:
            yield f"move does not reproduce {high.kappa.entries}"
        yield 1


@_checks("frame-prefix-suffix-sandwich", "frames checked")
def suite_frame(max_n: int, b_list: tuple[int, ...]):
    for low, high in _adjacent_family_pairs(max_n, b_list):
        lo, hi = low.kappa.entries, high.kappa.entries
        fr = frame(low.kappa, high.kappa)
        if lo[: fr.i - 1] != hi[: fr.i - 1] or lo[fr.j :] != hi[fr.j :]:
            yield f"prefix/suffix equality fails for {lo} -> {hi}"
        if not part(lo, fr.j) > part(hi, fr.j) >= part(hi, fr.j + 1) >= part(lo, fr.j + 1):
            yield f"sandwich fails for {lo} -> {hi}"
        # every legal raising move inside the frame window lands
        # strictly above the low vector and at most at the high one
        for k1, k2 in _window_escapes(lo, hi, fr.i, fr.j):
            yield f"window move ({k1},{k2}) escapes {lo} -> {hi}"
        yield 1


def _window_escapes(lo: Parts, hi: Parts, i: int, j: int) -> Iterator[tuple[int, int]]:
    """The legal raises (k1, k2) of lo, i <= k1 < k2 <= j, that do not land in (lo, hi].

    lo must be dominated by hi.  A raise is legal when lo's entry above k1
    exceeds lo_k1, and lo_k2 exceeds the entry below it (0 past the end).
    A legal raise lands strictly above lo and adds 1 to lo's prefix sums
    exactly on [k1, k2 - 1], so it stays at or below hi exactly when the
    slack P_hi - P_lo is at least 1 there.  For each k1 the least slack is
    kept as k2 grows, so each move costs O(1).
    """
    slack = [h - l for l, h in zip(accumulate(lo), accumulate(hi))]
    end = min(j, len(lo))
    for k1 in range(i, end):
        if k1 > 1 and lo[k1 - 2] == lo[k1 - 1]:
            continue
        least = slack[k1 - 1]
        for k2 in range(k1 + 1, end + 1):
            least = min(least, slack[k2 - 2])
            if least < 1 and lo[k2 - 1] > (lo[k2] if k2 < len(lo) else 0):
                yield k1, k2


@_checks("double-break", "of {seen} pairs in hypothesis, all passed")
def suite_double_break(max_n: int, b_list: tuple[int, ...]):
    for low, high in _adjacent_family_pairs(max_n, b_list):
        fr = frame(low.kappa, high.kappa)
        try:
            if not verify_double_break(fr):
                yield f"fewer than two break points on {high.kappa.entries} frame [{fr.i},{fr.j}]"
        except PreconditionViolated:
            yield 0  # outside the lemma's hypothesis: seen, not checked
        else:
            yield 1


@_checks("witness-soundness", "witnesses checked")
def suite_witness(max_n: int, b_list: tuple[int, ...]):
    for n, b in product(range(max_n + 1), b_list):
        # a transposed witness is certified on duals: each must be the
        # table's kappa of the transpose, every member's transpose being a member
        table = family_table(n, b)
        families, position = table.families, table.position
        for fam in families:
            dual = _dual(fam.kappa.entries, b, n)
            for m in fam.members:
                if families[position[m.transpose()]].kappa.entries != dual:
                    yield f"kappa duality fails at {m.text()} (n={n}, b={b})"
        # one _witness per cover; every member pair counts, the first is named
        for low, high in _covers(n, b):
            lo, hi = low.kappa.entries, high.kappa.entries
            move = _single_move(lo, hi)
            try:
                w = _witness(lo, hi, b, move)
            except WitnessInvalid as exc:  # chained when the core was rejected
                w = "core not a sympartition" if exc.__cause__ else "invalid witness"
            if isinstance(w, str):
                yield f"{w} for {low.members[0].text()} -> {high.members[0].text()}"
            elif w.transposed == (lo[move.k2 - 2] != lo[move.k2 - 1]):
                yield f"wrong case for {low.members[0].text()} -> {high.members[0].text()} b={b}"
            else:
                yield len(low.members) * len(high.members)


# ---------------------------------------------------------------------------
# order suites


@_checks("a-monotonicity", "comparable pairs checked")
def suite_a_monotone(max_n: int, b_list: tuple[int, ...]):
    for n, b in product(range(max_n + 1), b_list):
        fams = family_table(n, b).families
        # larger[a] is the mask of the families whose a-value exceeds a
        larger: dict[int, int] = {}
        mask = 0
        for i in sorted(range(len(fams)), key=lambda i: fams[i].a, reverse=True):
            larger.setdefault(fams[i].a, mask)
            mask |= 1 << i
        for i, above in enumerate(_poset(n, b).above):
            bad = above & larger[fams[i].a]
            if bad:
                j = (bad & -bad).bit_length() - 1
                yield (
                    f"a increases along dominance: {fams[i].kappa.entries} -> "
                    f"{fams[j].kappa.entries} (n={n}, b={b})"
                )
            yield above.bit_count()


@_checks("truncated-a-shift", "targets checked")
def suite_truncated_shift(max_n: int, b_list: tuple[int, ...]):
    for b in b_list:
        for k in range(max_n):
            for l in range(1, max_n - k + 1):
                for nu in enumerate_bipartitions(k):
                    expected = a_value(nu, b) + l * (l - 1) // 2
                    targets = truncated_targets(nu, l, b)
                    if not targets:
                        yield f"empty truncated family for {nu.text()} l={l} b={b}"
                    for mu in targets:
                        if a_value(mu, b) != expected:
                            yield f"a shift wrong: {nu.text()} -> {mu.text()} l={l} b={b}"
                        yield 1


@_checks("typea-dominance", "pairs checked")
def suite_typea(max_n: int, b_list: tuple[int, ...]):
    for n in range(max_n + 1):
        oracle = preceq_typeA_oracle(n)
        ps = oracle.partitions
        yield from _row_checks(
            oracle.rows,
            dominance_rows([padded(p, n) for p in ps]),
            lambda i, j: f"type A oracle differs from dominance at {ps[i]}, {ps[j]}",
        )
    for n in range(min(max_n + 4, 10) + 1):
        for p in partitions_of(n):
            if a_value_typeA(p) != sum(comb(c, 2) for c in transpose(p)):
                yield f"type A a-value wrong at {p}"


@_checks("preceq-matches-oracle", "ordered pairs checked")
def suite_oracle_equivalence(max_n: int, b_list: tuple[int, ...]):
    for n, b in product(range(max_n + 1), b_list):
        oracle = preceq_oracle(n, b)
        bips = oracle.bipartitions
        yield from _row_checks(
            oracle.rows,
            dominance_rows([kappa(bp, b, n).entries for bp in bips]),
            lambda i, j: f"oracle and dominance disagree at {bips[i].text()} vs "
            f"{bips[j].text()} (n={n}, b={b})",
        )


SUITES: tuple[tuple[str, Suite], ...] = tuple(_DECLARED[:-1])
ORACLE_SUITE = _DECLARED[-1]


def run_suites(max_n: int, b_list: tuple[int, ...], oracle: bool = False) -> list[SuiteResult]:
    selected = SUITES + ((ORACLE_SUITE,) if oracle else ())
    return [SuiteResult(name, *fn(max_n, tuple(b_list))) for name, fn in selected]
