"""Batch verification suites over exhaustively enumerable ranges.

Every suite re-checks one of the structural facts the package relies on,
at a scale given by the caller: partition-order axioms, sympartition
characterization and round trips, N-stability, the single-box adjacency
theorem with its frame lemmas, witness soundness, a-function monotonicity
and the equivalence of the dominance description with the induction
oracle.  Suites return (ok, detail) with a deterministic counterexample
in detail on failure.
"""

from __future__ import annotations

from itertools import groupby
from math import comb
from typing import Callable, Iterator, NamedTuple

from ._util import iter_bits
from .adjacency import _poset, frame, verify_double_break
from .errors import NotAPartition, PreconditionViolated
from .families import enumerate_bipartitions, family_table
from .partitions import (
    BoxMove,
    Parts,
    _single_move,
    dominance_leq,
    dominance_lt,
    down,
    overlap_count,
    partitions_of,
    size,
    transpose,
    up,
)
from .preorder import preceq, preceq_oracle, truncated_targets, witness_is_valid, witness_step
from .symbols import (
    EMPTY,
    Bipartition,
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


def _max_pair_sum(slots: int, top: int) -> int:
    """Largest sum of `slots` values <= top, each used at most twice; -1 if impossible."""
    if slots > 2 * (top + 1):
        return -1
    total, v = 0, top
    while slots > 0:
        take = min(2, slots)
        total += take * v
        slots -= take
        v -= 1
    return total


def _min_pair_sum(slots: int) -> int:
    total, v = 0, 0
    while slots > 0:
        take = min(2, slots)
        total += take * v
        slots -= take
        v += 1
    return total


def sympartitions_by_definition(b: int, N: int, n: int) -> Iterator[Parts]:
    """All (b,N,n)-sympartitions in padded form, built from the definition.

    Generates every weakly decreasing vector of length 2N+b and total
    f(b,N,n) whose values repeat at most twice, with at most N repeated
    values, containing every value below b.  Independent of the symbol
    machinery, so it can serve as the oracle for round-trip checks.
    """
    length = 2 * N + b
    target = f_stat(b, N, n)

    def rec(slots: int, top: int, total: int, doubles_left: int, acc: list[int]) -> Iterator[Parts]:
        if slots == 0:
            if total == 0:
                yield tuple(acc)
            return
        hi = min(top, total)
        for v in range(hi, -1, -1):
            for mult in (2, 1):
                if mult > slots or (mult == 2 and doubles_left == 0):
                    continue
                rest_slots = slots - mult
                rest_total = total - mult * v
                if rest_total < 0:
                    continue
                high = _max_pair_sum(rest_slots, v - 1)
                if high < 0 or rest_total > high or rest_total < _min_pair_sum(rest_slots):
                    continue
                acc.extend([v] * mult)
                yield from rec(
                    rest_slots, v - 1, rest_total, doubles_left - (mult == 2), acc
                )
                del acc[-mult:]

    staircase = set(range(b))
    for vec in rec(length, target, target, N, []):
        if staircase <= set(vec):
            yield vec


# ---------------------------------------------------------------------------
# partition suites


def suite_partition_order(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for s in range(max_n + 1):
        ps = partitions_of(s)
        for p in ps:
            if not dominance_leq(p, p):
                return False, f"reflexivity fails at {p}"
        for p in ps:
            for q in ps:
                if dominance_leq(p, q) and dominance_leq(q, p) and p != q:
                    return False, f"antisymmetry fails at {p}, {q}"
        for p in ps:
            for q in ps:
                if not dominance_leq(p, q):
                    continue
                for r in ps:
                    checked += 1
                    if dominance_leq(q, r) and not dominance_leq(p, r):
                        return False, f"transitivity fails at {p}, {q}, {r}"
    return True, f"{checked} triples checked"


def suite_transpose(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for s in range(max_n + 1):
        ps = partitions_of(s)
        for p in ps:
            if transpose(transpose(p)) != p:
                return False, f"involution fails at {p}"
        for p in ps:
            for q in ps:
                checked += 1
                if dominance_leq(p, q) != dominance_leq(transpose(q), transpose(p)):
                    return False, f"anti-isomorphism fails at {p}, {q}"
    return True, f"{checked} pairs checked"


def suite_box_moves(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for s in range(max_n + 1):
        for p in partitions_of(s):
            for k1 in range(1, len(p) + 1):
                for k2 in range(k1 + 1, len(p) + 1):
                    move = BoxMove(k1, k2)
                    try:
                        q = up(p, move)
                    except NotAPartition:
                        continue
                    checked += 1
                    if size(q) != size(p):
                        return False, f"size not preserved: {p} {move}"
                    if not dominance_lt(p, q):
                        return False, f"up does not raise strictly: {p} {move}"
                    if down(q, move) != p:
                        return False, f"down(up(p)) != p at {p} {move}"
    return True, f"{checked} moves checked"


def suite_overlaps(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for s in range(max_n + 1):
        for p in partitions_of(s):
            repeated = sum(
                run for run in (len(list(g)) for _, g in groupby(p)) if run >= 2
            )
            weighted = sum(
                l * overlap_count(p, l) for l in range(2, len(p) + 1)
            )
            if weighted != repeated:
                return False, f"overlap weight mismatch at {p}"
            if p and p[-1] >= 1:
                longer = p + (p[-1] - 1,)
                for l in range(2, len(p) + 2):
                    if overlap_count(longer, l) != overlap_count(p, l):
                        return False, f"overlap instability at {p}, l={l}"
            checked += 1
    return True, f"{checked} partitions checked"


# ---------------------------------------------------------------------------
# symbol suites


def suite_kappa_sympartition(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for n in range(max_n + 1):
        for b in b_list:
            for bp in enumerate_bipartitions(n):
                least = min_admissible(bp)
                for N in sorted({least, least + 1, max(n, least + 2)}):
                    k = kappa(bp, b, N)
                    checked += 1
                    if size(k.entries) != f_stat(b, N, n):
                        return False, f"|kappa| != f at {bp.text()} b={b} N={N}"
                    if not is_sympartition(k.entries, b, N, n):
                        return False, f"kappa not a sympartition at {bp.text()} b={b} N={N}"
    return True, f"{checked} kappas checked"


def suite_a_stability(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for n in range(max_n + 1):
        for b in b_list:
            for bp in enumerate_bipartitions(n):
                least = min_admissible(bp)
                values = {
                    n_stat(kappa(bp, b, N)) - n_stat(kappa(EMPTY, b, N))
                    for N in range(least, least + 4)
                }
                checked += 1
                if len(values) != 1 or values != {a_value(bp, b)}:
                    return False, f"a-value depends on N at {bp.text()} b={b}"
    return True, f"{checked} bipartitions checked"


def suite_roundtrip(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    """Round trip over every sympartition of total at most 30."""
    checked = 0
    for N in range(0, 7):
        for b in range(0, 9):
            base = f_stat(b, N, 0)
            if base > 30:
                continue
            for n in range(0, 31 - base):
                for p in sympartitions_by_definition(b, N, n):
                    checked += 1
                    if not is_sympartition(p, b, N, n):
                        return False, f"generator/predicate disagree at {p} ({b},{N},{n})"
                    bp = from_sympartition(p, b, N, n)
                    if bp.rank != n or min_admissible(bp) > N:
                        return False, f"bad preimage {bp.text()} for {p} ({b},{N},{n})"
                    if kappa(bp, b, N).entries != p:
                        return False, f"round trip fails at {p} ({b},{N},{n})"
    return True, f"{checked} sympartitions round-tripped"


def suite_family_partition(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for n in range(max_n + 1):
        for b in b_list:
            table = family_table(n, b)
            seen: set[Bipartition] = set()
            count = 0
            for fam in table.families:
                for bp in fam.members:
                    count += 1
                    seen.add(bp)
                    if kappa(bp, b, n).entries != fam.kappa.entries:
                        return False, f"member {bp.text()} has wrong kappa (n={n}, b={b})"
                    if a_value(bp, b) != fam.a:
                        return False, f"member {bp.text()} has wrong a (n={n}, b={b})"
            all_bips = enumerate_bipartitions(n)
            if count != len(all_bips) or seen != set(all_bips):
                return False, f"families do not partition rank {n} at b={b}"
            checked += len(all_bips)
    return True, f"{checked} memberships checked"


def suite_dominance_stability(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for n in range(max_n + 1):
        for b in b_list:
            bips = enumerate_bipartitions(n)
            at_n = [kappa(bp, b, n).entries for bp in bips]
            at_n1 = [kappa(bp, b, n + 1).entries for bp in bips]
            for i in range(len(bips)):
                for j in range(len(bips)):
                    checked += 1
                    if dominance_leq(at_n[i], at_n[j]) != dominance_leq(at_n1[i], at_n1[j]):
                        return False, (
                            f"dominance depends on N at {bips[i].text()} vs "
                            f"{bips[j].text()} (n={n}, b={b})"
                        )
    return True, f"{checked} pairs checked"


def suite_asymptotic(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for n in range(max_n + 1):
        weights = {n} | {b for b in b_list if b > n - 1}
        for b in sorted(weights):
            for fam in family_table(n, b).families:
                checked += 1
                if len(fam.members) != 1:
                    return False, f"family of size {len(fam.members)} at n={n}, b={b}"
    return True, f"{checked} families checked"


# ---------------------------------------------------------------------------
# adjacency suites


def _adjacent_family_pairs(n: int, b: int):
    """Covering kappa pairs with their family tables, at N = n."""
    table = family_table(n, b)
    cover_up = _poset(n, b).cover_up
    for i, fam in enumerate(table.families):
        for j in cover_up[i]:
            yield fam, table.families[j]


def suite_single_move(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for n in range(max_n + 1):
        for b in b_list:
            for low, high in _adjacent_family_pairs(n, b):
                checked += 1
                move = _single_move(low.kappa.entries, high.kappa.entries)
                fr = frame(low.kappa, high.kappa)
                if not fr.i <= move.k1 < move.k2 <= fr.j:
                    return False, (
                        f"move {move} outside frame [{fr.i},{fr.j}] for "
                        f"{low.kappa.entries} -> {high.kappa.entries}"
                    )
                try:
                    moved = up(low.kappa.entries, move)
                except NotAPartition:  # the move is not legal on the low vector
                    moved = None
                if moved != high.kappa.entries:
                    return False, f"move does not reproduce {high.kappa.entries}"
    return True, f"{checked} adjacent pairs checked"


def suite_frame(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for n in range(max_n + 1):
        for b in b_list:
            for low, high in _adjacent_family_pairs(n, b):
                checked += 1
                lo, hi = low.kappa.entries, high.kappa.entries
                fr = frame(low.kappa, high.kappa)
                if lo[: fr.i - 1] != hi[: fr.i - 1] or lo[fr.j :] != hi[fr.j :]:
                    return False, f"prefix/suffix equality fails for {lo} -> {hi}"
                js = (
                    lo[fr.j - 1] > hi[fr.j - 1]
                    and hi[fr.j - 1] >= (hi[fr.j] if fr.j < len(hi) else 0)
                    and (hi[fr.j] if fr.j < len(hi) else 0)
                    >= (lo[fr.j] if fr.j < len(lo) else 0)
                )
                if not js:
                    return False, f"sandwich fails for {lo} -> {hi}"
                # every legal raising move inside the frame window lands
                # strictly above the low vector and at most at the high one
                for k1 in range(fr.i, fr.j + 1):
                    for k2 in range(k1 + 1, fr.j + 1):
                        try:
                            moved = up(lo, BoxMove(k1, k2))
                        except NotAPartition:
                            continue
                        if not (dominance_lt(lo, moved) and dominance_leq(moved, hi)):
                            return False, f"window move ({k1},{k2}) escapes {lo} -> {hi}"
    return True, f"{checked} frames checked"


def suite_double_break(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    applicable = 0
    for n in range(max_n + 1):
        for b in b_list:
            for low, high in _adjacent_family_pairs(n, b):
                checked += 1
                fr = frame(low.kappa, high.kappa)
                try:
                    ok = verify_double_break(high.kappa, fr)
                except PreconditionViolated:
                    continue
                applicable += 1
                if not ok:
                    return False, (
                        f"fewer than two break points on {high.kappa.entries} "
                        f"frame [{fr.i},{fr.j}]"
                    )
    return True, f"{applicable} of {checked} pairs in hypothesis, all passed"


def suite_witness(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for n in range(max_n + 1):
        for b in b_list:
            for low, high in _adjacent_family_pairs(n, b):
                move = _single_move(low.kappa.entries, high.kappa.entries)
                case1 = (
                    low.kappa.entries[move.k2 - 2] != low.kappa.entries[move.k2 - 1]
                )
                for a in low.members:
                    for c in high.members:
                        checked += 1
                        w = witness_step(a, c, b)
                        if w.transposed == case1:
                            return False, f"wrong case for {a.text()} -> {c.text()} b={b}"
                        if not witness_is_valid(w, a, c, b):
                            return False, f"invalid witness for {a.text()} -> {c.text()}"
                        core = kappa(w.nu, b, n).entries
                        if not is_sympartition(core, b, n, n - w.l):
                            return False, f"core not a sympartition for {a.text()} -> {c.text()}"
    return True, f"{checked} witnesses checked"


# ---------------------------------------------------------------------------
# order suites


def suite_a_monotone(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for n in range(max_n + 1):
        for b in b_list:
            fams = family_table(n, b).families
            for i, above in enumerate(_poset(n, b).above):
                for j in iter_bits(above):
                    checked += 1
                    if fams[i].a < fams[j].a:
                        return False, (
                            f"a increases along dominance: {fams[i].kappa.entries} -> "
                            f"{fams[j].kappa.entries} (n={n}, b={b})"
                        )
    return True, f"{checked} comparable pairs checked"


def suite_truncated_shift(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for b in b_list:
        for k in range(max_n):
            for l in range(1, max_n - k + 1):
                for nu in enumerate_bipartitions(k):
                    expected = a_value(nu, b) + l * (l - 1) // 2
                    targets = truncated_targets(nu, l, b)
                    if not targets:
                        return False, f"empty truncated family for {nu.text()} l={l} b={b}"
                    for mu in targets:
                        checked += 1
                        if a_value(mu, b) != expected:
                            return False, (
                                f"a shift wrong: {nu.text()} -> {mu.text()} l={l} b={b}"
                            )
    return True, f"{checked} targets checked"


def suite_typea(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for n in range(max_n + 1):
        oracle = preceq_typeA_oracle(n)
        ps = partitions_of(n)
        for p in ps:
            for q in ps:
                checked += 1
                if oracle.holds(p, q) != dominance_leq(p, q):
                    return False, f"type A oracle differs from dominance at {p}, {q}"
    for n in range(min(max_n + 4, 10) + 1):
        for p in partitions_of(n):
            if a_value_typeA(p) != sum(comb(c, 2) for c in transpose(p)):
                return False, f"type A a-value wrong at {p}"
    return True, f"{checked} pairs checked"


def suite_oracle_equivalence(max_n: int, b_list: tuple[int, ...]) -> tuple[bool, str]:
    checked = 0
    for n in range(max_n + 1):
        for b in b_list:
            oracle = preceq_oracle(n, b)
            bips = oracle.bipartitions
            for a in bips:
                for c in bips:
                    checked += 1
                    if oracle.holds(a, c) != preceq(a, c, b):
                        return False, (
                            f"oracle and dominance disagree at {a.text()} vs {c.text()} "
                            f"(n={n}, b={b})"
                        )
    return True, f"{checked} ordered pairs checked"


SUITES: tuple[tuple[str, Callable[[int, tuple[int, ...]], tuple[bool, str]]], ...] = (
    ("partition-order-axioms", suite_partition_order),
    ("transpose-anti-isomorphism", suite_transpose),
    ("raising-moves", suite_box_moves),
    ("overlap-statistics", suite_overlaps),
    ("kappa-is-sympartition", suite_kappa_sympartition),
    ("a-value-stability", suite_a_stability),
    ("sympartition-roundtrip", suite_roundtrip),
    ("family-partition", suite_family_partition),
    ("dominance-stability", suite_dominance_stability),
    ("asymptotic-singletons", suite_asymptotic),
    ("adjacency-single-move", suite_single_move),
    ("frame-prefix-suffix-sandwich", suite_frame),
    ("double-break", suite_double_break),
    ("witness-soundness", suite_witness),
    ("a-monotonicity", suite_a_monotone),
    ("truncated-a-shift", suite_truncated_shift),
    ("typea-dominance", suite_typea),
)

ORACLE_SUITE = ("preceq-matches-oracle", suite_oracle_equivalence)


def run_suites(max_n: int, b_list: tuple[int, ...], oracle: bool = False) -> list[SuiteResult]:
    selected = SUITES + ((ORACLE_SUITE,) if oracle else ())
    results = []
    for name, fn in selected:
        ok, detail = fn(max_n, tuple(b_list))
        results.append(SuiteResult(name, ok, detail))
    return results
