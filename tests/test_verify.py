import hashlib
import json
import sys
from itertools import accumulate, groupby, product
from pathlib import Path

import pytest

from bsymbols import cli, preorder, symbols, verify
from bsymbols._util import iter_bits
from bsymbols.adjacency import _poset, dominance_rows, frame, verify_double_break
from bsymbols.errors import NotAPartition, NotSympartition, WitnessInvalid
from bsymbols.families import enumerate_bipartitions, family_table
from bsymbols.partitions import (
    BoxMove,
    _single_move,
    dominance_leq,
    dominance_lt,
    overlap_count,
    padded,
    partitions_of,
    transpose,
    up,
)
from bsymbols.preorder import InductionWitness, induction_targets, truncated_targets
from bsymbols.symbols import (
    Bipartition,
    _rank_kappas,
    f_stat,
    from_sympartition,
    is_sympartition,
    kappa,
    n_stat,
)
from bsymbols.typea import a_value_typeA
from bsymbols.verify import _sympartitions_by_rank, run_suites


def test_generator_matches_predicate_brute_force():
    # the recursive generator must produce exactly the padded partitions
    # accepted by is_sympartition, here cross-checked by filtering every
    # partition of the target total
    for b in range(4):
        for N in range(4):
            for n in range(5):
                total = f_stat(b, N, n)
                if total > 12:
                    continue
                expected = set()
                for p in partitions_of(total):
                    if len(p) <= 2 * N + b and is_sympartition(p, b, N, n):
                        expected.add(padded(p, 2 * N + b))
                got = set(_sympartitions_by_rank(b, N, n)[n])
                assert got == expected, (b, N, n)


def unpruned_sympartitions(b, N, n):
    """The generator before pruning: every vector with at most N values
    repeated twice, filtered for the staircase after the fact."""

    def max_pair_sum(slots, top):
        if slots > 2 * (top + 1):
            return -1
        total, v = 0, top
        while slots > 0:
            take = min(2, slots)
            total += take * v
            slots -= take
            v -= 1
        return total

    def min_pair_sum(slots):
        total, v = 0, 0
        while slots > 0:
            take = min(2, slots)
            total += take * v
            slots -= take
            v += 1
        return total

    def rec(slots, top, total, doubles_left, acc):
        if slots == 0:
            if total == 0:
                yield tuple(acc)
            return
        for v in range(min(top, total), -1, -1):
            for mult in (2, 1):
                if mult > slots or (mult == 2 and doubles_left == 0):
                    continue
                rest_slots = slots - mult
                rest_total = total - mult * v
                if rest_total < 0:
                    continue
                high = max_pair_sum(rest_slots, v - 1)
                if high < 0 or rest_total > high or rest_total < min_pair_sum(rest_slots):
                    continue
                acc.extend([v] * mult)
                yield from rec(rest_slots, v - 1, rest_total, doubles_left - (mult == 2), acc)
                del acc[-mult:]

    target = f_stat(b, N, n)
    for vec in rec(2 * N + b, target, target, N, []):
        if set(range(b)) <= set(vec):
            yield vec


def test_range_search_buckets_match_unpruned_in_order():
    # every (b, N, n) of total at most 36, one search per (b, N); the
    # round-trip suite stops at 30
    cells = 0
    for N in range(9):
        for b in range(37):
            hi = 36 - f_stat(b, N, 0)
            if hi < 0:
                continue
            buckets = _sympartitions_by_rank(b, N, hi)
            assert len(buckets) == hi + 1, (b, N)
            for n, bucket in enumerate(buckets):
                assert bucket == list(unpruned_sympartitions(b, N, n)), (b, N, n)
                cells += 1
    assert cells == 870


# sha256 of the round-trip suite's buckets, every rank of its 36 (N, b)
# cells in the suite's order, each bucket in the order of the search
ROUNDTRIP_BUCKETS_SHA256 = "f3d41d994d14a9024f0196c9cf850d988ccd1f705743d52df2309e8ad8314c99"


def test_range_search_order_is_pinned():
    digest = hashlib.sha256()
    cells = 0
    for N, b in product(range(7), range(9)):
        base = f_stat(b, N, 0)
        if base > 30:
            continue
        cells += 1
        for n, bucket in enumerate(_sympartitions_by_rank(b, N, 30 - base)):
            digest.update(f"{N} {b} {n} {bucket}\n".encode())
    assert cells == 36
    assert digest.hexdigest() == ROUNDTRIP_BUCKETS_SHA256


def test_roundtrip_keeps_every_check(monkeypatch):
    # one call checks every vector: one preimage, one admissibility check and
    # one kappa per vector, whatever the walk and the search cost
    calls = {"from_sympartition": 0, "kappa": 0, "min_admissible": 0}

    def counted(name):
        wrapped = getattr(verify, name)

        def call(*args):
            calls[name] += 1
            return wrapped(*args)

        return call

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    assert verify.suite_roundtrip(0, ()) == (True, "26128 sympartitions round-tripped")
    assert calls == {"from_sympartition": 26128, "kappa": 26128, "min_admissible": 26128}


def test_generator_yields_padded_sorted_vectors():
    for vec in _sympartitions_by_rank(2, 2, 4)[4]:
        assert len(vec) == 6
        assert all(x >= y for x, y in zip(vec, vec[1:]))
        assert is_sympartition(vec, 2, 2, 4)


def test_run_suites_all_pass_small():
    results = run_suites(3, (0, 1, 2), oracle=True)
    assert len(results) == 18
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"
    names = [r.name for r in results]
    assert names == sorted(names, key=names.index)  # stable, deterministic order
    assert names[-1] == "preceq-matches-oracle"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_declared_suites_are_the_benchmark_suites():
    # the benchmark names one verify.<suite>.checks metric per suite, so a
    # renamed or reordered suite would read 0 there without failing
    sys.path.insert(0, str(PERFBENCH))
    import run

    declared = [name for name, _ in verify.SUITES + (verify.ORACLE_SUITE,)]
    assert declared == list(run.SUITES)


def test_every_suite_runs_under_the_one_runner():
    suites = verify.SUITES + (verify.ORACLE_SUITE,)
    assert list(suites) == verify._DECLARED
    assert all(hasattr(fn, "__wrapped__") for _, fn in suites)
    names = [name for name, _ in suites]
    assert len(set(names)) == len(names)


def test_double_break_counts_the_pairs_in_hypothesis():
    assert verify.suite_double_break(7, (0, 3, 6)) == (
        True,
        "238 of 761 pairs in hypothesis, all passed",
    )


# subtly wrong versions of the suites' dependencies; each suite must fail
# on them with its first counterexample


def rows_flipped_at(vectors, i, j):
    """dominance_rows with bit j of row i flipped whenever it is given these vectors."""

    def wrong(given):
        rows = list(dominance_rows(given))
        if list(given) == vectors:
            rows[i] ^= 1 << j
        return tuple(rows)

    return wrong


def rank_rows_flipped_at(low, high, b, N):
    """The flip at (low, high) among the kappas at (b, N) of their rank, in enumeration order."""
    texts = [bp.text() for bp in enumerate_bipartitions(Bipartition.parse(low).rank)]
    vectors = [kappa(Bipartition.parse(t), b, N).entries for t in texts]
    return rows_flipped_at(vectors, texts.index(low), texts.index(high))


def typea_rows_flipped_at(p, q):
    ps = partitions_of(sum(p))
    return rows_flipped_at([padded(x, sum(p)) for x in ps], ps.index(p), ps.index(q))


def witness_l_off_by_one(nu, l, transposed):
    return InductionWitness(nu, l + 1, transposed)


def preimage_rejects(vector, b, N, n):
    """from_sympartition, but NotSympartition for this one vector at (b, N, n)."""

    def wrong(*args):
        if args == (vector, b, N, n):
            raise NotSympartition(f"{vector} rejected")
        return from_sympartition(*args)

    return wrong


def preimage_rejects_from_rank(b, N, least):
    """from_sympartition, but NotSympartition for every vector at (b, N) of rank >= least."""

    def wrong(p, b_, N_, n):
        if (b_, N_) == (b, N) and n >= least:
            raise NotSympartition(f"{p} rejected")
        return from_sympartition(p, b_, N_, n)

    return wrong


def preimage_replaced(vector, b, N, n, text):
    """from_sympartition, but the bipartition `text` for this one vector at (b, N, n)."""

    def wrong(*args):
        return Bipartition.parse(text) if args == (vector, b, N, n) else from_sympartition(*args)

    return wrong


def a_value_typea_wrong_once(p):
    return a_value_typeA(p) + (p == (2, 1))


def move_k2_off_by_one(lo, hi):
    move = _single_move(lo, hi)
    return BoxMove(move.k1, move.k2 + 1)


def move_k1_off_by_one(lo, hi):
    move = _single_move(lo, hi)
    return BoxMove(move.k1 + 1, move.k2) if move.k1 + 1 < move.k2 else move


def frame_i_off_by_one(k, k2):
    fr = frame(k, k2)
    return fr._replace(i=fr.i + 1)


def frame_j_off_by_one(k, k2):
    fr = frame(k, k2)
    return fr._replace(j=fr.j + 1)


def prefix_sums_one_late(p):
    """accumulate with a leading 0, so each prefix sum lands one position late."""
    return accumulate(p, initial=0)


def double_break_window_one_short(fr):
    return verify_double_break(fr._replace(j=fr.j - 1))


def dominance_on_first_parts(p, q):
    return p[:1] <= q[:1]


def runs_of_at_least(p, l):
    """overlap_count counting the runs of length at least l, not exactly l."""
    return sum(1 for _, run in groupby(p) if sum(1 for _ in run) >= l)


def f_stat_short_row_one_long(b, N, n):
    """f_stat with the short row's staircase summed up to N, not N - 1."""
    return n + N * (N + 1) // 2 + (N + b) * (N + b - 1) // 2


def a_value_without_empty_offset(bp, b):
    return n_stat(kappa(bp, b))


def rank_two_missing_its_last(n):
    bips = enumerate_bipartitions(n)
    return bips[:-1] if n == 2 else bips


def table_one_weight_low(n, b):
    return family_table(n, max(b - 1, 0))


def table_with_first_a_raised(n, b):
    """family_table, but the first family at (2, 0) has a-value 100."""
    table = family_table(n, b)
    if (n, b) != (2, 0):
        return table
    first, *rest = table.families
    return table._replace(families=(first._replace(a=100), *rest))


def dominance_without(low, high):
    """dominance_leq, but False at (low, high) alone: no longer transitive."""

    def wrong(p, q):
        return (p, q) != (low, high) and dominance_leq(p, q)

    return wrong


def up_keeping_the_low_box(p, move):
    """up, but the box is added to row k1 without being taken from row k2."""
    q = list(up(p, move))
    q[move.k2 - 1] += 1
    return tuple(q)


def overlaps_with_a_trailing_zero(p, l):
    """overlap_count, reading p as if one 0 followed its last entry."""
    return overlap_count(tuple(p) + (0,), l)


def sympartition_without_doubles(p, b, N, n):
    """is_sympartition, but no value may be repeated."""
    return is_sympartition(p, b, N, n) and len(set(p)) == len(p)


def witness_with_the_case_flipped(nu, l, transposed):
    return InductionWitness(nu, l, not transposed)


def dual_unreflected(entries, b, N):
    """The complement of kappa in [0, 2N + b - 1] without the reflection."""
    top = 2 * N + b - 1
    return tuple(sorted((top - v for v in symbols._dual(entries, b, N)), reverse=True))


def truncated_targets_of_one_box(nu, l, b):
    """truncated_targets, but empty past l = 1."""
    return truncated_targets(nu, l, b) if l == 1 else set()


SEEDED_FAULTS = [
    (
        "verify.dominance_rows",
        rank_rows_flipped_at("1,1|-", "2|-", 0, 2),
        verify.suite_oracle_equivalence,
        2,
        (0,),
        "oracle and dominance disagree at 1,1|- vs 2|- (n=2, b=0)",
    ),
    # flipped at N = n + 1 only, so the rows at N = n and N = n + 1 differ
    (
        "verify.dominance_rows",
        rank_rows_flipped_at("-|1,1", "1|1", 1, 3),
        verify.suite_dominance_stability,
        2,
        (1,),
        "dominance depends on N at -|1,1 vs 1|1 (n=2, b=1)",
    ),
    (
        "verify.dominance_rows",
        typea_rows_flipped_at((2, 1), (1, 1, 1)),
        verify.suite_typea,
        3,
        (),
        "type A oracle differs from dominance at (2, 1), (1, 1, 1)",
    ),
    (
        "preorder.InductionWitness",
        witness_l_off_by_one,
        verify.suite_witness,
        2,
        (1,),
        "invalid witness for -|1 -> 1|-",
    ),
    (
        "verify.frame",
        frame_i_off_by_one,
        verify.suite_frame,
        2,
        (1,),
        "prefix/suffix equality fails for (1, 1, 0) -> (2, 0, 0)",
    ),
    (
        "verify.frame",
        frame_j_off_by_one,
        verify.suite_frame,
        2,
        (1,),
        "sandwich fails for (1, 1, 0) -> (2, 0, 0)",
    ),
    (
        "verify.accumulate",
        prefix_sums_one_late,
        verify.suite_frame,
        2,
        (0,),
        "window move (1,2) escapes (2, 2, 0, 0) -> (3, 1, 0, 0)",
    ),
    (
        "verify.verify_double_break",
        double_break_window_one_short,
        verify.suite_double_break,
        2,
        (1,),
        "fewer than two break points on (2, 0, 0) frame [1,2]",
    ),
    (
        "verify._single_move",
        move_k2_off_by_one,
        verify.suite_single_move,
        2,
        (1,),
        "move Up(1,3) outside frame [1,2] for (1, 1, 0) -> (2, 0, 0)",
    ),
    # an illegal move inside the frame is a counterexample, not an exception
    (
        "verify._single_move",
        move_k1_off_by_one,
        verify.suite_single_move,
        2,
        (1,),
        "move does not reproduce (3, 2, 1, 0, 0)",
    ),
    (
        "verify.a_value_typeA",
        a_value_typea_wrong_once,
        verify.suite_typea,
        0,
        (),
        "type A a-value wrong at (2, 1)",
    ),
    (
        "verify.from_sympartition",
        preimage_rejects((1, 1, 0), 1, 1, 1),
        verify.suite_roundtrip,
        0,
        (),
        "generator/predicate disagree at (1, 1, 0) (1,1,1)",
    ),
    # the preimage of (1, 1, 0) at (b, N) = (1, 1) is -|1; -|- has the wrong rank
    (
        "verify.from_sympartition",
        preimage_replaced((1, 1, 0), 1, 1, 1, "-|-"),
        verify.suite_roundtrip,
        0,
        (),
        "bad preimage -|- for (1, 1, 0) (1,1,1)",
    ),
    # 1|- has the right rank but kappa (2, 0, 0)
    (
        "verify.from_sympartition",
        preimage_replaced((1, 1, 0), 1, 1, 1, "1|-"),
        verify.suite_roundtrip,
        0,
        (),
        "round trip fails at (1, 1, 0) (1,1,1)",
    ),
    # every vector of rank >= 2 at (b, N) = (1, 2) is rejected: the first
    # reported is the first of rank 2 in the search order
    (
        "verify.from_sympartition",
        preimage_rejects_from_rank(1, 2, 2),
        verify.suite_roundtrip,
        0,
        (),
        "generator/predicate disagree at (4, 1, 1, 0, 0) (1,2,2)",
    ),
    (
        "verify.dominance_leq",
        dominance_on_first_parts,
        verify.suite_partition_order,
        4,
        (),
        "antisymmetry fails at (2, 2), (2, 1, 1)",
    ),
    # the identity in place of the conjugate is still an involution
    (
        "verify.transpose",
        lambda p: p,
        verify.suite_transpose,
        2,
        (),
        "anti-isomorphism fails at (2,), (1, 1)",
    ),
    (
        "verify.dominance_lt",
        lambda p, q: dominance_lt(q, p),
        verify.suite_box_moves,
        3,
        (),
        "up does not raise strictly: (1, 1) Up(1,2)",
    ),
    (
        "verify.overlap_count",
        runs_of_at_least,
        verify.suite_overlaps,
        3,
        (),
        "overlap weight mismatch at (1, 1, 1)",
    ),
    # equal to f_stat at N = 0 only
    (
        "verify.f_stat",
        f_stat_short_row_one_long,
        verify.suite_kappa_sympartition,
        1,
        (0,),
        "|kappa| != f at -|- b=0 N=1",
    ),
    (
        "verify.a_value",
        a_value_without_empty_offset,
        verify.suite_a_stability,
        2,
        (0, 1),
        "a-value depends on N at -|1,1 b=0",
    ),
    (
        "verify.enumerate_bipartitions",
        rank_two_missing_its_last,
        verify.suite_family_partition,
        2,
        (0,),
        "families do not partition rank 2 at b=0",
    ),
    # 1|- and -|1 share a family at b = 0
    (
        "verify.family_table",
        table_one_weight_low,
        verify.suite_asymptotic,
        1,
        (),
        "family of size 2 at n=1, b=1",
    ),
    # every increment of l entries, not only of the l largest
    (
        "verify.truncated_targets",
        induction_targets,
        verify.suite_truncated_shift,
        3,
        (0,),
        "a shift wrong: -|- -> 1,1|- l=2 b=0",
    ),
    (
        "verify.family_table",
        table_with_first_a_raised,
        verify.suite_a_monotone,
        2,
        (0,),
        "a increases along dominance: (2, 2, 0, 0) -> (3, 1, 0, 0) (n=2, b=0)",
    ),
    (
        "verify.dominance_leq",
        dominance_lt,
        verify.suite_partition_order,
        2,
        (),
        "reflexivity fails at ()",
    ),
    # (1, 1, 1) <= (2, 1) <= (3,) with the last step of the chain dropped
    (
        "verify.dominance_leq",
        dominance_without((1, 1, 1), (3,)),
        verify.suite_partition_order,
        4,
        (),
        "transitivity fails at (1, 1, 1), (2, 1), (3,)",
    ),
    # the conjugate without its last part sends (1,) to ()
    (
        "verify.transpose",
        lambda p: transpose(p)[:-1],
        verify.suite_transpose,
        2,
        (),
        "involution fails at (1,)",
    ),
    (
        "verify.up",
        up_keeping_the_low_box,
        verify.suite_box_moves,
        3,
        (),
        "size not preserved: (1, 1) Up(1,2)",
    ),
    # a down that moves no box
    (
        "verify.down",
        lambda q, move: q,
        verify.suite_box_moves,
        3,
        (),
        "down(up(p)) != p at (1, 1) Up(1,2)",
    ),
    # no zero run is ever counted at l >= 2 in a normalized partition, so
    # only the appended smaller part shows the fault
    (
        "verify.overlap_count",
        overlaps_with_a_trailing_zero,
        verify.suite_overlaps,
        3,
        (),
        "overlap instability at (1,), l=2",
    ),
    (
        "verify.is_sympartition",
        sympartition_without_doubles,
        verify.suite_kappa_sympartition,
        2,
        (0,),
        "kappa not a sympartition at -|- b=0 N=1",
    ),
    # kappa at b = 0 in place of b = 1 has one entry too few
    (
        "verify.family_table",
        table_one_weight_low,
        verify.suite_family_partition,
        1,
        (1,),
        "member -|- has wrong kappa (n=0, b=1)",
    ),
    (
        "verify.family_table",
        table_with_first_a_raised,
        verify.suite_family_partition,
        2,
        (0,),
        "member -|2 has wrong a (n=2, b=0)",
    ),
    # the check behind _witness does not read the case, so only the
    # suite's comparison with the cover's move can see it
    (
        "preorder.InductionWitness",
        witness_with_the_case_flipped,
        verify.suite_witness,
        2,
        (1,),
        "wrong case for -|1 -> 1|- b=1",
    ),
    (
        "verify.truncated_targets",
        truncated_targets_of_one_box,
        verify.suite_truncated_shift,
        3,
        (0,),
        "empty truncated family for -|- l=2 b=0",
    ),
    # the builder's own check reads the duals it certifies on, so only the
    # suite's comparison with the table's kappa of each transpose can see it
    (
        "verify._dual",
        dual_unreflected,
        verify.suite_witness,
        2,
        (1,),
        "kappa duality fails at 1|- (n=1, b=1)",
    ),
]
SEEDED_IDS = [
    "preceq",
    "dominance-stability",
    "typea-dominance",
    "witness_step",
    "frame-prefix-suffix",
    "frame-sandwich",
    "frame-window",
    "double-break",
    "single_move-k2",
    "single_move-k1",
    "a_value_typeA",
    "roundtrip-profile",
    "roundtrip-bad-preimage",
    "roundtrip-fails",
    "roundtrip-first-of-rank",
    "partition-order",
    "transpose",
    "raising-moves",
    "overlap",
    "kappa-sympartition",
    "a-stability",
    "family-partition",
    "asymptotic",
    "truncated-shift",
    "a-monotonicity",
    "partition-order-reflexivity",
    "partition-order-transitivity",
    "transpose-involution",
    "raising-moves-size",
    "raising-moves-down",
    "overlap-instability",
    "kappa-not-sympartition",
    "family-partition-kappa",
    "family-partition-a",
    "witness-case",
    "truncated-shift-empty",
    "witness-duality",
]


@pytest.mark.parametrize(
    "name, wrong, suite, max_n, b_list, detail", SEEDED_FAULTS, ids=SEEDED_IDS
)
def test_suite_fails_with_counterexample(monkeypatch, name, wrong, suite, max_n, b_list, detail):
    assert suite(max_n, b_list)[0] is True
    monkeypatch.setattr(f"bsymbols.{name}", wrong)
    ok, got = suite(max_n, b_list)
    assert ok is False
    assert got == detail


def test_every_declared_suite_has_a_seeded_fault():
    # a suite that no fault can fail checks nothing, yet prints PASS
    seeded = {case[2] for case in SEEDED_FAULTS}
    assert [name for name, suite in verify._DECLARED if suite not in seeded] == []


def covers(n, b):
    """(low, high) for every cover of families at (n, b), in the poset's order."""
    families = family_table(n, b).families
    for low, ups in zip(families, _poset(n, b).cover_up):
        for j in ups:
            yield low, families[j]


def per_pair_witnesses(low, high, b):
    """The witness suite's loop before it built once per cover: _witness on every member pair.

    Each pair's kappas are recomputed, and its move read off them.
    """
    for a, c in product(low.members, high.members):
        lo, hi = _rank_kappas(a, c, b)
        move = _single_move(lo, hi)
        try:
            w = preorder._witness(lo, hi, b, move)
        except WitnessInvalid as exc:
            w = "core not a sympartition" if exc.__cause__ else "invalid witness"
        yield a, c, lo[move.k2 - 2] != lo[move.k2 - 1], w


def per_pair_suite(max_n, b_list):
    """suite_witness's (ok, detail) from the per-pair loop: one witness checked per member pair."""
    checked = 0
    for n, b in product(range(max_n + 1), b_list):
        families = family_table(n, b).families
        entries = {m: fam.kappa.entries for fam in families for m in fam.members}
        for fam in families:
            dual = verify._dual(fam.kappa.entries, b, n)
            for m in fam.members:
                if entries[m.transpose()] != dual:
                    return False, f"kappa duality fails at {m.text()} (n={n}, b={b})"
        for low, high in covers(n, b):
            for a, c, plain, w in per_pair_witnesses(low, high, b):
                if isinstance(w, str):
                    return False, f"{w} for {a.text()} -> {c.text()}"
                if w.transposed == plain:
                    return False, f"wrong case for {a.text()} -> {c.text()} b={b}"
                checked += 1
    return True, f"{checked} witnesses checked"


def test_suite_witness_builds_once_per_distinct_input(monkeypatch):
    # the distinct input is the cover: _witness runs once per cover, on the
    # table's kappas and the move read off them, and checks its witness
    # once; every member pair is still counted
    b_list = tuple(range(7))
    expected, pairs = [], 0
    for n, b in product(range(6), b_list):
        for low, high in covers(n, b):
            lo, hi = low.kappa.entries, high.kappa.entries
            expected.append((lo, hi, b, _single_move(lo, hi)))
            pairs += len(low.members) * len(high.members)
    calls, checks = [], []
    build, holds = verify._witness, preorder._witness_holds

    def counted_holds(*args):
        checks.append(args)
        return holds(*args)

    def counted(lo, hi, b, move):
        calls.append((lo, hi, b, move))
        return build(lo, hi, b, move)

    monkeypatch.setattr(preorder, "_witness_holds", counted_holds)
    monkeypatch.setattr(verify, "_witness", counted)
    assert verify.suite_witness(5, b_list) == (True, f"{pairs} witnesses checked")
    assert calls == expected
    assert len(set(calls)) == len(checks) == len(calls) < pairs


def test_suite_witness_matches_the_per_pair_loop():
    # every member pair of every cover with n <= 7 and b <= n + 1
    for n in range(8):
        b_list = tuple(range(n + 2))
        assert verify.suite_witness(n, b_list) == per_pair_suite(n, b_list), n


WITNESS_FAULTS = [case for case in SEEDED_FAULTS if case[2] is verify.suite_witness]


@pytest.mark.parametrize(
    "name, wrong, suite, max_n, b_list, detail",
    WITNESS_FAULTS,
    ids=[SEEDED_IDS[SEEDED_FAULTS.index(case)] for case in WITNESS_FAULTS],
)
def test_suite_witness_matches_the_per_pair_loop_under_each_fault(
    monkeypatch, name, wrong, suite, max_n, b_list, detail
):
    # the first counterexample is the per-pair loop's first, a cover's first member pair
    monkeypatch.setattr(f"bsymbols.{name}", wrong)
    assert suite(max_n, b_list) == per_pair_suite(max_n, b_list) == (False, detail)


def test_suite_witness_reads_kappas_from_the_table(monkeypatch):
    # the members' and their transposes' kappas come from the family table;
    # only _witness computes kappas, through its own module's names
    def no_kappa(*args):
        raise AssertionError(f"kappa{args} outside _witness")

    for n, b in product(range(7), range(8)):
        family_table(n, b)  # built before kappa is patched
    monkeypatch.setattr(verify, "kappa", no_kappa)
    assert verify.suite_witness(6, tuple(range(8)))[0] is True


def window_escapes_by_moving(lo, hi, i, j):
    """The frame suite's window loop before prefix sums: up and two dominance tests per move."""
    for k1 in range(i, j + 1):
        for k2 in range(k1 + 1, j + 1):
            try:
                moved = up(lo, BoxMove(k1, k2))
            except NotAPartition:
                continue
            if not (dominance_lt(lo, moved) and dominance_leq(moved, hi)):
                yield k1, k2


def test_window_escapes_match_moving_loop():
    # every cover with n <= 7 and b <= n + 1, on the frame window, where
    # nothing escapes, and on the whole vector, where the moves outside the
    # frame do
    escapes = 0
    for n in range(8):
        for b in range(n + 2):
            for low, high in covers(n, b):
                lo, hi = low.kappa.entries, high.kappa.entries
                fr = frame(low.kappa, high.kappa)
                for i, j in ((fr.i, fr.j), (1, len(lo))):
                    got = list(verify._window_escapes(lo, hi, i, j))
                    assert got == list(window_escapes_by_moving(lo, hi, i, j)), (lo, hi, i, j)
                    escapes += len(got)
    assert escapes == 110364


def a_monotone_by_pairs(max_n, b_list):
    """The a-monotonicity suite before one AND per row: each comparable pair in turn."""
    checked = 0
    for n, b in product(range(max_n + 1), b_list):
        fams = verify.family_table(n, b).families
        for i, above in enumerate(_poset(n, b).above):
            for j in iter_bits(above):
                if fams[i].a < fams[j].a:
                    return False, (
                        f"a increases along dominance: {fams[i].kappa.entries} -> "
                        f"{fams[j].kappa.entries} (n={n}, b={b})"
                    )
                checked += 1
    return True, f"{checked} comparable pairs checked"


def test_a_monotone_matches_pairwise_loop(monkeypatch):
    assert verify.suite_a_monotone(6, tuple(range(8))) == a_monotone_by_pairs(6, range(8))
    # one family's a-value moved below or above every other one, in turn:
    # the same first counterexample, or the same count when none breaks
    table = family_table(4, 1)
    failures = 0
    for k, a in product(range(len(table.families)), (-1, 100)):
        fams = list(table.families)
        fams[k] = fams[k]._replace(a=a)
        wrong = table._replace(families=tuple(fams))
        monkeypatch.setattr(
            verify, "family_table", lambda n, b: wrong if (n, b) == (4, 1) else family_table(n, b)
        )
        got = verify.suite_a_monotone(4, (0, 1, 2))
        assert got == a_monotone_by_pairs(4, (0, 1, 2)), (k, a)
        failures += not got[0]
    assert failures > len(table.families)


def test_rejected_core_is_a_verify_failure(capsys, monkeypatch):
    # a core the witness builder rejects (here its first at b = 1) is a
    # counterexample of the suite, reported with exit 1, not an internal error
    monkeypatch.setattr(preorder, "from_sympartition", preimage_rejects((1, 0, 0), 1, 1, 0))
    code = cli.main(["verify", "--max-n", "2", "--b-list", "1"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 1
    assert "FAIL witness-soundness: core not a sympartition for -|1 -> 1|-" in lines
    assert lines[-1] == "FAILED"
    assert "Traceback" not in captured.err


PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"


@pytest.mark.parametrize(
    "argv",
    [
        "verify --max-n 6 --b-list 0,1,2,3 --oracle",  # the README command
        "verify --max-n 5 --b-list 0,4,5 --oracle",  # the oracle's closure adds pairs at (5, 4)
        "verify --max-n 7 --b-list 0,3,6",
    ],
)
def test_verify_stdout_matches_pin(capsys, argv):
    pins = json.loads(PINS.read_text())["pools"]["verify"]
    pin = next(q for q in pins if q["argv"] == argv.split())
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (pin["rc"], pin["sha256"])
