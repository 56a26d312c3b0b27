"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every criterion carries the runtime budget it must meet.
"""

import gc
import time

from bsymbols import cli
from bsymbols import verify as V
from bsymbols.families import enumerate_bipartitions, family_table
from bsymbols.partitions import format_partition, size
from bsymbols.preorder import preceq, preceq_oracle
from bsymbols.symbols import Bipartition, f_stat, is_sympartition, kappa, symbol


def report(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.3f}s of {budget}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.3f}s)"


def cpu_timed(work):
    """work() and the CPU seconds of this process it took, with the collector paused.

    For the millisecond budgets: on a shared host, wall time over so short
    a window also counts the time the process waits to be scheduled, while
    its CPU time counts every instruction the work runs, allocation and
    page faults included.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        result = work()
        return result, time.process_time() - t0
    finally:
        gc.enable()


def test_criterion_01_worked_symbol_example():
    bp = Bipartition.parse("5,1|2,2,1")
    symbol(bp, 2, 3)  # warm up
    (s, k), elapsed = cpu_timed(lambda: (symbol(bp, 2, 3), kappa(bp, 2, 3)))
    ok = (
        s.row2 == (1, 3, 4)
        and s.row1 == (0, 1, 2, 4, 9)
        and k.entries == (9, 4, 4, 3, 2, 1, 1, 0)
        and size(k.entries) == f_stat(2, 3, 11) == 24
    )
    report("criterion-01 worked-symbol-example", ok, "rows, kappa and total match", elapsed, 0.001)


FIGURE_ROWS = {
    "1,1,1|-": ("0,1,2", "0,2,3,4", "4,3,2,2,1,0,0"),
    "2,1|-": ("0,1,2", "0,1,3,5", "5,3,2,1,1,0,0"),
    "3|-": ("0,1,2", "0,1,2,6", "6,2,2,1,1,0,0"),
    "-|1,1,1": ("1,2,3", "0,1,2,3", "3,3,2,2,1,1,0"),
    "-|2,1": ("0,2,4", "0,1,2,3", "4,3,2,2,1,0,0"),
    "-|3": ("0,1,5", "0,1,2,3", "5,3,2,1,1,0,0"),
    "1|1,1": ("0,2,3", "0,1,2,4", "4,3,2,2,1,0,0"),
    "1|2": ("0,1,4", "0,1,2,4", "4,4,2,1,1,0,0"),
    "1,1|1": ("0,1,3", "0,1,3,4", "4,3,3,1,1,0,0"),
    "2|1": ("0,1,3", "0,1,2,5", "5,3,2,1,1,0,0"),
}

FIGURE_FAMILIES = {
    frozenset({"1,1,1|-", "-|2,1", "1|1,1"}),
    frozenset({"2,1|-", "-|3", "2|1"}),
    frozenset({"3|-"}),
    frozenset({"-|1,1,1"}),
    frozenset({"1|2"}),
    frozenset({"1,1|1"}),
}


def figure_matches() -> bool:
    ok = len(enumerate_bipartitions(3)) == 10
    for bp in enumerate_bipartitions(3):
        s = symbol(bp, 1, 3)
        k = kappa(bp, 1, 3)
        got = (
            format_partition(s.row2),
            format_partition(s.row1),
            format_partition(k.entries),
        )
        ok = ok and got == FIGURE_ROWS[bp.text()]
    table = family_table(3, 1)
    fams = {frozenset(m.text() for m in f.members) for f in table.families}
    sizes = sorted(len(f.members) for f in table.families)
    return ok and fams == FIGURE_FAMILIES and sizes == [1, 1, 1, 1, 3, 3]


def test_criterion_02_figure_golden():
    ok, elapsed = cpu_timed(figure_matches)
    report("criterion-02 figure-golden", ok, "10 symbols, kappas and 6 families match", elapsed, 0.010)


def test_criterion_03_sympartition_characterization():
    t0 = time.perf_counter()
    p = (7, 4, 4, 3, 2, 1, 1, 0)
    ok = is_sympartition(p, 2, 3, 9) and is_sympartition(p, 4, 2, 6)
    for b in range(12):
        n = size(p) - f_stat(b, 1, 0)
        if n >= 0:
            ok = ok and not is_sympartition(p, b, 1, n)
    round_ok, detail = V.suite_roundtrip(0, ())
    ok = ok and round_ok
    elapsed = time.perf_counter() - t0
    report("criterion-03 sympartition-characterization", ok, detail, elapsed, 5.0)
    # a cheaper pass must not be a smaller one
    assert detail == "26128 sympartitions round-tripped", f"round trip changed scale: {detail}"


def test_criterion_04_adjacency_single_move():
    t0 = time.perf_counter()
    ok, detail = V.suite_single_move(8, (0, 1, 2, 3, 4))
    elapsed = time.perf_counter() - t0
    report("criterion-04 adjacency-single-move", ok, detail, elapsed, 60.0)


def test_criterion_05_frame_lemmas():
    t0 = time.perf_counter()
    ok, detail = V.suite_frame(8, (0, 1, 2, 3, 4))
    elapsed = time.perf_counter() - t0
    report("criterion-05 frame-lemmas", ok, detail, elapsed, 60.0)


def test_criterion_06_double_break():
    t0 = time.perf_counter()
    ok, detail = V.suite_double_break(8, (0, 1, 2, 3, 4))
    elapsed = time.perf_counter() - t0
    report("criterion-06 double-break", ok, detail, elapsed, 60.0)


def test_criterion_07_order_equivalence():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    checked = 0
    for n in range(7):
        for b in sorted({0, 1, 2, 3, n}):
            oracle = preceq_oracle(n, b)
            for a in oracle.bipartitions:
                for c in oracle.bipartitions:
                    checked += 1
                    if oracle.holds(a, c) != preceq(a, c, b):
                        ok = False
                        detail = f"disagreement at {a.text()} vs {c.text()} (n={n}, b={b})"
    if ok:
        detail = f"{checked} ordered pairs, zero disagreements"
    elapsed = time.perf_counter() - t0
    report("criterion-07 order-equivalence", ok, detail, elapsed, 120.0)


def test_criterion_08_witness_soundness():
    t0 = time.perf_counter()
    ok, detail = V.suite_witness(8, (0, 1, 2, 3, 4))
    elapsed = time.perf_counter() - t0
    report("criterion-08 witness-soundness", ok, detail, elapsed, 60.0)


def test_criterion_09_a_monotonicity_and_shift():
    t0 = time.perf_counter()
    ok1, d1 = V.suite_a_monotone(8, (0, 1, 2, 3, 4))
    ok2, d2 = V.suite_truncated_shift(8, (0, 1, 2, 3, 4))
    elapsed = time.perf_counter() - t0
    report("criterion-09 a-monotonicity", ok1 and ok2, f"{d1}; {d2}", elapsed, 30.0)


def test_criterion_10_asymptotic_singletons():
    t0 = time.perf_counter()
    ok, detail = V.suite_asymptotic(8, ())
    elapsed = time.perf_counter() - t0
    report("criterion-10 asymptotic-singletons", ok, detail, elapsed, 5.0)


def test_criterion_11_type_a():
    t0 = time.perf_counter()
    ok, detail = V.suite_typea(6, ())
    elapsed = time.perf_counter() - t0
    report("criterion-11 type-a", ok, detail, elapsed, 30.0)


def test_criterion_12_verify_determinism(capsys):
    t0 = time.perf_counter()
    argv = ["verify", "--max-n", "6", "--b-list", "0,1,2,3", "--oracle"]
    code1 = cli.main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli.main(list(argv))
    out2 = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    ok = code1 == 0 and code2 == 0 and out1 == out2 and out1.strip().endswith("OK")
    with capsys.disabled():
        report("criterion-12 verify-determinism", ok, "two runs byte-identical, exit 0", elapsed, 120.0)
