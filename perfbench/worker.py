"""In-process execution: the lib-sweep workload and the traced runs.

Reads the JSON job named by its argument and prints one JSON result line
on stdout. It runs in its own interpreter, started by run.py with the
checkout's `src` on PYTHONPATH, so its resident set is the program's plus
a query list.

Two ways to answer a query:
- "lib": the query's command function, called with arguments parsed before
  the clock starts: the public calls the CLI makes, with no process start
  and no argument parsing;
- "cli": `bsymbols.cli.main(argv)`, with every cache cleared before the
  query, so each query is as cold as a fresh `bsymbols` process.
"""

from __future__ import annotations

import io
import json
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import measure
import tracer as tracing

from bsymbols import cli, family_hasse, family_table


def prepare(argv: list[str], style: str):
    if style == "lib":
        ns = cli.build_parser().parse_args(argv)
        return lambda: ns.func(ns)
    return lambda: cli.main(list(argv))


def execute(call, wrap=None) -> tuple[int, bytes, bytes, float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = wrap(call) if wrap else call()
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:
            rc = 1
            traceback.print_exc()
        wall = perf_counter() - start
    return (0 if rc is None else rc), out.getvalue().encode(), err.getvalue().encode(), wall


CALIBRATE_EVERY_S = 0.1


def run_pass(prepared, queries, failures, caches=None, wrap=None, calibrate=False):
    """One pass over the queries: (wall times, scaled wall times, seconds taken).

    Caches are cleared before each query when given. When `calibrate` is
    set, the machine speed is measured between queries at most every
    CALIBRATE_EVERY_S, and a query is scaled by the two measurements around
    it; otherwise the scaled times are the wall times.
    """
    walls, scaled, pending = [], [], []
    start = perf_counter()
    before, measured = (measure.speed() if calibrate else 1.0), perf_counter()
    for i, (q, call) in enumerate(zip(queries, prepared)):
        if caches is not None:
            tracing.clear_caches(caches)
        rc, out, err, wall = execute(call, wrap and (lambda c, i=i, k=q["kind"]: wrap(i, k, c)))
        why = measure.judge(rc, out, err, False, q)
        if why:
            failures.append({"argv": q["argv"], "why": why})
        walls.append(wall)
        pending.append(wall)
        last = i == len(queries) - 1
        if not calibrate or last or perf_counter() - measured >= CALIBRATE_EVERY_S:
            after, measured = (measure.speed() if calibrate else 1.0), perf_counter()
            scaled += [measure.scaled(w, before, after) for w in pending]
            pending, before = [], after
    return walls, scaled, perf_counter() - start


def lib_sweep(job: dict) -> dict:
    queries = job["queries"]
    prepared = [prepare(q["argv"], "lib") for q in queries]
    samples, raw, pass_s, failures = [], [], [], []
    started = perf_counter()
    while True:
        walls, scaled, took = run_pass(prepared, queries, failures, calibrate=True)
        samples.append(scaled)
        raw.append(walls)
        pass_s.append(took)
        elapsed = perf_counter() - started
        if elapsed > job["deadline_s"]:
            break
        if len(samples) >= job["min_passes"] and not measure.another_pass(
            elapsed, took, job["seconds"]
        ):
            break
    return {"samples": samples, "raw": raw, "pass_s": pass_s, "failures": failures}


PAIR_MARGIN_S = 20.0  # stop pairing this long before the deadline


def traced_run(job: dict) -> dict:
    """The layer figures of one traced pass, and what the tracing costs.

    One query of each kind runs first, untimed, so that first-use costs
    such as lazy imports fall outside the timed passes. Then one traced
    pass, from cold caches, gives the layer figures. Then each query runs
    once more untraced and once more traced, back to back and in
    alternating order, so that a drift of the machine's speed cancels out
    of each difference. The overhead is the mean difference times the
    number of queries: what tracing adds to one pass. Pairing stops early
    when the job's deadline comes near.
    """
    queries, style = job["queries"], job["style"]
    prepared = [prepare(q["argv"], style) for q in queries]
    caches = tracing.lru_caches()
    per_query = caches if style == "cli" else None
    failures: list[dict] = []
    started = perf_counter()

    first = {q["kind"]: i for i, q in reversed(list(enumerate(queries)))}
    tracing.clear_caches(caches)
    run_pass([prepared[i] for i in first.values()], [queries[i] for i in first.values()], failures)

    tracing.clear_caches(caches)
    tr = tracing.Tracer(caches)
    tr.install()
    try:
        traced_s = run_pass(prepared, queries, failures, per_query, wrap=tr.query)[2]
    finally:
        tr.uninstall()
    sizes = tracing.currsizes(caches)

    paired = tracing.Tracer(caches)
    diffs = []
    for i, (q, call) in enumerate(zip(queries, prepared)):
        if perf_counter() - started > job["deadline_s"] - PAIR_MARGIN_S:
            break
        wall = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                paired.install()
            try:
                wrap = paired.query if traced else None
                wall[traced] = run_pass([call], [q], failures, per_query, wrap)[0][0]
            finally:
                paired.uninstall()
        diffs.append(wall[True] - wall[False])
    tr.write_spans(job["spans_path"])
    covers = {}
    for n, b in sorted(set(tr.built)):
        pinned = job["cells"].get(f"{n},{b}")
        covers[f"{n},{b}"] = (
            pinned["covers"] if pinned else len(family_hasse(family_table(n, b)).edges)
        )
    return {
        "attempted": len(first) + len(queries) + 2 * len(diffs),
        "failures": failures,
        "traced_s": traced_s,
        "pairs": len(diffs),
        "overhead_s": statistics.fmean(diffs) * len(queries) if diffs else 0.0,
        # the standard error of that estimate: how far from 0 it must be to mean anything
        "overhead_se_s": (
            statistics.stdev(diffs) / len(diffs) ** 0.5 * len(queries) if len(diffs) > 1 else None
        ),
        "calls": dict(tr.calls),
        "self_s": dict(tr.self_s),
        "counts": dict(tr.counts),
        "checks": dict(tr.checks),
        "covers": sum(covers[f"{n},{b}"] for n, b in tr.built),
        "cache_currsize": sizes,
        "spans": len(tr.spans),
    }


def main() -> None:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    result = lib_sweep(job) if job["mode"] == "lib" else traced_run(job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
