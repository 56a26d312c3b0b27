"""The bsymbols benchmark.

    python3 perfbench/run.py --workload cli-poset --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is the checkout's `src/`,
run by the interpreter that runs this script. One client sends one query at
a time and waits for it (closed loop). A run sends whole passes over the
seeded query list (see workloads.py) until one more pass would take it
further from --seconds; the latency of a query is the median of its passes.
Times are scaled to a reference machine speed (see measure.py).

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of an in-process traced pass and the tracing overhead. Either way
the last line of stdout is one JSON object; the lines before it are the
report, and the full result goes to .bench_out/. Every query's exit code
and stdout are checked against perfbench/pins.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import measure
import workloads
from tracer import CACHES, LAYERS

OUT = measure.ROOT / ".bench_out"
SETUP_PROBES = 31
QUERY_TIMEOUT_S = 60.0
DEADLINE_S = 150.0  # stop sending queries here, so a run ends well within 180 s
LIB_MIN_PASSES = 3  # pass 1 fills the caches; at least two warm passes follow
SUITES = (
    "partition-order-axioms",
    "transpose-anti-isomorphism",
    "raising-moves",
    "overlap-statistics",
    "kappa-is-sympartition",
    "a-value-stability",
    "sympartition-roundtrip",
    "family-partition",
    "dominance-stability",
    "asymptotic-singletons",
    "adjacency-single-move",
    "frame-prefix-suffix-sandwich",
    "double-break",
    "witness-soundness",
    "a-monotonicity",
    "truncated-a-shift",
    "typea-dominance",
    "preceq-matches-oracle",
)


def metadata(args: argparse.Namespace) -> dict:
    commit = None
    if (measure.ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=measure.ROOT
        ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(measure.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(measure.SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_s(code: str, count: int) -> dict[str, float]:
    """Median time of `count` interpreters running `code`, scaled and raw."""
    scaled, raw = [], []
    before = measure.speed()
    for _ in range(count):
        res = measure.run_process([sys.executable, "-c", code], 60, measure.program_env())
        if res.rc != 0:
            raise SystemExit(f"interpreter probe failed: {res.stderr.decode()[-400:]}")
        after = measure.speed()
        scaled.append(measure.scaled(res.wall_s, before, after))
        raw.append(res.wall_s)
        before = after
    return {"scaled": statistics.median(scaled), "raw": statistics.median(raw)}


def contract_probe(workload: str, pins: dict) -> list[dict]:
    """The exit-code contract inputs; reported, kept out of the timed queries."""
    out = []
    for q in workloads.probe(workload, pins):
        res = measure.run_cli(q["argv"], QUERY_TIMEOUT_S)
        why = measure.judge(res.rc, res.stdout, res.stderr, res.timed_out, q)
        out.append({"argv": q["argv"], "rc": res.rc, "failed": why})
    return out


def cli_passes(queries: list[dict], seconds: float, deadline: float) -> dict:
    samples, raw, pass_s, failures = [], [], [], []
    peak_kb = attempted = 0
    started = time.perf_counter()
    while True:
        times, walls = [], []
        begun = time.perf_counter()
        before = measure.speed()
        for q in queries:
            left = deadline - time.perf_counter()
            if left <= 0:
                failures.append({"argv": q["argv"], "why": "not sent: run deadline"})
                attempted += 1
                continue
            res = measure.run_cli(q["argv"], min(QUERY_TIMEOUT_S, left))
            after = measure.speed()
            attempted += 1
            why = measure.judge(res.rc, res.stdout, res.stderr, res.timed_out, q)
            if why:
                failures.append({"argv": q["argv"], "why": why})
            times.append(measure.scaled(res.wall_s, before, after))
            walls.append(res.wall_s)
            peak_kb = max(peak_kb, res.maxrss_kb)
            before = after
        pass_s.append(time.perf_counter() - begun)
        if len(times) < len(queries):
            if not samples:
                samples.append(times)
                raw.append(walls)
            break
        samples.append(times)
        raw.append(walls)
        if not measure.another_pass(time.perf_counter() - started, pass_s[-1], seconds):
            break
    return {
        "samples": samples,
        "raw": raw,
        "pass_s": pass_s,
        "failures": failures,
        "attempted": attempted,
        "peak_kb": peak_kb,
    }


def lib_passes(queries: list[dict], seconds: float, deadline: float) -> dict:
    job = {
        "mode": "lib",
        "queries": queries,
        "seconds": seconds,
        "min_passes": LIB_MIN_PASSES,
        "deadline_s": deadline - time.perf_counter(),
    }
    res = run_worker(job, deadline)
    result = json.loads(res.stdout.decode().splitlines()[-1])
    result["attempted"] = len(queries) * len(result["samples"])
    result["peak_kb"] = res.maxrss_kb
    # pass 1 fills the caches; the metrics describe the warm passes after it
    result["samples"] = result["samples"][1:]
    result["raw"] = result["raw"][1:]
    return result


def run_worker(job: dict, deadline: float) -> measure.ProcResult:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"job-{os.getpid()}.json"
    path.write_text(json.dumps(job))
    try:
        res = measure.run_process(
            [sys.executable, str(measure.ROOT / "perfbench" / "worker.py"), str(path)],
            max(1.0, deadline + 20 - time.perf_counter()),
            measure.program_env(),
        )
    finally:
        path.unlink()
    if res.rc != 0:
        raise SystemExit(f"worker failed ({res.rc}): {res.stderr.decode()[-2000:]}")
    return res


def end_to_end(args, queries: list[dict], setup: dict, deadline: float) -> tuple[dict, dict]:
    run = (lib_passes if args.workload == "lib-sweep" else cli_passes)(
        queries, args.seconds, deadline
    )

    def per_query(passes: list[list[float]]) -> list[float]:
        complete = [p for p in passes if len(p) == len(queries)]
        return measure.per_query_medians(complete) if complete else passes[0]

    latencies = per_query(run["samples"])
    lat = measure.latency_summary(latencies)
    raw_latencies = per_query(run["raw"])
    raw_busy = [sum(p) for p in run["raw"] if len(p) == len(queries)]
    busy = [sum(p) for p in run["samples"] if len(p) == len(queries)]
    qps = len(queries) * len(busy) / sum(busy) if busy else 0.0
    failed = len(run["failures"])
    metrics = {
        "setup_s": (setup["scaled"], "s"),
        "latency_p50_s": (lat["p50"], "s"),
        "latency_tail_s": (lat["tail"], "s"),
        "throughput_qps": (qps, "1/s"),
        "peak_rss_mb": (run["peak_kb"] / 1024, "MB"),
    }
    detail = {
        "passes": len(run["samples"]),
        "pass_s": run["pass_s"],
        "queries_per_pass": len(queries),
        "latency": lat,
        # the same figures from raw wall times, to show what the scaling does
        "raw": {
            "setup_s": setup["raw"],
            "latency_p50_s": statistics.median(raw_latencies),
            "latency_tail_s": measure.latency_summary(raw_latencies)["tail"],
            "throughput_qps": len(queries) * len(raw_busy) / sum(raw_busy) if raw_busy else 0.0,
        },
        "failed_frac": failed / run["attempted"],
        "attempted": run["attempted"],
        "failed": failed,
        "failures": run["failures"][:20],
        "per_query_s": [
            [q["kind"], q.get("n"), q.get("b"), t] for q, t in zip(queries, latencies)
        ],
    }
    return metrics, detail


def import_self_s() -> dict[str, float]:
    """Median self import time of each bsymbols module, from -X importtime."""
    runs: dict[str, list[float]] = {}
    for _ in range(3):
        res = measure.run_process(
            [sys.executable, "-X", "importtime", "-c", measure.IMPORT_PROBE],
            60,
            measure.program_env(),
        )
        for line in res.stderr.decode().splitlines():
            m = re.match(r"import time:\s+(\d+)\s*\|\s*\d+\s*\|\s*(\S+)", line)
            if m and m.group(2).startswith("bsymbols"):
                runs.setdefault(m.group(2), []).append(int(m.group(1)) / 1e6)
    return {mod: statistics.median(v) for mod, v in runs.items()}


def per_layer(args, queries: list[dict], pins: dict, deadline: float) -> tuple[dict, dict]:
    spawn = probe_s("pass", 5)
    imported = probe_s(measure.IMPORT_PROBE, 5)
    imports = import_self_s()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    job = {
        "mode": "trace",
        "style": "lib" if args.workload == "lib-sweep" else "cli",
        "queries": queries,
        "cells": pins["cells"],
        "spans_path": str(spans_path),
        "deadline_s": deadline - time.perf_counter(),
    }
    res = run_worker(job, deadline)
    tr = json.loads(res.stdout.decode().splitlines()[-1])
    # every CLI query is a process that imports each layer once
    processes = 1 if args.workload == "lib-sweep" else len(queries)
    metrics = {}
    for layer, (module, _) in LAYERS.items():
        metrics[f"{layer}.calls"] = (tr["calls"].get(layer, 0), "count")
        own = tr["self_s"].get(layer, 0.0) + processes * imports.get(module, 0.0)
        metrics[f"{layer}.self_s"] = (own, "s")
    metrics["cli.spawn_s"] = (spawn["scaled"], "s")
    metrics["cli.import_s"] = (imported["scaled"] - spawn["scaled"], "s")
    counts = tr["counts"]
    pairs = counts.get("adjacency.poset_pairs", 0)
    for key in (
        "families.families",
        "families.hasse_edges",
        "adjacency.poset_pairs",
        "adjacency.chain_steps",
        "preorder.witnesses",
        "preorder.oracle_rows",
    ):
        metrics[key] = (counts.get(key, 0), "count")
    metrics["adjacency.cover_ratio"] = (tr["covers"] / pairs if pairs else 0.0, "ratio")
    for name in CACHES:
        metrics[f"cache.{name}.currsize"] = (tr["cache_currsize"][name], "count")
    for suite in SUITES:
        metrics[f"verify.{suite}.checks"] = (tr["checks"].get(suite, 0), "count")
    metrics["trace.overhead_s"] = (tr["overhead_s"], "s")
    detail = {
        "attempted": tr["attempted"],
        "failed": len(tr["failures"]),
        "failures": tr["failures"][:20],
        "traced_s": tr["traced_s"],
        "overhead_pairs": tr["pairs"],
        "overhead_se_s": tr["overhead_se_s"],
        "cli_self_s": tr["self_s"].get("cli", 0.0),
        "verify_self_s": {k: v for k, v in tr["self_s"].items() if k.startswith("verify.")},
        "import_self_s": imports,
        "spans_kept": tr["spans"],
        "spans_path": str(spans_path.relative_to(measure.ROOT)),
    }
    return metrics, detail


def report(meta: dict, metrics: dict, detail: dict, probe: list[dict]) -> None:
    print(f"bsymbols benchmark: {json.dumps(meta)}")
    if "latency" in detail:
        lat = detail["latency"]
        print(
            f"{detail['queries_per_pass']} queries per pass, {detail['passes']} passes;"
            f" each query's latency is the median of its passes"
        )
        notes = {
            "setup_s": f"median of {SETUP_PROBES} interpreter starts importing bsymbols.cli",
            "latency_p50_s": f"median of {lat['samples']} queries",
            "latency_tail_s": f"p{lat['tail_percentile']} of {lat['samples']} queries",
        }
    else:
        notes = {}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    if "failed_frac" in detail:
        print(
            f"  {'failed_frac':<40} {detail['failed_frac']:>14.6g} {'1':<6}"
            f" {detail['failed']} of {detail['attempted']} queries"
        )
    if "traced_s" in detail:
        se = detail["overhead_se_s"]
        print(
            f"  traced pass {detail['traced_s']:.4f} s; overhead"
            f" {metrics['trace.overhead_s'][0]:.4f} s (standard error"
            f" {'n/a' if se is None else f'{se:.4f} s'}) per pass, from"
            f" {detail['overhead_pairs']} queries run untraced and traced back to back;"
            f" spans in {detail['spans_path']}"
        )
        for suite, own in sorted(detail["verify_self_s"].items()):
            print(f"  {suite + '.self_s':<40} {own:>14.6g} s")
    for f in detail["failures"]:
        print(f"  FAILED {f['why']}: {' '.join(f['argv'])}")
    if probe:
        bad = [p for p in probe if p["failed"]]
        print(f"  contract probe: {len(bad)} of {len(probe)} inputs break the exit-code contract")
        for p in bad:
            print(f"    {p['failed']}: bsymbols {' '.join(map(repr, p['argv']))}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    cpu = measure.pin_to_one_cpu()
    if not (measure.SRC / "bsymbols" / "cli.py").is_file():
        print(f"no program to measure: {measure.SRC}/bsymbols is missing", file=sys.stderr)
        return 2
    pins = workloads.load_pins()
    queries = workloads.queries(args.workload, args.seed, pins)
    deadline = started + DEADLINE_S
    meta = metadata(args)
    meta["cpu"] = cpu

    probe_s(measure.IMPORT_PROBE, 1)  # compiles the bytecode before anything is timed
    if args.trace:
        metrics, detail = per_layer(args, queries, pins, deadline)
    else:
        setup = probe_s(measure.IMPORT_PROBE, SETUP_PROBES)
        metrics, detail = end_to_end(args, queries, setup, deadline)
    probe = contract_probe(args.workload, pins)
    detail["contract_failures"] = sum(1 for p in probe if p["failed"])
    if args.trace:
        metrics["cli.contract_failures"] = (detail["contract_failures"], "count")

    report(meta, metrics, detail, probe)
    OUT.mkdir(exist_ok=True)
    result = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "contract_probe": probe,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    line = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
