"""Run every workload on several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/results/BENCH_<label>.json

Each run is `perfbench/run.py` with the workloads and the run length from
BENCHMARK.json; the seeds are interleaved across the workloads so that a
slow spell of the machine does not land on one workload only. For every
end-to-end metric it prints the median, the quartiles and their distance as
a share of the median, next to the bound BENCHMARK.json allows and to the
spread of the same metric from raw wall times. Then it makes one traced run
per workload on the first seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import measure

SPEC = measure.ROOT / "BENCHMARK.json"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=measure.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.splitlines()[-1])
    saved = measure.ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    line["detail"] = json.loads(saved.read_text())["detail"]
    return line


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds(args.seeds):
        for workload in names:
            runs[workload].append(run(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        print(f"{workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = spread(values)
            raw = [r["detail"]["raw"][name] for r in results if name in r["detail"]["raw"]]
            summary[workload][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": share,
                "values": values,
            }
            if raw:
                summary[workload][name]["raw_wall_spread"] = spread(raw)
                summary[workload][name]["raw_wall_values"] = raw
            flag = "" if share < bound / 3 else "  <-- spread above a third of the bound"
            print(
                f"  {name:<16} median {statistics.median(values):<12.6g} q1 {q1:<12.6g}"
                f" q3 {q3:<12.6g} spread {share:6.3f} (bound {bound})"
                + (f" raw wall {spread(raw):6.3f}" if raw else "")
                + flag
            )
        summary[workload]["runs"] = [
            {
                "seed": seed,
                "passes": r["detail"]["passes"],
                "latency": r["detail"]["latency"],
                "failed_frac": r["detail"]["failed_frac"],
                "contract_failures": r["detail"]["contract_failures"],
            }
            for seed, r in zip(seeds(args.seeds), results)
        ]
    first = seeds(args.seeds)[0]
    traced = {w: run(w, first, spec["run_seconds"], 1)["metrics"] for w in names}
    if args.out:
        doc = {
            "meta": {
                "commit": subprocess.run(
                    ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=measure.ROOT
                ).stdout.strip(),
                "python": sys.version.split()[0],
                "nproc": os.cpu_count(),
                "seeds": seeds(args.seeds),
                "run_seconds": spec["run_seconds"],
            },
            "end_to_end": summary,
            "per_layer": traced,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
