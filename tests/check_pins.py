"""Run every pinned query of perfbench/pins.json and fail on any mismatch.

Each query is one `bsymbols` process on this checkout's sources, started and
judged as the benchmark does it (perfbench/measure.py `run_cli` and
`judge`): the exit code and the sha256 of stdout must match the pin, with
no traceback and no timeout. The name keeps pytest from collecting it.

Usage: python tests/check_pins.py
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import measure  # noqa: E402
import workloads  # noqa: E402

TIMEOUT_S = 120.0
WORKERS = min(4, len(os.sched_getaffinity(0)))  # each query is its own process


def verdict(pin: dict) -> str | None:
    r = measure.run_cli(pin["argv"], TIMEOUT_S)
    return measure.judge(r.rc, r.stdout, r.stderr, r.timed_out, pin)


def main() -> int:
    pins = [pin for pool in workloads.load_pins()["pools"].values() for pin in pool]
    with ThreadPoolExecutor(WORKERS) as pool:
        verdicts = list(pool.map(verdict, pins))
    failed = [(pin, why) for pin, why in zip(pins, verdicts) if why is not None]
    for pin, why in failed:
        print(f"FAIL bsymbols {' '.join(pin['argv'])}: {why}")
    print(f"{len(pins) - len(failed)} of {len(pins)} pinned queries match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
