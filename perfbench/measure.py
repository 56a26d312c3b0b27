"""Process timing, output checks and the summary statistics of a run.

Every CLI query is one interpreter process started the way the `bsymbols`
console script starts it. Its wall time runs from just before the spawn to
the moment the process has been reaped, and its resident-set peak comes
from the rusage that `os.wait4` returns for it.

Times are scaled to a reference machine speed. On a shared host the speed
of a core drifts by 20 to 30% over minutes, the same way for every
workload, and a run of tens of seconds does not average that out. So a run
keeps itself and every process it starts on one core (`pin_to_one_cpu`) and
times a fixed pure-Python loop on that core before and after every timed
operation. The operation's wall time is divided by the mean of the two
speeds, each the loop's time over REF_LOOP_S. On a machine where the loop
takes REF_LOOP_S the scaled time is the wall time; the raw wall times are
kept as well.
"""

from __future__ import annotations

import hashlib
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# what the `bsymbols` console script runs (see [project.scripts])
ENTRY = "import sys; from bsymbols.cli import main; sys.exit(main())"
IMPORT_PROBE = "import bsymbols.cli"
REF_LOOP_S = 0.0015  # the calibration loop on an unloaded core of the reference host


def _loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - start


def speed() -> float:
    """How slow the machine is right now, relative to the reference (1.0)."""
    return min(_loop() for _ in range(3)) / REF_LOOP_S


def scaled(wall_s: float, before: float, after: float) -> float:
    """wall_s over the mean of the machine speeds measured before and after it."""
    return wall_s * 2 / (before + after)


def pin_to_one_cpu() -> int:
    """Keep this process, and every process it starts, on one core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def program_env() -> dict[str, str]:
    """Environment for program processes: the checkout's own sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class ProcResult:
    rc: int | None  # None when the process was killed at its deadline
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int
    timed_out: bool


def run_process(cmd: list[str], timeout_s: float, env: dict[str, str] | None = None) -> ProcResult:
    """Run cmd to completion or to its deadline; always reap it."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in (proc.stdout, proc.stderr):
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = start + timeout_s - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # keeps Popen from reaping again
    return ProcResult(
        None if timed_out else proc.returncode,
        b"".join(chunks[out_fd]),
        b"".join(chunks[err_fd]),
        wall,
        usage.ru_maxrss,
        timed_out,
    )


def run_cli(argv: list[str], timeout_s: float) -> ProcResult:
    cmd = [sys.executable, "-c", ENTRY, *argv]
    return run_process(cmd, timeout_s, program_env())


def judge(rc: int | None, stdout: bytes, stderr: bytes, timed_out: bool, pin: dict) -> str | None:
    """Why a query failed against its pinned result, or None when it passed."""
    if timed_out:
        return "timeout"
    if b"Traceback (most recent call last)" in stderr:
        return "traceback"
    if rc != pin["rc"]:
        return f"exit {rc}, expected {pin['rc']}"
    if "sha256" in pin and sha256(stdout) != pin["sha256"]:
        return "stdout differs from the pinned output"
    return None


def tail_rank(count: int) -> tuple[int, float]:
    """1-based rank and percentile of the tail reported for `count` samples.

    The tail is the highest nearest-rank percentile with at least ten
    samples above it: rank count - 10, percentile 100 * (count - 10) / count.
    """
    if count < 11:
        raise ValueError(f"{count} samples leave no percentile with ten samples beyond it")
    rank = count - 10
    return rank, 100.0 * rank / count


def latency_summary(values: list[float]) -> dict:
    """Median and tail of per-query latencies, with the sample count.

    A run cut short by its deadline can leave fewer than 11 samples; its
    tail is then the maximum.
    """
    ordered = sorted(values)
    rank, pct = tail_rank(len(ordered)) if len(ordered) > 10 else (len(ordered), 100.0)
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1],
        "tail_percentile": round(pct, 2),
        "samples": len(ordered),
    }


def per_query_medians(samples: list[list[float]]) -> list[float]:
    """Median over the passes of each query (samples[pass][query])."""
    return [statistics.median(column) for column in zip(*samples)]


def another_pass(elapsed_s: float, last_pass_s: float, seconds: float) -> bool:
    """Whether one more pass brings the run's length closer to `seconds`."""
    return elapsed_s + last_pass_s / 2 <= seconds

