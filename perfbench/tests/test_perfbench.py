"""Tests of the benchmark itself: seeding, the failure checks, the tail rule."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import measure  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def pins():
    return workloads.load_pins()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queries(pins, workload):
    first = workloads.queries(workload, 7, pins)
    assert first == workloads.queries(workload, 7, pins)
    assert first != workloads.queries(workload, 8, pins)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_mix_does_not_depend_on_the_seed(pins, workload):
    def mix(seed):
        """Kinds and sizes a pass sends; the seed picks only the inputs."""
        out = []
        for q in workloads.queries(workload, seed, pins):
            if q["kind"] in ("families", "avalues"):
                out.append((q["kind"], q["n"]))
            elif q["kind"] in ("chain", "hasse"):
                out.append((q["kind"], q["n"], q["b"]))
            else:
                out.append((q["kind"], q.get("group")))
        return sorted(out)

    assert mix(1) == mix(2)
    assert len(workloads.queries(workload, 1, pins)) >= 11


def test_cli_poset_includes_the_worst_cell(pins):
    cells = {(q["n"], q["b"]) for q in workloads.queries("cli-poset", 3, pins)}
    assert (12, 12) in cells


def test_lib_sweep_sends_only_valid_queries(pins):
    assert all(q["rc"] == 0 for q in workloads.queries("lib-sweep", 3, pins))


def test_pinned_output_passes(pins):
    q = next(q for q in pins["pools"]["point"] if q["argv"][-1] == "-|12")
    res = measure.run_cli(q["argv"], timeout_s=60)
    assert measure.judge(res.rc, res.stdout, res.stderr, res.timed_out, q) is None


def test_corrupted_expected_output_fails(pins):
    q = dict(next(q for q in pins["pools"]["point"] if q["argv"][-1] == "-|12"))
    q["sha256"] = measure.sha256(b"something else\n")
    res = measure.run_cli(q["argv"], timeout_s=60)
    assert measure.judge(res.rc, res.stdout, res.stderr, res.timed_out, q) == (
        "stdout differs from the pinned output"
    )


def test_forced_timeout_fails():
    res = measure.run_process([sys.executable, "-c", "import time; time.sleep(30)"], 0.3)
    assert res.timed_out and res.rc is None and res.wall_s < 10
    assert measure.judge(res.rc, res.stdout, res.stderr, res.timed_out, {"rc": 0}) == "timeout"


def test_traceback_and_wrong_exit_code_fail():
    pin = {"rc": 2, "sha256": measure.sha256(b"")}
    assert measure.judge(1, b"", b"Traceback (most recent call last):\n", False, pin) == "traceback"
    assert measure.judge(1, b"", b"", False, pin) == "exit 1, expected 2"
    assert measure.judge(2, b"", b"parse error: x\n", False, pin) is None


@pytest.mark.parametrize(
    "count, rank, percentile",
    [(11, 1, 100 / 11), (20, 10, 50.0), (36, 26, 2600 / 36), (100, 90, 90.0), (1000, 990, 99.0)],
)
def test_tail_percentile_rule(count, rank, percentile):
    assert measure.tail_rank(count) == (rank, pytest.approx(percentile))
    values = [float(v) for v in range(count, 0, -1)]
    summary = measure.latency_summary(values)
    assert summary["tail"] == rank
    assert sum(v > summary["tail"] for v in values) == 10


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        measure.tail_rank(10)


def test_per_query_median_and_pass_rule():
    assert measure.per_query_medians([[1.0, 9.0], [3.0, 1.0], [2.0, 2.0]]) == [2.0, 2.0]
    assert measure.another_pass(elapsed_s=9.0, last_pass_s=9.0, seconds=20)
    assert not measure.another_pass(elapsed_s=19.0, last_pass_s=19.0, seconds=20)
