"""The benchmark's workloads: seeded query lists drawn from the pinned pool.

`pins.json` holds a fixed pool of queries, each with the exit code and the
sha256 of the stdout that the program gave when the pool was pinned (see
`pins.py`). A workload's seed chooses which pool queries a run sends and in
what order; the strata below are fixed, so every seed sends the same mix of
query kinds and (n, b) cells and only the concrete inputs change.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"

# the (n, b) cells of the rank-wide queries; (12, 12) is the worst case
POSET_CELLS = [(n, b) for n in (8, 10, 12) for b in sorted({0, 1, 2, n})]
TABLE_NS = range(4, 13)

WORKLOADS = ("cli-point", "cli-poset", "cli-verify", "lib-sweep")


def load_pins() -> dict:
    with PINS.open() as fh:
        return json.load(fh)


def _by(pool: list[dict], **match) -> list[dict]:
    return [q for q in pool if all(q[key] == v for key, v in match.items())]


def _point(rng: random.Random, pools: dict, counts: dict[str, int]) -> list[dict]:
    out = []
    for kind, k in counts.items():
        out += rng.sample(_by(pools["point"], kind=kind), k)
    return out


def queries(workload: str, seed: int, pins: dict) -> list[dict]:
    """The ordered query list one pass of `workload` sends for `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    pools = pins["pools"]
    if workload == "cli-point":
        out = _point(rng, pools, {"kappa": 20, "symbol": 14, "compare": 20})
        # a table query has no input but (n, b): a fixed cycle of b and of
        # the output format keeps the same cost mix in every seed
        for q in pools["table"]:
            b_class = (0, 1, 2, q["n"], q["n"] + 3)[q["n"] % 5]
            json_out = "--format" in q["argv"]
            if q["b"] == b_class and (q["kind"] == "avalues" or json_out == (q["n"] % 2 == 0)):
                out.append(q)
        out += rng.sample(pools["bad"], 8)
    elif workload == "cli-poset":
        out = []
        for n, b in POSET_CELLS:
            # one chain and no hasse at (12, 12): each costs 4 s or more,
            # and a few such queries would make most of a run's time
            out += rng.sample(_by(pools["chain"], n=n, b=b), 1 if b == n >= 10 else 2)
            if (n, b) != (12, 12):
                out += _by(pools["hasse"], n=n, b=b)
    elif workload == "cli-verify":
        groups = sorted({q["group"] for q in pools["verify"]} - {"readme"})
        out = _by(pools["verify"], group="readme") * 2
        for group in groups:
            out += rng.sample(_by(pools["verify"], group=group), 1)
    else:  # lib-sweep
        # every pinned chain, so the seed does not change the chain lengths
        # that the median falls among
        out = list(pools["chain"])
        for n, b in POSET_CELLS:
            # family_hasse is not cached, so each of these recomputes the
            # diagram; (12, 12) would take a quarter of the run on its own
            if (n, b) != (12, 12):
                out += _by(pools["hasse"], n=n, b=b) * (2 if n >= 10 or b == n else 1)
        out += _point(rng, pools, {"kappa": 10, "symbol": 8, "compare": 10})
        # fixed tables: each one stays in the cache, so a seed-drawn b
        # would change the resident set from seed to seed
        out += [
            q
            for q in pools["table"]
            if q["n"] >= 7
            and "--format" not in q["argv"]
            and q["b"] == (q["n"] if q["kind"] == "families" else 2)
        ]
    rng.shuffle(out)
    return out


def probe(workload: str, pins: dict) -> list[dict]:
    """Inputs that must keep the exit-code contract, run after the timed passes."""
    return [q for q in pins["probe"] if q["workload"] == workload]
