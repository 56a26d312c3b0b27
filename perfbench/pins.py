"""Build the query pool and pin every query's exit code and stdout.

    python3 perfbench/pins.py

writes perfbench/pins.json. Run it only when the pool itself has to change:
the pins are the reference every later run is checked against, so they are
taken once, from the commit the benchmark was defined on, and checked there
against the independent induction oracle (`preceq_oracle`) for n <= 10:
every `compare` status must match the oracle relation, and every step of
every `chain` must be related by it.
"""

from __future__ import annotations

import itertools
import json
import platform
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import measure
import workloads

sys.path.insert(0, str(measure.SRC))

from bsymbols import (  # noqa: E402
    Bipartition,
    dominance_leq,
    family_hasse,
    family_table,
    min_admissible,
    preceq_oracle,
)

POOL_SEED = 20131308
README_VERIFY = ["verify", "--max-n", "6", "--b-list", "0,1,2,3", "--oracle"]
# ROADMAP item 4: each of these must exit 2 with a one-line message
CONTRACT_PROBE = [
    ("cli-point", ["kappa", "1|2", "--b", "-1"]),
    ("cli-point", ["families", "--n", "-1", "--b", "1"]),
    ("cli-point", ["families", "--n", "3", "--b", "-2"]),
    ("cli-verify", ["verify", "--b-list", ""]),
]


def argv(cmd: str, *positional: str, **opts) -> list[str]:
    """Options first, then the bipartitions behind `--`, as `bsymbols` itself reorders them."""
    out = [cmd]
    for key, value in opts.items():
        if value is True:
            out.append(f"--{key.replace('_', '-')}")
        elif value is not None:
            out += [f"--{key.replace('_', '-')}", str(value)]
    return out + (["--", *positional] if positional else [])


def rand_partition(rng: random.Random, k: int) -> list[int]:
    parts = []
    while k:
        p = rng.randint(1, k)
        parts.append(p)
        k -= p
    return sorted(parts, reverse=True)


def text(parts: list[int]) -> str:
    return ",".join(map(str, parts)) or "-"


def rand_bipartition(rng: random.Random, n: int) -> str:
    k = rng.randint(0, n)
    return f"{text(rand_partition(rng, k))}|{text(rand_partition(rng, n - k))}"


def weights(n: int) -> list[int]:
    return sorted({0, 1, 2, n, n + 3})


def point_pool(rng: random.Random) -> list[dict]:
    pool = []
    for kind, count in (("kappa", 120), ("symbol", 100), ("compare", 120)):
        for _ in range(count):
            n = rng.randint(1, 40)
            b = rng.choice(weights(n))
            x = rand_bipartition(rng, n)
            if kind == "compare":
                q = argv(kind, x, rand_bipartition(rng, n), b=b)
            else:
                least = min_admissible(Bipartition.parse(x))
                N = least + rng.randint(0, 3) if rng.random() < 0.4 else None
                fmt = "json" if rng.random() < 0.2 else None
                q = argv(kind, x, b=b, N=N, format=fmt)
            pool.append({"argv": q, "kind": kind, "n": n, "b": b})
    return pool


def table_pool() -> list[dict]:
    pool = []
    for n in workloads.TABLE_NS:
        for b in weights(n):
            for fmt in (None, "json"):
                q = argv("families", n=n, b=b, format=fmt)
                pool.append({"argv": q, "kind": "families", "n": n, "b": b})
            pool.append({"argv": argv("avalues", n=n, b=b), "kind": "avalues", "n": n, "b": b})
    return pool


def bad_pool(rng: random.Random) -> list[dict]:
    """Bad inputs, each with the exit code the CLI documents for it."""
    pool = []
    for _ in range(40):
        n = rng.randint(2, 20)
        x = rand_bipartition(rng, n)
        first, second = x.split("|")
        shape = rng.randrange(7)
        kind = rng.choice(["kappa", "symbol"])
        if shape == 0:
            q, rc = argv(kind, f"{first}|x", b=1), 2
        elif shape == 1:
            q, rc = argv(kind, f"1,2|{second}", b=1), 2
        elif shape == 2:
            q, rc = argv(kind, f"{first}|{second}|1", b=2), 2
        elif shape == 3:
            q, rc = argv(kind, x), 2  # --b is required
        elif shape == 4:
            q, rc = argv("families", n="x", b=1), 2
        elif shape == 5:
            big = f"{text(rand_partition(rng, n))},1,1|1,1"
            least = min_admissible(Bipartition.parse(big))
            q, rc = argv(kind, big, b=rng.choice([0, 1, n]), N=rng.randint(0, least - 1)), 3
        else:
            q, rc = argv("compare", x, rand_bipartition(rng, n + 1), b=rng.choice([0, 1, 2])), 4
        pool.append({"argv": q, "kind": "bad", "expect": rc})
    return pool


def chain_pool(rng: random.Random) -> list[dict]:
    pool = []
    for n, b in workloads.POSET_CELLS:
        fams = family_table(n, b).families
        pairs = set()
        while len(pairs) < 8:
            lo = rng.randrange(len(fams))
            ups = [
                j
                for j in range(len(fams))
                if j != lo and dominance_leq(fams[lo].kappa.entries, fams[j].kappa.entries)
            ]
            if ups:
                hi = rng.choice(ups)
                a, c = rng.choice(fams[lo].members), rng.choice(fams[hi].members)
                pairs.add((a.text(), c.text()))
        for a, c in sorted(pairs):
            pool.append({"argv": argv("chain", a, c, b=b), "kind": "chain", "n": n, "b": b})
    return pool


# (oracle, max-n, number of weights): a pass sends one variant of each
VERIFY_STRATA = [
    (True, 4, 4),
    (True, 5, 3),
    (True, 6, 2),
    (True, 6, 3),
    (False, 3, 2),
    (False, 5, 2),
    (False, 6, 3),
    (False, 7, 2),
    (False, 7, 3),
]


def verify_pool(rng: random.Random) -> list[dict]:
    """Variants of one stratum share the sum of their weights, so they cost about the same."""
    pool = [{"argv": README_VERIFY, "kind": "verify", "group": "readme"}]
    for oracle, max_n, size in VERIFY_STRATA:
        lists = [c for c in itertools.combinations(range(7), size) if sum(c) == 3 * size]
        group = f"{'oracle' if oracle else 'plain'}-{max_n}-{size}"
        for b_list in sorted(",".join(map(str, c)) for c in rng.sample(lists, min(4, len(lists)))):
            q = argv("verify", max_n=max_n, b_list=b_list, oracle=oracle or None)
            pool.append({"argv": q, "kind": "verify", "group": group})
    return pool


def pin(entries: list[dict]) -> None:
    def one(entry: dict) -> None:
        res = measure.run_cli(entry["argv"], timeout_s=600)
        if measure.judge(res.rc, res.stdout, res.stderr, res.timed_out, {"rc": res.rc}):
            raise SystemExit(f"cannot pin {entry['argv']}: {res.stderr.decode()[-400:]}")
        expect = entry.pop("expect", 0)
        if res.rc != expect:
            raise SystemExit(f"{entry['argv']} exited {res.rc}, the CLI documents {expect}")
        entry.update(rc=res.rc, sha256=measure.sha256(res.stdout), stdout=res.stdout.decode())

    with ThreadPoolExecutor(2) as pool:
        list(pool.map(one, entries))


def cross_check(pools: dict) -> int:
    """Check compare statuses and chain steps against the induction oracle."""
    oracles: dict[tuple[int, int], object] = {}

    def holds(x: str, y: str, b: int) -> bool:
        a, c = Bipartition.parse(x), Bipartition.parse(y)
        key = (a.rank, b)
        if key not in oracles:
            oracles[key] = preceq_oracle(*key)
        return oracles[key].holds(a, c)

    checked = 0
    for q in pools["point"]:
        if q["kind"] != "compare" or q["n"] > 10:
            continue
        x, y = q["argv"][-2:]
        up, down = holds(x, y, q["b"]), holds(y, x, q["b"])
        want = {(1, 1): "EQ", (1, 0): "LEQ", (0, 1): "GEQ", (0, 0): "INCOMPARABLE"}[up, down]
        if q["stdout"].splitlines()[0] != want:
            raise SystemExit(f"{q['argv']}: CLI says {q['stdout'].splitlines()[0]}, oracle {want}")
        checked += 1
    for q in pools["chain"]:
        if q["n"] > 10:
            continue
        steps = [line.split("\t")[0] for line in q["stdout"].splitlines()]
        if steps[0] != q["argv"][-2] or steps[-1] != q["argv"][-1]:
            raise SystemExit(f"{q['argv']}: chain does not run between its inputs")
        for x, y in zip(steps, steps[1:]):
            if not holds(x, y, q["b"]):
                raise SystemExit(f"{q['argv']}: oracle does not relate {x} -> {y}")
            checked += 1
    return checked


def main() -> None:
    rng = random.Random(POOL_SEED)
    pools = {
        "point": point_pool(rng),
        "table": table_pool(),
        "bad": bad_pool(rng),
        "chain": chain_pool(rng),
        "hasse": [
            {"argv": argv("hasse", n=n, b=b), "kind": "hasse", "n": n, "b": b}
            for n, b in workloads.POSET_CELLS
        ],
        "verify": verify_pool(rng),
    }
    for name, entries in pools.items():
        print(f"pinning {len(entries)} {name} queries", file=sys.stderr, flush=True)
        pin(entries)
    checked = cross_check(pools)
    for entries in pools.values():
        for entry in entries:
            del entry["stdout"]
    cells = {}
    for n, b in workloads.POSET_CELLS:
        table = family_table(n, b)
        cells[f"{n},{b}"] = {"m": len(table.families), "covers": len(family_hasse(table).edges)}
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=measure.ROOT
    ).stdout.strip()
    doc = {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "pool_seed": POOL_SEED,
        "oracle_checks": checked,
        "cells": cells,
        "probe": [{"workload": w, "argv": q, "rc": 2} for w, q in CONTRACT_PROBE],
        "pools": pools,
    }
    # one entry per line keeps the file readable and its diffs small
    lines = [f' "{key}": {json.dumps(value)}' for key, value in doc.items() if key != "pools"]
    lines.append(' "pools": {\n' + ",\n".join(
        f'  "{name}": [\n' + ",\n".join("   " + json.dumps(e) for e in entries) + "\n  ]"
        for name, entries in pools.items()
    ) + "\n }")
    workloads.PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {workloads.PINS} ({checked} oracle checks)", file=sys.stderr)


if __name__ == "__main__":
    main()
