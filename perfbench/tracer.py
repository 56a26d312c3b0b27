"""Spans around the calls into each layer, recorded from outside the program.

The tracer swaps each layer's public functions, wherever a `bsymbols` module
holds a reference to them, for a wrapper that opens a span, and puts them
back afterwards; nothing under `src/` carries tracing code. A call that a
layer makes into itself (`kappa` calling `symbol`) stays inside the
caller's span, so `<layer>.calls` counts entries into the layer.

Self time is computed exactly as each span closes: its duration minus the
durations of its child spans. Spans are kept in memory and written out at
the end; spans shorter than KEEP_MIN_S are not kept (there are hundreds of
thousands of them in a `verify` run), but their time is already in the
self times and in their parent's child time.
"""

from __future__ import annotations

import functools
import re
import sys
from collections import Counter
from time import perf_counter

LAYERS = {
    "symbols": ("bsymbols.symbols", ("symbol", "kappa", "a_value", "from_sympartition")),
    "families": ("bsymbols.families", ("enumerate_bipartitions", "family_table", "family_hasse")),
    "adjacency": ("bsymbols.adjacency", ("is_adjacent", "saturated_chain", "adjacency_move")),
    "preorder": ("bsymbols.preorder", ("preceq", "witness_step", "preceq_oracle")),
    "typea": ("bsymbols.typea", ("preceq_typeA_oracle",)),
}
CACHES = (
    "partitions_of",
    "enumerate_bipartitions",
    "family_table",
    "_poset",
    "_kappas_at",
    "_oracle_rows",
    "_typea_rows",
)
KEEP_MIN_S = 5e-4


def bsymbols_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "bsymbols"]


def lru_caches() -> dict[str, object]:
    """Every functools cache in the package, by function name."""
    found = {}
    for mod in bsymbols_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)) and callable(
                getattr(value, "cache_clear", None)
            ):
                found[value.__name__] = value
    return found


def clear_caches(caches: dict[str, object]) -> None:
    for cache in caches.values():
        cache.cache_clear()


def currsizes(caches: dict[str, object]) -> dict[str, int]:
    return {
        name: caches[name].cache_info().currsize if name in caches else 0 for name in CACHES
    }


class Tracer:
    def __init__(self, caches: dict[str, object]):
        self.caches = caches
        self.t0 = perf_counter()
        self.stack: list[list] = []  # open spans: [layer, span id, child seconds]
        self.spans: list[tuple] = []  # (id, parent, query, name, start, end, self)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.checks: Counter = Counter()
        self.built: list[tuple[int, int]] = []  # ranks whose poset the adjacency layer built
        self.query_id = -1
        self._ids = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        stack = self.stack
        sid = self._ids
        self._ids += 1
        parent = stack[-1][1] if stack else None
        frame = [layer, sid, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            own = dur - frame[2]
            key = name if layer == "verify" else layer
            self.calls[key] += 1
            self.self_s[key] += own
            if stack:
                stack[-1][2] += dur
            if parent is None or dur >= KEEP_MIN_S:
                self.spans.append(
                    (sid, parent, self.query_id, name, start - self.t0, end - self.t0, own)
                )

    def query(self, query_id: int, kind: str, call):
        self.query_id = query_id
        return self.span("cli", f"query.{kind}", call)

    # -- installing the wrappers -------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for mod in bsymbols_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap(self, layer: str, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.stack and tracer.stack[-1][0] == layer:
                return fn(*args, **kwargs)
            done = hook(args) if hook else None
            result = tracer.span(layer, name, fn, *args, **kwargs)
            if done:
                done(result)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "family_table": self._count_tables,
            "family_hasse": lambda args: self._add("families.hasse_edges", lambda r: len(r.edges)),
            "saturated_chain": self._count_posets(lambda r: len(r) - 1),
            "is_adjacent": self._count_posets(),
            "adjacency_move": self._count_posets(),
            "witness_step": lambda args: self._add("preorder.witnesses", lambda r: 1),
            "preceq_oracle": lambda args: self._add(
                "preorder.oracle_rows", lambda r: len(r.bipartitions)
            ),
        }
        for layer, (modname, names) in LAYERS.items():
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name)
                self._replace(fn, self._wrap(layer, name, fn, hooks.get(name)))
        verify = sys.modules["bsymbols.verify"]
        for attr in ("SUITES", "ORACLE_SUITE"):
            value = getattr(verify, attr)
            suites = value if attr == "SUITES" else (value,)
            wrapped = tuple((n, self._wrap_suite(n, fn)) for n, fn in suites)
            self._saved.append((verify, attr, value))
            setattr(verify, attr, wrapped if attr == "SUITES" else wrapped[0])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- counts taken at the layer boundaries ------------------------------

    def _add(self, key: str, amount):
        return lambda result: self.counts.update({key: amount(result)})

    def _count_tables(self, args):
        table_cache = self.caches["family_table"]
        misses = table_cache.cache_info().misses

        def done(table):
            if table_cache.cache_info().misses > misses:
                self.counts["families.families"] += len(table.families)

        return done

    def _count_posets(self, steps=None):
        """Rank posets built by the adjacency layer: misses of its own caches."""
        own = [c for c in self.caches.values() if c.__module__ == "bsymbols.adjacency"]

        def hook(args):
            before = sum(c.cache_info().misses for c in own)

            def done(result):
                if sum(c.cache_info().misses for c in own) > before:
                    n, b = args[0].rank, args[2]
                    m = len(self.caches["family_table"](n, b).families)
                    self.counts["adjacency.poset_pairs"] += m * (m - 1)
                    self.built.append((n, b))
                if steps:
                    self.counts["adjacency.chain_steps"] += steps(result)

            return done

        return hook

    def _wrap_suite(self, name: str, fn):
        tracer = self

        def traced(max_n, b_list):
            ok, detail = tracer.span("verify", f"verify.{name}", fn, max_n, b_list)
            # the suite reports its own count in its detail text
            tracer.checks[name] += max(map(int, re.findall(r"\d+", detail)), default=0)
            return ok, detail

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tquery\tname\tstart_s\tend_s\tself_s\n")
            for sid, parent, query, name, start, end, own in self.spans:
                fh.write(
                    f"{sid}\t{'' if parent is None else parent}\t{query}\t{name}"
                    f"\t{start:.6f}\t{end:.6f}\t{own:.6f}\n"
                )
