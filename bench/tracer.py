"""In-memory span tracer that instruments eistau from outside the package.

`Tracer.install()` replaces every public module-level function of each measured
layer (one layer per eistau module) with a wrapper that records a span: name,
parent span, start and end.  The same wrapper is installed under every name by
which another eistau module (or the package namespace) imported the function,
and each binding site keeps its own call count, so "calls into X made from Y"
is measured where the call happens.  A few methods (ExpPoly arithmetic and
evaluation, FormalSum construction, report serialization) and `mp.quad` are
wrapped the same way.  `uninstall()` restores every original binding.

Spans are kept in flat arrays while tracing; `summary()` computes, per span
name, the call count, total time and self time (a span's duration minus the
time covered by its direct child spans), and `write_spans()` dumps the raw
table at the end.  `config` and `cli` are deliberately not wrapped.
"""

from __future__ import annotations

import gzip
import types
from array import array
from collections import Counter
from time import perf_counter

# Layers, in the order the engine stacks them; each is the eistau module of that name.
LAYERS = (
    "algebra",
    "eisenstein",
    "exppoly",
    "integrals",
    "lseries",
    "rewrite",
    "quadrature",
    "mmv",
    "verify",
    "report",
)

# Methods worth a span of their own: class name -> {method: span suffix}.
METHODS = {
    "ExpPoly": {"__init__": "init", "__add__": "add", "__mul__": "mul", "scale": "scale",
                "truncated": "truncated", "tail_integral": "tail_integral", "__call__": "eval"},
    "FormalSum": {"__init__": "FormalSum.init"},
    "VerificationReport": {"to_json": "to_json"},
}

# Call sites whose arguments or results feed a per-layer metric.
OBSERVED = ("integrals.int_eval", "integrals.freq_cutoff", "lseries.l_coeffs_dp",
            "verify.run_suite")

HARNESS_SITE = "bench"  # calls through the package namespace come from the benchmark


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.site_calls: Counter = Counter()  # (site layer, span name) -> calls
        self.observations: list[tuple] = []  # (span name, site, args, result, span id)
        self._restore: list[tuple] = []

    # -- installation ----------------------------------------------------------

    def install(self, eistau) -> None:
        import importlib

        from mpmath import mp

        modules = {name: importlib.import_module(f"eistau.{name}") for name in LAYERS}
        originals: dict[int, str] = {}  # id(function) -> span name
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = f"{layer}.{attr}"
            for cls_name, methods in METHODS.items():
                cls = vars(mod).get(cls_name)
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    for meth, suffix in methods.items():
                        fn = cls.__dict__[meth]
                        self._patch(cls, meth, self._wrap(fn, f"{layer}.{suffix}", layer))
        # every binding of an original, in the defining module and wherever imported
        sites = dict(modules)
        for name in ("cli", "config"):
            sites[name] = importlib.import_module(f"eistau.{name}")
        sites[HARNESS_SITE] = eistau
        for site, mod in sites.items():
            for attr, obj in list(vars(mod).items()):
                span = originals.get(id(obj)) if isinstance(obj, types.FunctionType) else None
                if span is not None:
                    self._patch(mod, attr, self._wrap(obj, span, site))
        self._patch(mp, "quad", self._wrap(mp.quad, "quadrature.mp_quad", "quadrature"),
                    instance=True)

    def uninstall(self) -> None:
        for target, attr, old, instance in reversed(self._restore):
            if instance:
                delattr(target, attr)
            else:
                setattr(target, attr, old)
        self._restore.clear()

    def _patch(self, target, attr, new, instance=False) -> None:
        old = None if instance else target.__dict__[attr]
        self._restore.append((target, attr, old, instance))
        setattr(target, attr, new)

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, span: str, site: str):
        nid = self._intern(span)
        key = (site, span)
        calls = self.site_calls
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        observe = self.observations.append if span in OBSERVED else None

        def traced(*args, **kwargs):
            calls[key] += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            starts.append(0.0)
            ends.append(0.0)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe((span, site, args, result, idx))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_s (sum of durations) and self_s."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            row = out.setdefault(self.names[self.span_name[i]],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def calls_from(self, site: str, span: str) -> int:
        return self.site_calls[(site, span)]

    def duration(self, idx: int) -> float:
        return self.span_end[idx] - self.span_start[idx]

    def ancestors_with(self, inner: str, outer: str) -> int:
        """Number of `outer` spans that enclose at least one `inner` span."""
        inner_id, outer_id = self._ids.get(inner), self._ids.get(outer)
        hits = set()
        for i, nid in enumerate(self.span_name):
            if nid != inner_id:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != outer_id:
                p = self.span_parent[p]
            if p >= 0:
                hits.add(p)
        return len(hits)

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, name, start and end in seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\n")
