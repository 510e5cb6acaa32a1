"""Spans around the public functions of each superloc module.

The tracer wraps functions from outside the package: it replaces each
target and every alias of it in the loaded superloc modules (for example
`from .scalars import normalize` in grassmann and actions, or
`from .linalg import det` in adhm).  Self time comes from a span stack: a
span's duration minus the time its wrapped children took.  A call made
directly inside a span of the same name (recursion through the public
name) folds into the outer span, so `calls` counts calls from outside.

Aggregates count every call.  Individual spans are kept in memory, at most
SPAN_CAP per name and operation, and written out when the operation ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

SPAN_CAP = 500

# (span name, module, attribute path) of every wrapped public function.
TARGETS = (
    ("scalars.normalize", "superloc.scalars", "normalize"),
    ("scalars.differentiate", "superloc.scalars", "differentiate"),
    ("scalars.evaluate", "superloc.scalars", "evaluate"),
    ("scalars.compile_numeric", "superloc.scalars", "compile_numeric"),
    ("grassmann.SuperFunction.init", "superloc.grassmann", "SuperFunction.__init__"),
    ("grassmann.apply", "superloc.grassmann", "SuperVectorField.apply"),
    ("grassmann.graded_commutator", "superloc.grassmann", "graded_commutator"),
    ("linalg.det", "superloc.linalg", "det"),
    ("linalg.pfaffian", "superloc.linalg", "pfaffian"),
    ("actions.verify_brst", "superloc.actions", "verify_brst"),
    ("localize.super_localize", "superloc.localize", "super_localize"),
    ("localize.classical_localize", "superloc.localize", "classical_localize"),
    ("localize.find_fixed_points", "superloc.localize", "find_fixed_points"),
    ("oracle.quadrature", "superloc.oracle", "quadrature"),
    ("oracle.global_berezin", "superloc.oracle", "global_berezin"),
    ("oracle.super_stokes_check", "superloc.oracle", "super_stokes_check"),
    ("adhm.adhm_Q_full", "superloc.adhm", "adhm_Q_full"),
    ("adhm.adhm_Q_unconstrained", "superloc.adhm", "adhm_Q_unconstrained"),
    ("adhm.adhm_lifted_field", "superloc.adhm", "adhm_lifted_field"),
    ("adhm.multiplier_completion", "superloc.adhm", "multiplier_completion"),
    ("harness.load_scenario", "superloc.harness", "load_scenario"),
    ("harness.serialize_report", "superloc.harness", "serialize_report"),
)


class Tracer:
    def __init__(self):
        self.stack = []          # open spans: [name, child seconds, span id]
        self.agg = {}            # name -> [calls, total seconds, self seconds]
        self.spans = []          # (id, parent id, name, start, end)
        self.missing = []        # targets not found in the program
        self.evals = 0           # integrand calls made by oracle.quadrature
        self.normalize = None    # the cached normalize, for its cache_info()
        self.cache_base = None
        self._next_id = 0
        self._origin = time.perf_counter()

    def wrap(self, name: str, fn):
        stack, clock, spans = self.stack, time.perf_counter, self.spans
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][2] if stack else 0
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if agg[0] <= SPAN_CAP:
                    spans.append((span_id, parent, name, t0 - self._origin, t1 - self._origin))

        return wrapper

    def _counting_quadrature(self, fn):
        @functools.wraps(fn)
        def quadrature(f, *args, **kwargs):
            def counted(*a, **kw):
                self.evals += 1
                return f(*a, **kw)
            return fn(counted, *args, **kwargs)
        return quadrature

    def install(self) -> None:
        """Wrap every target present in the loaded program."""
        targets = list(TARGETS)
        geometry = importlib.import_module("superloc.geometry")
        for attr, obj in sorted(vars(geometry).items()):
            if (inspect.isfunction(obj) and obj.__module__ == geometry.__name__
                    and not attr.startswith("_")):
                targets.append(("geometry." + attr, geometry.__name__, attr))
        for name, module_name, path in targets:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            if name == "scalars.normalize" and hasattr(fn, "cache_info"):
                self.cache_base = fn.cache_info()
                self.normalize = fn
            if name == "oracle.quadrature":
                fn_wrapped = self.wrap(name, self._counting_quadrature(fn))
            else:
                fn_wrapped = self.wrap(name, fn)
            _rebind(fn, fn_wrapped, owner, attr)
        runners = getattr(importlib.import_module("superloc.harness"), "RUNNERS", None)
        if runners is None:
            self.missing.append("harness.runner")
            return
        for command, runner in list(runners.items()):
            runners[command] = self.wrap("harness.runner", runner)

    def result(self) -> dict:
        out = {"agg": self.agg, "missing": self.missing, "evals": self.evals}
        if self.normalize is not None:
            info = self.normalize.cache_info()
            out["normalize_cache"] = [info.hits - self.cache_base.hits,
                                      info.misses - self.cache_base.misses]
        return out

    def write_spans(self, path: str, op_id: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def _rebind(fn, wrapper, owner, attr) -> None:
    """Replace fn on its owner and under every alias in superloc modules."""
    setattr(owner, attr, wrapper)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("superloc"):
            continue
        for alias, value in list(vars(module).items()):
            if value is fn:
                setattr(module, alias, wrapper)
