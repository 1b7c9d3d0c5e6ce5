"""Layer tracer for the benchmark: spans around the package's public
functions, recorded without touching the package source.

Each traced function is replaced by a wrapper at every module attribute
of `ksatlas.*` that is bound to it, so callers that did
`from .polytope import classical_bound` are traced as well as callers
that look the name up on the defining module. Spans carry a parent
link; a layer's self time is its span time minus the time its direct
child spans cover. Counts are derived from arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field

MODULES = ("_kernels", "polytope", "ratlp", "graphs", "quantum", "bridge",
           "scenario", "cli")


def _prod(values):
    out = 1
    for v in values:
        out *= int(v)
    return out


def _best_assignment_counts(args, kwargs, result):
    radices, terms = args[0], args[1]
    return {"assignments": _prod(radices), "terms": len(terms)}


def _enumerate_vertices_counts(args, kwargs, result):
    scenario = args[0]
    return {"assignments": _prod(len(o) for o in scenario.outcomes),
            "vertices": int(result.coords.shape[0]),
            "coords": int(result.coords.size)}


def _int_rank_counts(args, kwargs, result):
    rows = args[0]
    return {"entries": len(rows) * (len(rows[0]) if len(rows) else 0)}


def _solve_feasibility_counts(args, kwargs, result):
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0),
            "infeasible": 0 if result.feasible else 1}


def _lovasz_theta_counts(args, kwargs, result):
    lo, hi = result
    return {"vertices": args[0].n, "gap_max": hi - lo}


def _seesaw_counts(args, kwargs, result):
    return {"iterations": int(result.iterations)}


# (module, function, counter). The layer name is "<module>.<function>",
# with the leading underscore of `_kernels` dropped so that every metric
# name starts with a letter.
LAYERS = (
    ("_kernels", "best_assignment", _best_assignment_counts),
    ("polytope", "classical_bound", None),
    ("polytope", "enumerate_vertices", _enumerate_vertices_counts),
    ("polytope", "int_rank", _int_rank_counts),
    ("polytope", "tightness_test", None),
    ("polytope", "membership_test", None),
    ("ratlp", "solve_feasibility", _solve_feasibility_counts),
    ("graphs", "is_complete_n_partite", None),
    ("graphs", "lovasz_theta", _lovasz_theta_counts),
    ("graphs", "independence_number", None),
    ("quantum", "seesaw_max", _seesaw_counts),
    ("quantum", "verify_sic", None),
    ("quantum", "remove_measurement", None),
    ("quantum", "neumark_dilation", None),
    ("bridge", "sic_to_bell", None),
    ("bridge", "bell_to_ks", None),
    ("bridge", "ks_to_bell", None),
    ("bridge", "map_report", None),
    ("scenario", "build_scenario", None),
    ("scenario", "check_inequality", None),
    ("scenario", "validate_behavior", None),
    ("cli", "main", None),
)

# Counters summed over spans; gap_max is a maximum instead.
_COUNTERS = {
    "kernels.best_assignment": ("assignments", "terms"),
    "polytope.enumerate_vertices": ("assignments", "vertices", "coords"),
    "polytope.int_rank": ("entries",),
    "ratlp.solve_feasibility": ("cells", "infeasible"),
    "graphs.lovasz_theta": ("vertices", "gap_max"),
    "quantum.seesaw_max": ("iterations",),
}


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "1" if metric.endswith("gap_max") else "count"


def layer_name(module, function):
    return f"{module.lstrip('_')}.{function}"


@dataclass
class Span:
    layer: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    child_time: float = 0.0


class Tracer:
    """Records spans while installed; `install` and `uninstall` swap the
    wrappers in and out of every `ksatlas.*` module binding."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, layer, fn, counter):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        for m in MODULES:
            importlib.import_module(f"ksatlas.{m}")
        loaded = [m for name, m in sys.modules.items()
                  if name == "ksatlas" or name.startswith("ksatlas.")]
        for module, function, counter in LAYERS:
            orig = getattr(importlib.import_module(f"ksatlas.{module}"), function)
            wrapper = self._wrap(layer_name(module, function), orig, counter)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def fired(self):
        return {s.layer for s in self.spans}

    def metrics(self, batches=1):
        """Per-layer metrics, per batch: calls, self_s and the layer's own
        counters, plus the derived ratios the benchmark reports."""
        layers = [layer_name(m, f) for m, f, _ in LAYERS]
        out = {}
        for layer in layers:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            for c in _COUNTERS.get(layer, ()):
                out[f"{layer}.{c}"] = 0
        for s in self.spans:
            out[f"{s.layer}.calls"] += 1
            out[f"{s.layer}.self_s"] += (s.end - s.start) - s.child_time
            for c, v in s.counts.items():
                key = f"{s.layer}.{c}"
                out[key] = max(out[key], v) if c == "gap_max" else out[key] + v
        scans = sum(1 for s in self.spans if s.layer == "kernels.best_assignment"
                    and s.parent is not None
                    and s.parent.layer == "polytope.classical_bound")
        in_theta = sum(1 for s in self.spans if s.layer == "graphs.independence_number"
                       and s.parent is not None
                       and s.parent.layer == "graphs.lovasz_theta")
        out["polytope.classical_bound.scan_calls"] = scans
        out["graphs.independence_number.in_theta_calls"] = in_theta
        maps = out["bridge.map_report.calls"]
        out["bridge.map_report.polytope_calls"] = (
            self._polytope_calls_under_map() / maps if maps else 0.0)
        for key, value in out.items():
            if not key.endswith("gap_max") and not key.endswith("polytope_calls"):
                out[key] = value / batches
        return out

    def _polytope_calls_under_map(self):
        n = 0
        for s in self.spans:
            if s.layer not in ("polytope.classical_bound", "polytope.tightness_test"):
                continue
            p = s.parent
            while p is not None and p.layer != "bridge.map_report":
                p = p.parent
            n += p is not None
        return n

    def to_json(self):
        ids = {id(s): k for k, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {"id": ids[id(s)], "layer": s.layer,
             "parent": ids[id(s.parent)] if s.parent is not None else None,
             "start": s.start - t0, "end": s.end - t0,
             "counts": {k: (v if math.isfinite(v) else None) for k, v in s.counts.items()}}
            for s in self.spans
        ]
