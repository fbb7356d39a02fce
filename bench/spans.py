"""Wrapper tracing of the nbwalks package, installed from outside it.

``Tracer.install`` replaces each public function of the layer modules in
every ``nbwalks`` module namespace that binds it, and the costly ``Matrix``
methods on the class, with a wrapper that records a span.  A span is
``[name, start, end, parent, job, counters]``; ``parent`` is the index of
the enclosing span or -1.  Times are CPU seconds of this process, the
clock the benchmark uses throughout.  Spans stay in memory until written
out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from contextlib import contextmanager
from time import process_time

LAYERS = ("cli", "fileio", "graphs", "edgespace", "exact", "polys", "laplacians",
          "walks", "spectral", "convergence", "ihara")

# Matrix methods doing at least quadratic work; cheap accessors stay
# unwrapped so the wrappers do not swamp what they measure.
MATRIX_METHODS = ("__mul__", "det", "rank", "solve", "inverse", "char_poly",
                  "det_one_minus_t")


# Counters read from arguments and results, keyed by span name.
COUNTERS = {
    "exact.Matrix.char_poly": lambda args, res: {"dim": args[0].nrows},
    "polys.smith_form": lambda args, res: {
        "dim": args[0].nrows, "degree": sum(p.degree for p in res.invariants)},
    "polys.real_roots": lambda args, res: {"roots": len(res)},
    "spectral.perron_radius": lambda args, res: {"iterations": res.iterations},
    "edgespace.build_edge_space": lambda args, res: {"arcs": res.m},
    "ihara.verify_weighted_ihara": lambda args, res: {
        "sample_points": res.details.get("sample_points", 0)},
}


class Tracer:
    """Records spans of the calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, process_time(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = process_time()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around code of the benchmark itself, such as one job."""
        rec = [name, process_time(), 0.0, self._stack[-1] if self._stack else -1,
               self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = process_time()
            self._stack.pop()

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (short name -> module).

        Every module in ``sys.modules`` under ``nbwalks`` that binds one of
        the original function objects gets the wrapper under that name, so
        ``from .x import f`` bindings are traced too.
        """
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == "nbwalks" or k.startswith("nbwalks."))]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        matrix = modules["exact"].Matrix
        for attr in MATRIX_METHODS:
            original = matrix.__dict__[attr]
            self._restore.append((matrix, attr, original))
            setattr(matrix, attr, self._wrap(f"exact.Matrix.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, counters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "counters": counters}) + "\n")


def self_times(spans, scale=None) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children.  Spans of one thread nest, so the
    children never overlap and their durations can simply be summed.
    ``scale`` maps job ids to a factor applied to the spans of that job."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict[str, float] = {}
    for i, rec in enumerate(spans):
        factor = scale.get(rec[4], 1.0) if scale else 1.0
        out[rec[0]] = out.get(rec[0], 0.0) + ((rec[2] - rec[1]) - child[i]) * factor
    return out


def summarize(spans, scale=None) -> dict[str, dict]:
    """Per span name: self time, call count, wall time and summed or
    maximal counters (``dim`` is reported both ways).  ``scale`` is as for
    ``self_times``."""
    selfs = self_times(spans, scale)
    out = {name: {"self_s": s, "calls": 0, "wall_s": 0.0} for name, s in selfs.items()}
    for name, start, end, _parent, job, counters in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["wall_s"] += (end - start) * (scale.get(job, 1.0) if scale else 1.0)
        for key, value in (counters or {}).items():
            agg[key + "_sum"] = agg.get(key + "_sum", 0) + value
            agg[key + "_max"] = max(agg.get(key + "_max", 0), value)
    return out
