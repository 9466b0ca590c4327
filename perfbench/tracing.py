"""Spans around minsurf's public functions, recorded from outside the package.

``Tracer.install`` replaces each public function at every binding its
callers look up (``minsurf.quadrature.eval_program`` as well as
``minsurf.engine.eval_program``) with a wrapper that records one span:
name, start, end, parent span, and up to two counts taken from the call's
arguments or result.  Spans stay in memory, in flat arrays, until the run
ends; ``uninstall`` puts the original functions back, and the benchmark
installs the wrappers around every traced op only.

A binding that no longer exists (after a refactor renames or fuses a
function) is skipped.  Every metric built on a span with no binding left is
reported as absent, with the reason, instead of as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter

import numpy as np


def _eval_counts(args, kwargs, result):
    # eval_program(prog, z, ...): points, and bytes computed from array
    # sizes: 16 per complex point for the input, the output, and the
    # result of each tape instruction
    prog, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
    return np.size(z), 16.0 * np.size(z) * (len(prog.ops) + 2)


def _segments(args, kwargs, result):
    # integrate_segments(expr, a, b, ...)
    return np.size(args[1] if len(args) > 1 else kwargs["a"]), 0.0


def _call_points(args, kwargs, result):
    # NullCurve.__call__(self, z)
    return np.size(args[1] if len(args) > 1 else kwargs["z"]), 0.0


def _patch_points(args, kwargs, result):
    return result.points.shape[0] * result.points.shape[1], 0.0


def _file_bytes(args, kwargs, result):
    # export_mesh(p, path, ...)
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]), 0.0


# span name -> (bindings "module:attribute", count extractor)
SPANS = {
    "engine.compile": (("minsurf.engine:compile_expr",
                        "minsurf.quadrature:compile_expr"), None),
    "engine.eval": (("minsurf.engine:eval_program",
                     "minsurf.quadrature:eval_program"), _eval_counts),
    "quadrature": (("minsurf.quadrature:integrate_segments",
                    "minsurf.surface:integrate_segments"), _segments),
    "nullcurve.residual": (("minsurf.nullcurve:null_residual",
                            "minsurf.cli:null_residual"), None),
    "nullcurve.curve_call": (("minsurf.nullcurve:NullCurve.__call__",),
                             _call_points),
    "transforms.deform": (("minsurf.transforms:parabolic_deform",
                           "minsurf.transforms:parabolic_deform_rotated",
                           "minsurf.cli:parabolic_deform",
                           "minsurf.cli:parabolic_deform_rotated"), None),
    "surface.immerse": (("minsurf.surface:immerse", "minsurf.cli:immerse"),
                        _patch_points),
    "surface.verify": (("minsurf.surface:verify_minimal",
                        "minsurf.cli:verify_minimal"), None),
    "surface.rank": (("minsurf.surface:degeneracy_rank",
                      "minsurf.cli:degeneracy_rank"), None),
    "surface.export": (("minsurf.surface:export_mesh",
                        "minsurf.cli:export_mesh"), _file_bytes),
    "surface.parametric": (("minsurf.surface:parametric_immersion",
                            "minsurf.cli:parametric_immersion"), None),
    "conic.surface_eval": (("minsurf.conic:ParametricSurface.__call__",), None),
    "conic.slice": (("minsurf.conic:slice_surface",
                     "minsurf.cli:slice_surface"), None),
    "conic.fit": (("minsurf.conic:fit_conic", "minsurf.cli:fit_conic"), None),
    "cli.main": (("minsurf.cli:main",), None),
    "specio.loads": (("minsurf.specio:loads", "minsurf.specio:load"), None),
    "expr.parse": (("minsurf.expr:parse",), None),
    # the benchmark's own op, the root of every other span
    "op": ((), None),
}


class Tracer:
    """Spans of one traced phase, in flat arrays indexed by span."""

    def __init__(self):
        self.names = list(SPANS)
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.count_a = array("d")
        self.count_b = array("d")
        self.stack = []
        self.installed = []      # (owner, attribute, original)
        self.missing = {}        # span name -> reason, when no binding exists
        self.missing_bindings = []  # bindings that no longer exist
        self.count_errors = {}   # span name -> first extractor error

    def _enter(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.count_a.append(0.0)
        self.count_b.append(0.0)
        self.stack.append(i)
        return i

    def _leave(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span of the given name."""
        i = self._enter(self.names.index(name))
        try:
            return fn(*args)
        finally:
            self._leave(i)

    def _wrap(self, fn, name, extract):
        nid = self.names.index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(i)
            if extract is not None:
                try:
                    tracer.count_a[i], tracer.count_b[i] = extract(args, kwargs,
                                                                   result)
                except Exception as err:  # a refactor changed the signature
                    tracer.count_a[i] = tracer.count_b[i] = float("nan")
                    tracer.count_errors.setdefault(name, repr(err))
            return result
        return traced

    def install(self):
        """Wrap every binding that exists.  The tracer may be installed
        again after ``uninstall``; its spans accumulate."""
        self.missing.clear()
        self.missing_bindings.clear()
        for name, (bindings, extract) in SPANS.items():
            found = 0
            reasons = []
            for binding in bindings:
                modname, attr = binding.split(":")
                try:
                    owner = importlib.import_module(modname)
                    *path, last = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, last)
                except (ImportError, AttributeError) as err:
                    reasons.append(f"{binding}: {err}")
                    self.missing_bindings.append(binding)
                    continue
                setattr(owner, last, self._wrap(original, name, extract))
                self.installed.append((owner, last, original))
                found += 1
            if bindings and not found:
                self.missing[name] = "; ".join(reasons)

    def uninstall(self):
        for owner, last, original in reversed(self.installed):
            setattr(owner, last, original)
        self.installed.clear()

    def arrays(self):
        """Span fields as numpy arrays, with self time (duration minus the
        durations of direct children)."""
        a = {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
            "count_a": np.frombuffer(self.count_a).copy(),
            "count_b": np.frombuffer(self.count_b).copy(),
        }
        dur = a["end"] - a["start"]
        has = a["parent"] >= 0
        child = np.bincount(a["parent"][has], weights=dur[has],
                            minlength=len(dur))
        a["dur"] = dur
        a["self"] = dur - child
        return a

    def save(self, path):
        """Write the spans, with the span-name table, to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


# per-layer metric -> (unit, spans it needs, value from the span stats)
def _ratio(x, y):
    return x / y if y else 0.0


METRICS = {
    "engine.compile.calls": ("1/op", ("engine.compile",),
                             lambda s, n: s["engine.compile"]["calls"] / n),
    "engine.compile.self_s": ("s/op", ("engine.compile",),
                              lambda s, n: s["engine.compile"]["self"] / n),
    "engine.eval.calls": ("1/op", ("engine.eval",),
                          lambda s, n: s["engine.eval"]["calls"] / n),
    "engine.eval.points": ("1/op", ("engine.eval",),
                           lambda s, n: s["engine.eval"]["a"] / n),
    "engine.eval.self_s": ("s/op", ("engine.eval",),
                           lambda s, n: s["engine.eval"]["self"] / n),
    "engine.eval.ns_per_point": ("ns", ("engine.eval",), lambda s, n: 1e9 * _ratio(
        s["engine.eval"]["self"], s["engine.eval"]["a"])),
    "engine.eval.bytes_computed": ("B/op", ("engine.eval",),
                                   lambda s, n: s["engine.eval"]["b"] / n),
    "engine.eval.points_per_call": ("count", ("engine.eval",), lambda s, n: _ratio(
        s["engine.eval"]["a"], s["engine.eval"]["calls"])),
    "quadrature.calls": ("1/op", ("quadrature",),
                         lambda s, n: s["quadrature"]["calls"] / n),
    "quadrature.us_per_call": ("us", ("quadrature",), lambda s, n: 1e6 * _ratio(
        s["quadrature"]["total"], s["quadrature"]["calls"])),
    "quadrature.segments": ("1/op", ("quadrature",),
                            lambda s, n: s["quadrature"]["a"] / n),
    "quadrature.self_s": ("s/op", ("quadrature",),
                          lambda s, n: s["quadrature"]["self"] / n),
    "quadrature.us_per_segment": ("us", ("quadrature",), lambda s, n: 1e6 * _ratio(
        s["quadrature"]["total"], s["quadrature"]["a"])),
    "quadrature.evals_per_segment": ("count", ("quadrature", "engine.eval"),
                                     lambda s, n: _ratio(
        s["engine.eval"]["a_under"]["quadrature"], s["quadrature"]["a"])),
    "nullcurve.residual.s": ("s/op", ("nullcurve.residual",),
                             lambda s, n: s["nullcurve.residual"]["total"] / n),
    "nullcurve.curve_call.points": ("1/op", ("nullcurve.curve_call",),
                                    lambda s, n: s["nullcurve.curve_call"]["a"] / n),
    "transforms.deform.s": ("s/op", ("transforms.deform",),
                            lambda s, n: s["transforms.deform"]["total"] / n),
    "surface.immerse.calls": ("1/op", ("surface.immerse",),
                              lambda s, n: s["surface.immerse"]["calls"] / n),
    "surface.immerse.self_s": ("s/op", ("surface.immerse",),
                               lambda s, n: s["surface.immerse"]["self"] / n),
    "surface.immerse.us_per_point": ("us", ("surface.immerse",),
                                     lambda s, n: 1e6 * _ratio(
        s["surface.immerse"]["total"], s["surface.immerse"]["a"])),
    "surface.verify.s": ("s/op", ("surface.verify",),
                         lambda s, n: s["surface.verify"]["total"] / n),
    "surface.rank.s": ("s/op", ("surface.rank",),
                       lambda s, n: s["surface.rank"]["total"] / n),
    "surface.export.s": ("s/op", ("surface.export",),
                         lambda s, n: s["surface.export"]["total"] / n),
    "surface.export.bytes": ("B/op", ("surface.export",),
                             lambda s, n: s["surface.export"]["a"] / n),
    "surface.export.mb_per_s": ("MB/s", ("surface.export",), lambda s, n: 1e-6 * _ratio(
        s["surface.export"]["a"], s["surface.export"]["total"])),
    "surface.parametric.calls": ("1/op", ("surface.parametric",),
                                 lambda s, n: s["surface.parametric"]["calls"] / n),
    "conic.slice.self_s": ("s/op", ("conic.slice",),
                           lambda s, n: s["conic.slice"]["self"] / n),
    "conic.slice.surface_evals": ("count", ("conic.slice", "conic.surface_eval"),
                                  lambda s, n: _ratio(
        s["conic.surface_eval"]["calls_under"]["conic.slice"],
        s["conic.slice"]["calls"])),
    "conic.fit.s": ("s/op", ("conic.fit",),
                    lambda s, n: s["conic.fit"]["total"] / n),
    "cli.main.self_s": ("s/op", ("cli.main",),
                        lambda s, n: s["cli.main"]["self"] / n),
    "specio.loads.s": ("s/op", ("specio.loads",),
                       lambda s, n: s["specio.loads"]["total"] / n),
    "expr.parse.calls": ("1/op", ("expr.parse",),
                         lambda s, n: s["expr.parse"]["calls"] / n),
    "expr.parse.s": ("s/op", ("expr.parse",),
                     lambda s, n: s["expr.parse"]["total"] / n),
}


# the metrics of the traced run's JSON line: every time that both workloads
# spend, and the counts; the report carries the rest, which read 0 s on a
# workload that never calls their layer
RECORDED = (
    "engine.compile.calls", "engine.compile.self_s", "engine.eval.calls",
    "engine.eval.points", "engine.eval.self_s", "engine.eval.ns_per_point",
    "engine.eval.bytes_computed", "engine.eval.points_per_call",
    "quadrature.calls", "quadrature.us_per_call", "quadrature.segments",
    "quadrature.self_s", "quadrature.us_per_segment",
    "quadrature.evals_per_segment", "transforms.deform.s",
    "nullcurve.curve_call.points", "surface.immerse.calls",
    "surface.immerse.self_s", "surface.immerse.us_per_point",
    "surface.export.bytes", "surface.parametric.calls",
    "conic.slice.surface_evals", "expr.parse.calls", "trace.overhead_pct",
)


def span_stats(tracer):
    """Per span name: calls, total and self time, summed counts, and the
    calls and first counts of its spans grouped by their parent's name."""
    a = tracer.arrays()
    n = len(tracer.names)
    has_parent = a["parent"] >= 0
    parent_name = a["name"][a["parent"][has_parent]]
    stats = {}
    for nid, name in enumerate(tracer.names):
        sel = a["name"] == nid
        child = sel[has_parent]
        calls_under = np.bincount(parent_name[child], minlength=n)
        a_under = np.bincount(parent_name[child],
                              weights=a["count_a"][has_parent][child], minlength=n)
        stats[name] = {
            "calls": int(np.sum(sel)),
            "total": float(np.sum(a["dur"][sel])),
            "self": float(np.sum(a["self"][sel])),
            "a": float(np.sum(a["count_a"][sel])),
            "b": float(np.sum(a["count_b"][sel])),
            "calls_under": dict(zip(tracer.names, calls_under.tolist())),
            "a_under": dict(zip(tracer.names, a_under.tolist())),
        }
    return stats


def layer_metrics(tracer):
    """(metrics, absent): every per-layer metric as {"value", "unit"},
    normalized per traced op where the unit says so, and the reason for
    each metric that could not be measured."""
    stats = span_stats(tracer)
    n_ops = stats["op"]["calls"]
    metrics, absent = {}, {}
    for name, (unit, needs, value) in METRICS.items():
        gone = [s for s in needs if s in tracer.missing]
        if gone:
            absent[name] = "; ".join(f"{s}: {tracer.missing[s]}" for s in gone)
            continue
        broken = [s for s in needs if s in tracer.count_errors]
        if broken:
            absent[name] = "; ".join(f"{s} counts: {tracer.count_errors[s]}"
                                     for s in broken)
            continue
        metrics[name] = {"value": float(value(stats, n_ops)), "unit": unit}
    return metrics, absent
