"""Layer spans recorded from outside the library.

`Tracer.install()` replaces the public functions of the six layer modules
(`bessel`, `transforms`, `synthesis`, `sampling`, `harness`, `cli`) with
wrappers, in every module that binds them by name, and `uninstall()` puts
the originals back.  Each call becomes a span (id, parent id, name, start,
end, counts) kept in memory; `dump()` writes them when the run ends and
`layer_metrics()` turns them into per-layer self times and counts.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the self times of all spans
under one root add up to the root's duration.  Nothing here touches `src/`.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np

import polar_olct
from polar_olct import bessel, cli, harness, sampling, synthesis, transforms

LAYER_MODULES = (bessel, transforms, synthesis, sampling, harness, cli)
# modules that may bind a layer function by name
BINDING_MODULES = LAYER_MODULES + (polar_olct,)

ROOT_SPAN = "op"


def _size(x):
    return int(np.size(x))


def _probes(args, kwargs):
    # reconstruct_field(samples, mode, params, m_sum, r, theta) and
    # reconstruct_spectrum(samples, mode, params, m_sum, rho, phi)
    return int(np.broadcast(np.asarray(args[4]), np.asarray(args[5])).size)


# span name -> counts taken at that boundary: key -> f(args, kwargs, result)
_COUNTS = {
    "bessel.bessel_j": {"points": lambda a, k, r: _size(a[1] if len(a) > 1 else k["x"])},
    "bessel.bessel_zeros": {"zeros": lambda a, k, r: _size(r)},
    "synthesis.evaluate": {"points": lambda a, k, r: int(np.broadcast(
        np.asarray(a[1]), np.asarray(a[2])).size)},
    "sampling.sample_field": {"points": lambda a, k, r: int(r.total_count)},
    "sampling.reconstruct_field": {"probes": lambda a, k, r: _probes(a, k)},
    "sampling.reconstruct_spectrum": {"probes": lambda a, k, r: _probes(a, k)},
    "harness.run_reduction_suite": {"checks": lambda a, k, r: len(r.rows),
                                    "checks_failed": lambda a, k, r: len(r.failures())},
    "harness.run_complexity_sweep": {"checks": lambda a, k, r: len(r.rows),
                                     "checks_failed": lambda a, k, r: len(r.failures())},
    "harness.run_offset_investigation": {"checks": lambda a, k, r: len(r.rows),
                                         "checks_failed": lambda a, k, r: len(r.failures())},
}

# methods and classmethods wrapped besides the modules' public functions;
# PolarField binds __call__ to evaluate at class creation, and olct_forward
# calls the field object directly, so both names are wrapped
_METHODS = (
    (synthesis.PolarField, "evaluate", "synthesis.evaluate", False),
    (synthesis.PolarField, "__call__", "synthesis.evaluate", False),
    (synthesis.SynthesizedField, "spectrum_values", "synthesis.spectrum_values", False),
    (synthesis.SynthesizedField, "spectral_coefficient", "synthesis.spectral_coefficient", False),
    (bessel.ZeroTable, "for_order", "bessel.zero_table", True),
    (sampling.SampleGrid, "theorem1", "sampling.grid", True),
    (sampling.SampleGrid, "theorem2", "sampling.grid", True),
    (sampling.SampleGrid, "corollary1", "sampling.grid", True),
    (sampling.SampleGrid, "corollary2", "sampling.grid", True),
)


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """In-memory span recorder that patches the library while installed."""

    def __init__(self):
        self.spans = []  # [id, parent, name, t0, t1, counts]
        self._stack = []
        self._undo = []

    # ---------------------------------------------------------------- spans
    def _wrap(self, name, fn):
        counts = _COUNTS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, clock(), None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if counts:
                rec[5] = {**(rec[5] or {}), **{key: f(args, kwargs, result)
                                              for key, f in counts.items()}}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def root(self):
        """One op's root span."""
        rec = [len(self.spans), None, ROOT_SPAN, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    def count(self, key, n):
        """Add a count to the innermost open span."""
        rec = self.spans[self._stack[-1]]
        if rec[5] is None:
            rec[5] = {}
        rec[5][key] = rec[5].get(key, 0) + int(n)

    # -------------------------------------------------------------- patches
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for module in LAYER_MODULES:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, fn in _public_functions(module):
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        olct_forward = transforms.olct_forward
        wrapped[id(olct_forward)] = (olct_forward, self._wrap("transforms.olct_forward",
                                                             self._counting_forward(olct_forward)))
        for module in BINDING_MODULES:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        for cls, attr, name, is_classmethod in _METHODS:
            raw = cls.__dict__[attr]
            if is_classmethod:
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))
        return self

    def _counting_forward(self, olct_forward):
        # counts the points olct_forward asks of its field callable
        tracer = self

        def forward(field, *args, **kwargs):
            f = field if callable(field) else field.evaluate

            def counted(r, theta):
                tracer.count("field_points", np.broadcast(np.asarray(r), np.asarray(theta)).size)
                return f(r, theta)

            return olct_forward(counted, *args, **kwargs)

        return forward

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        write_spans(self.spans, path)


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh, separators=(",", ":"))


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

# per-layer metrics: name -> (span name, field); field is "calls", "self_s"
# or a count key.  Self time of wrapped functions not listed here goes to
# "<layer>.other.self_s", so all self times add up to the op time.
LAYER_METRICS = {
    "transforms.olct_forward.calls": ("transforms.olct_forward", "calls"),
    "transforms.olct_forward.self_s": ("transforms.olct_forward", "self_s"),
    "transforms.field_points": ("transforms.olct_forward", "field_points"),
    "transforms.olct_inverse.self_s": ("transforms.olct_inverse", "self_s"),
    "transforms.olct_via_ft.self_s": ("transforms.olct_via_ft", "self_s"),
    "transforms.olcht_forward.self_s": ("transforms.olcht_forward", "self_s"),
    "transforms.olcht_inverse.self_s": ("transforms.olcht_inverse", "self_s"),
    "transforms.olct_series.self_s": ("transforms.olct_series", "self_s"),
    "transforms.hankel_transform.self_s": ("transforms.hankel_transform", "self_s"),
    "synthesis.evaluate.calls": ("synthesis.evaluate", "calls"),
    "synthesis.evaluate.points": ("synthesis.evaluate", "points"),
    "synthesis.evaluate.self_s": ("synthesis.evaluate", "self_s"),
    "synthesis.spectrum_values.self_s": ("synthesis.spectrum_values", "self_s"),
    "synthesis.synthesize.self_s": ("synthesis.synthesize", "self_s"),
    "bessel.bessel_j.calls": ("bessel.bessel_j", "calls"),
    "bessel.bessel_j.points": ("bessel.bessel_j", "points"),
    "bessel.bessel_j.self_s": ("bessel.bessel_j", "self_s"),
    "bessel.bessel_jn_chain.calls": ("bessel.bessel_jn_chain", "calls"),
    "bessel.bessel_jn_chain.self_s": ("bessel.bessel_jn_chain", "self_s"),
    "bessel.lambda_sum.self_s": ("bessel.lambda_sum", "self_s"),
    "bessel.zero_table.calls": ("bessel.zero_table", "calls"),
    "bessel.bessel_zeros.calls": ("bessel.bessel_zeros", "calls"),
    "bessel.bessel_zeros.zeros": ("bessel.bessel_zeros", "zeros"),
    "bessel.bessel_zeros.self_s": ("bessel.bessel_zeros", "self_s"),
    "sampling.grid.self_s": ("sampling.grid", "self_s"),
    "sampling.sample_field.self_s": ("sampling.sample_field", "self_s"),
    "sampling.sample_field.points": ("sampling.sample_field", "points"),
    "sampling.reconstruct_field.self_s": ("sampling.reconstruct_field", "self_s"),
    "sampling.reconstruct_spectrum.self_s": ("sampling.reconstruct_spectrum", "self_s"),
    "sampling.reconstruct.probes": (("sampling.reconstruct_field",
                                     "sampling.reconstruct_spectrum"), "probes"),
    "sampling.stark_kernel.calls": ("sampling.stark_kernel", "calls"),
    "harness.run_reduction_suite.self_s": ("harness.run_reduction_suite", "self_s"),
    "harness.run_complexity_sweep.self_s": ("harness.run_complexity_sweep", "self_s"),
    "harness.run_offset_investigation.self_s": ("harness.run_offset_investigation", "self_s"),
    "harness.checks": (("harness.run_reduction_suite", "harness.run_complexity_sweep",
                        "harness.run_offset_investigation"), "checks"),
    "harness.checks_failed": (("harness.run_reduction_suite", "harness.run_complexity_sweep",
                               "harness.run_offset_investigation"), "checks_failed"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
OTHER_LAYERS = ("bessel", "transforms", "synthesis", "sampling", "harness")


def span_totals(span_sets):
    """Per span name: calls, self_s and summed counts, over several lists of
    spans (span ids index their own list)."""
    totals = {}
    for spans in span_sets:
        child_time = [0.0] * len(spans)
        for sid, parent, name, t0, t1, counts in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        for sid, parent, name, t0, t1, counts in spans:
            agg = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child_time[sid]
            for key, n in (counts or {}).items():
                agg[key] = agg.get(key, 0) + n
    return totals


def layer_metrics(span_sets, op_times):
    """Per-op layer metrics from the spans of traced ops (one list of spans
    per op) and the ops' wall times.  Time outside every layer span (the
    benchmark's own loop, or a CLI child's start-up) is `trace.other.self_s`."""
    totals = span_totals(span_sets)
    n_ops, op_s_total = len(op_times), sum(op_times)
    out = {}
    listed = set()
    for metric, (span_names, field) in LAYER_METRICS.items():
        names = (span_names,) if isinstance(span_names, str) else span_names
        if field == "self_s":
            listed.update(names)
        out[metric] = sum(totals.get(n, {}).get(field, 0) for n in names) / n_ops
    for layer in OTHER_LAYERS:
        out[f"{layer}.other.self_s"] = sum(
            agg["self_s"] for name, agg in totals.items()
            if name.startswith(layer + ".") and name not in listed) / n_ops
    library = sum(agg["self_s"] for name, agg in totals.items() if name != ROOT_SPAN)
    out["trace.other.self_s"] = (op_s_total - library) / n_ops
    out["trace.op_s"] = op_s_total / n_ops
    return out
