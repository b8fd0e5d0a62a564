"""In-memory span tracing for the traced benchmark run.

A `Tracer` replaces public functions of the `svlibor` layers, as they are
bound in the modules that call them, with wrappers that record one span per
call: name, start, end, parent span and thread.  Spans stay in memory; the
per-layer metrics are computed from them and they are written out once, at
exit.  Untraced runs never construct a `Tracer`, so they call the original
functions.

Self time is a span's duration minus the durations of its child spans.  Work
inside an unwrapped helper counts to the nearest wrapped caller (for example
the Nelder-Mead bookkeeping in scipy counts to `calibrate.calibrate_maturity`
and `caplet_cf_params` to `fourier.caplet_price`).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import importlib
import itertools
import threading
import time

import numpy as np
from svlibor.calibrate import PENALTY

# (span name, function, modules whose global binding is replaced, counter).
# The span name's first component is the layer the time is booked to.
# `load_params` lives in svlibor.model but is fixture loading, so it is
# booked with the other loaders.  A counter maps (args, result) to the
# number stored with the span.
TARGETS = (
    ("market_data.load_curve", "load_curve", ("svlibor.market_data",), None),
    ("market_data.load_params", "load_params", ("svlibor.model",), None),
    ("market_data.strip_libors", "strip_libors",
     ("svlibor.market_data", "svlibor.calibrate", "svlibor.montecarlo"), None),
    ("model.factorize_vols", "factorize_vols",
     ("svlibor.model", "svlibor.calibrate"), None),
    ("affine.effective_caplet_params", "effective_caplet_params",
     ("svlibor.charfn",), None),
    ("affine.swap_effective_params", "swap_effective_params",
     ("svlibor.charfn",), None),
    ("charfn.heston_cf", "heston_cf", ("svlibor.fourier",),
     lambda args, result: int(np.size(args[0]))),
    ("fourier.caplet_price", "caplet_price",
     ("svlibor.fourier", "svlibor.calibrate"), None),
    ("fourier.swaption_price", "swaption_price", ("svlibor.fourier",), None),
    ("fourier.carr_madan_cv", "carr_madan_cv", ("svlibor.fourier",), None),
    ("calibrate.calibrate_all", "calibrate_all", ("svlibor.calibrate",), None),
    ("calibrate.calibrate_maturity", "calibrate_maturity",
     ("svlibor.calibrate",), None),
    ("calibrate.objective", "objective", ("svlibor.calibrate",),
     lambda args, result: int(result == PENALTY)),
    ("montecarlo.mc_caplets", "mc_caplets", ("svlibor.montecarlo",), None),
    ("montecarlo.mc_swaptions", "mc_swaptions", ("svlibor.montecarlo",), None),
    ("montecarlo.simulate", "simulate", ("svlibor.montecarlo",), None),
)

LAYERS = ("market_data", "model", "affine", "charfn", "fourier", "calibrate",
          "montecarlo")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "count")

    def __init__(self, sid, name, start, end, parent, thread, count):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.thread, self.count = parent, thread, count

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    """Records spans from wrapped layer functions; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[Span, list[int]]:
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        span = Span(sid, name, 0, 0, stack[-1] if stack else 0,
                    threading.get_ident(), None)
        stack.append(sid)
        span.start = time.perf_counter_ns()
        return span, stack

    def _close(self, span: Span, stack: list[int]) -> None:
        span.end = time.perf_counter_ns()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body of a ``with`` statement."""
        span, stack = self._open(name)
        try:
            yield span
        finally:
            self._close(span, stack)

    def _run(self, name, fn, counter, args, kwargs):
        span, stack = self._open(name)
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                span.count = counter(args, result)
            return result
        finally:
            self._close(span, stack)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, attr, modules, counter in TARGETS:
            for mod_name in modules:
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, counter, args, kwargs)
        return traced

    def write(self, path) -> None:
        """Write every span as gzipped CSV (times in ns since the first span)."""
        t0 = min((s.start for s in self.spans), default=0)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_ns", "end_ns", "parent",
                          "thread", "count"])
            for s in self.spans:
                out.writerow([s.sid, s.name, s.start - t0, s.end - t0,
                              s.parent, s.thread,
                              "" if s.count is None else s.count])


class SpanIndex:
    """Queries over a finished span list: subtrees, self times, counts."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.child_seconds: dict[int, float] = {}
        for s in spans:
            if s.parent:
                self.child_seconds[s.parent] = (
                    self.child_seconds.get(s.parent, 0.0) + s.seconds)

    def self_seconds(self, span: Span) -> float:
        return span.seconds - self.child_seconds.get(span.sid, 0.0)

    def under(self, roots: list[Span]) -> list[Span]:
        """Every span inside one of ``roots`` (the roots included)."""
        root_ids = {r.sid for r in roots}
        memo: dict[int, bool] = {0: False}

        def inside(sid: int) -> bool:
            path = []
            while sid not in memo:
                if sid in root_ids:
                    memo[sid] = True
                    break
                path.append(sid)
                sid = self.by_id[sid].parent
            hit = memo[sid]
            for p in path:
                memo[p] = hit
            return hit

        return [s for s in self.spans if inside(s.sid)]

    def ancestor_named(self, span: Span, name: str) -> Span | None:
        sid = span.parent
        while sid:
            parent = self.by_id[sid]
            if parent.name == name:
                return parent
            sid = parent.parent
        return None


def _quantile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, wl, untraced, traced, probes, verdicts) -> dict:
    """Per-layer metrics of the traced jobs; counts are per job.

    Every traced job runs the same input, so totals divided by the number
    of jobs are exact per-job counts.
    """
    idx = SpanIndex(spans)
    roots = [s for s in spans if s.name == "bench.job"]
    n = len(roots)
    job = idx.under(roots)
    setup = idx.under([s for s in spans if s.name == "bench.setup"])
    by_name: dict[str, list[Span]] = {}
    for s in job:
        by_name.setdefault(s.name, []).append(s)

    def secs(name):
        return [s.seconds for s in by_name.get(name, ())]

    def ratio(a, b):
        return a / b if b else 0.0

    cf = by_name.get("charfn.heston_cf", [])
    nodes = sum(s.count for s in cf)
    cf_self = sum(idx.self_seconds(s) for s in cf)
    cf_in_caplet = sum(s.seconds for s in cf
                       if idx.ancestor_named(s, "fourier.caplet_price"))
    rows = len(by_name.get("fourier.carr_madan_cv", []))
    objective = by_name.get("calibrate.objective", [])
    penalties = sum(s.count for s in objective)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in job:
        layer = s.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += idx.self_seconds(s)
    untraced_s = float(np.median(untraced))
    traced_s = float(np.median(traced))

    mc_caplets = mc_swaptions = probe_t1 = probe_t2 = 0.0
    path_steps = 0
    if hasattr(wl, "path_steps"):
        caplet_ps, swap_ps = wl.path_steps()
        path_steps = caplet_ps + swap_ps
        mc_caplets = ratio(n * caplet_ps, sum(secs("montecarlo.mc_caplets")))
        mc_swaptions = ratio(n * swap_ps, sum(secs("montecarlo.mc_swaptions")))
        probe = {s.name: s.seconds for s in spans
                 if s.name.startswith("bench.probe_t")}
        probe_t1 = ratio(probes["path_steps"], probe["bench.probe_t1"])
        probe_t2 = ratio(probes["path_steps"], probe["bench.probe_t2"])
    refit = [v.extra["refit_rel_err"] for v in verdicts
             if "refit_rel_err" in v.extra]

    out = {
        "market_data.load_ms": 1e3 * sum(
            s.seconds for s in setup if s.name.startswith("market_data.")),
        "model.factorize_vols.calls": ratio(
            len(by_name.get("model.factorize_vols", [])), n),
        "model.factorize_vols.us_p50": 1e6 * _quantile(
            secs("model.factorize_vols"), 50),
        "affine.effective_caplet_params.us_p50": 1e6 * _quantile(
            secs("affine.effective_caplet_params"), 50),
        "affine.swap_effective_params.us_p50": 1e6 * _quantile(
            secs("affine.swap_effective_params"), 50),
        "charfn.heston_cf.calls": ratio(len(cf), n),
        "charfn.heston_cf.nodes": ratio(nodes, n),
        "charfn.heston_cf.nodes_per_call": ratio(nodes, len(cf)),
        "charfn.heston_cf.nodes_per_s": ratio(nodes, cf_self),
        "charfn.heston_cf.row_share": ratio(
            cf_in_caplet, sum(secs("fourier.caplet_price"))),
        "fourier.caplet_price.ms_p50": 1e3 * _quantile(
            secs("fourier.caplet_price"), 50),
        "fourier.caplet_price.ms_p90": 1e3 * _quantile(
            secs("fourier.caplet_price"), 90),
        "fourier.swaption_price.ms_p50": 1e3 * _quantile(
            secs("fourier.swaption_price"), 50),
        "fourier.carr_madan_cv.calls": ratio(rows, n),
        "fourier.nodes_per_row": ratio(nodes, rows),
        "calibrate.evals": ratio(len(objective), n),
        "calibrate.objective.ms_p50": 1e3 * _quantile(
            secs("calibrate.objective"), 50),
        "calibrate.maturity_s_p50": _quantile(
            secs("calibrate.calibrate_maturity"), 50),
        "calibrate.maturity_s_max": max(
            secs("calibrate.calibrate_maturity"), default=0.0),
        "calibrate.penalty_frac": ratio(penalties, len(objective)),
        "calibrate.refit_rel_err": float(np.median(refit)) if refit else 0.0,
        "montecarlo.path_steps": path_steps,
        "montecarlo.mc_caplets.path_steps_per_s": mc_caplets,
        "montecarlo.mc_swaptions.path_steps_per_s": mc_swaptions,
        "montecarlo.simulate.path_steps_per_s_t1": probe_t1,
        "montecarlo.simulate.path_steps_per_s_t2": probe_t2,
        "montecarlo.thread_efficiency": ratio(probe_t2, 2.0 * probe_t1),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.layer_self_frac": ratio(sum(layer_self.values()) / n,
                                       untraced_s),
        "trace.spans_per_job": ratio(len(job), n),
    }
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_ms"] = 1e3 * seconds / n
    return out
