"""Outside-in instrumentation of the subcont package.

Nothing under ``src/`` knows about the benchmark.  A :class:`Recorder` swaps
module attributes -- the functions one subcont module imported from another,
which it looks up at call time -- for wrappers for the length of a ``with``
block, and puts the originals back afterwards.

Two kinds of wrapper exist:

* capture (always on): keeps what each harness method call returned, and both
  DoubleGreedy traces, so the checks can examine every output.  One wrapper per
  method call, so its cost is nothing next to the call.
* spans (``--trace 1`` only): per layer boundary, the number of calls, busy
  time and self time (busy time minus the part its child spans cover), plus
  counters of work done (hit-and-run steps, grid points, batch rows).  Spans
  are aggregated in memory, not stored one by one, because value calls run to
  the millions.
"""
from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from subcont import baselines, core, geometry, harness, properties, solvers

LP_SAMPLE_EVERY = 25    # keep every 25th LP call for the linprog cross-check
LP_SAMPLE_CAP = 40


class Spans:
    """Aggregated spans: calls, busy and self time per name, calls per
    (parent, child) pair, and free-form work counters."""

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.child_calls = Counter()
        self.counts = Counter()
        self._stack: list[list] = []   # [name, time covered by children]

    def wrap(self, name, fn, count=None):
        stack = self._stack

        def traced(*args, **kwargs):
            if stack:
                self.child_calls[(stack[-1][0], name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if count is not None:
                    count(self.counts, *args, **kwargs)

        return traced


def _count_har_steps(counts, P, k, seed, burn_in=None, thin=None, use_jit=None):
    # the chain's documented defaults: burn-in 50 n, thinning n
    n = P.dimension
    burn = 50 * n if burn_in is None else burn_in
    counts["har_steps"] += burn + k * (max(1, n) if thin is None else thin)


def _count_grid_points(counts, f, domain, points_per_dim, chunk=None):
    counts["grid_points"] += points_per_dim ** domain.dimension


def _count_batch_rows(counts, X):
    counts["batch_rows"] += np.atleast_2d(X).shape[0]


def _count_fallback_rows(counts, f, X):
    if f.value_batch is None:
        counts["fallback_rows"] += np.atleast_2d(X).shape[0]


class Recorder:
    """Captures method outputs; with ``tracing`` set, also records spans."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans = Spans()
        self.records: list[dict] = []
        self.lp_samples: list[tuple] = []
        self._lp_seen = 0
        self._last_dg = None

    def wrap(self, name, fn, count=None):
        return self.spans.wrap(name, fn, count) if self.tracing else fn

    def handle(self, h: core.ObjectiveHandle) -> core.ObjectiveHandle:
        """The handle with its callables wrapped in spans when tracing."""
        if not self.tracing:
            return h
        return dataclasses.replace(
            h,
            value=self.wrap("zoo.value", h.value),
            gradient=None if h.gradient is None else self.wrap("zoo.gradient", h.gradient),
            value_batch=None if h.value_batch is None else
            self.wrap("zoo.value_batch", h.value_batch, _count_batch_rows))

    def lp_oracle(self):
        """The LP oracle to hand to frank_wolfe_variant's ``oracle=`` hook."""
        if not self.tracing:
            return geometry.linear_maximize
        traced = self.wrap("geometry.lp", geometry.linear_maximize)

        def sampled(P, c):
            sol = traced(P, c)
            self._lp_seen += 1
            if self._lp_seen % LP_SAMPLE_EVERY == 1 and len(self.lp_samples) < LP_SAMPLE_CAP:
                self.lp_samples.append((P, np.array(c, dtype=float), sol.objective))
            return sol

        return sampled

    @contextlib.contextmanager
    def installed(self):
        """Patch the package for the length of the block."""
        patches = self._capture_patches()
        if self.tracing:
            patches += self._span_patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def _capture_patches(self):
        run_method = harness._run_method
        dg = self.wrap("solvers.dg", harness.double_greedy)
        records = self.records

        def captured_dg(f, box, cfg):
            x, tx, ty = dg(f, box, cfg)
            self._last_dg = (tx, ty)   # _run_method passes on only the first trace
            return x, tx, ty

        def captured_method(method, ctx, cfg, seed):
            self._last_dg = None
            start = perf_counter()
            x, trace = run_method(method, ctx, cfg, seed)
            records.append({"method": method, "ctx": ctx, "seed": seed, "x": np.array(x),
                            "trace": trace, "seconds": perf_counter() - start,
                            "dg_traces": self._last_dg})
            return x, trace

        return [(harness, "_run_method", captured_method),
                (harness, "double_greedy", captured_dg)]

    def _span_patches(self):
        w = self.wrap
        build = w("harness.build", harness._build_instance)

        def build_traced(cfg, seed, sweep):
            ctx = build(cfg, seed, sweep)
            ctx["handle"] = self.handle(ctx["handle"])
            return ctx

        eval_batch = w("core.eval_batch", core.eval_batch, _count_fallback_rows)
        max1d = w("solvers.max1d", solvers.maximize_1d)
        io_csv = w("harness.io", harness.write_trace_csv)
        io_json = w("harness.io", harness._write_json)
        return [
            (solvers, "linear_maximize", self.lp_oracle()),
            (baselines, "hit_and_run", w("geometry.har", geometry.hit_and_run,
                                         _count_har_steps)),
            (baselines, "project_polytope", w("geometry.proj", geometry.project_polytope)),
            (baselines, "ratio_shrink", w("geometry.shrink", geometry.ratio_shrink)),
            (baselines, "eval_batch", eval_batch),
            (harness, "eval_batch", eval_batch),
            (properties, "eval_batch", eval_batch),
            (solvers, "maximize_1d", max1d),
            (baselines, "maximize_1d", max1d),
            (harness, "frank_wolfe_variant", w("solvers.fw", harness.frank_wolfe_variant)),
            (harness, "random_best_of", w("baselines.random", harness.random_best_of)),
            (harness, "random_cube_baseline", w("baselines.random_cube",
                                                harness.random_cube_baseline)),
            (harness, "proj_grad_ascent", w("baselines.proj_grad", harness.proj_grad_ascent)),
            (harness, "single_greedy", w("baselines.single_greedy", harness.single_greedy)),
            (harness, "_build_instance", build_traced),
            (harness, "grid_brute_force", w("harness.grid", harness.grid_brute_force,
                                            _count_grid_points)),
            (harness, "write_trace_csv", io_csv),
            (harness, "_write_json", io_json),
        ]


def layer_metrics(spans: Spans, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced rounds, per round where they are totals."""
    calls, busy, self_time, counts = spans.calls, spans.busy, spans.self_time, spans.counts

    def per_call(name, scale, work=None):
        n = calls[name] if work is None else work
        return busy[name] / n * scale if n else 0.0

    max1d = calls["solvers.max1d"]
    probes = spans.child_calls[("solvers.max1d", "zoo.value")]
    batch_busy = busy["zoo.value_batch"]
    r = float(rounds)
    return {
        "geometry.lp_calls": (calls["geometry.lp"] / r, "count"),
        "geometry.lp_ms": (per_call("geometry.lp", 1e3), "ms"),
        "geometry.lp_busy_s": (busy["geometry.lp"] / r, "s"),
        "geometry.har_steps": (counts["har_steps"] / r, "count"),
        "geometry.har_step_us": (per_call("geometry.har", 1e6, counts["har_steps"]), "us"),
        "geometry.har_busy_s": (busy["geometry.har"] / r, "s"),
        "geometry.proj_calls": (calls["geometry.proj"] / r, "count"),
        "geometry.proj_ms": (per_call("geometry.proj", 1e3), "ms"),
        "geometry.shrink_calls": (calls["geometry.shrink"] / r, "count"),
        "geometry.shrink_us": (per_call("geometry.shrink", 1e6), "us"),
        "zoo.value_calls": (calls["zoo.value"] / r, "count"),
        "zoo.value_us": (per_call("zoo.value", 1e6), "us"),
        "zoo.gradient_calls": (calls["zoo.gradient"] / r, "count"),
        "zoo.gradient_us": (per_call("zoo.gradient", 1e6), "us"),
        "zoo.batch_rows": (counts["batch_rows"] / r, "count"),
        "zoo.batch_rows_per_s": (counts["batch_rows"] / batch_busy if batch_busy else 0.0,
                                 "1/s"),
        "core.eval_batch_fallback_rows": (counts["fallback_rows"] / r, "count"),
        "solvers.max1d_calls": (max1d / r, "count"),
        "solvers.max1d_us": (per_call("solvers.max1d", 1e6), "us"),
        "solvers.probes_per_max1d": (probes / max1d if max1d else 0.0, "count"),
        "solvers.fw_self_s": (self_time["solvers.fw"] / r, "s"),
        "solvers.dg_self_s": (self_time["solvers.dg"] / r, "s"),
        "baselines.random_self_s": (self_time["baselines.random"] / r, "s"),
        "properties.check_calls": (calls["properties.check"] / r, "count"),
        "properties.check_ms": (per_call("properties.check", 1e3), "ms"),
        "harness.grid_points": (counts["grid_points"] / r, "count"),
        "harness.grid_s": (busy["harness.grid"] / r, "s"),
        "harness.build_s": (busy["harness.build"] / r, "s"),
        "harness.io_s": (busy["harness.io"] / r, "s"),
    }
