"""Experiment orchestration: instance building, the grid brute-force oracle,
method dispatch, and CSV/JSON emission.

Two tables drive a sweep: ``_EXPERIMENTS`` (per experiment: domain kind, data
use, default methods, build function) and ``_METHODS`` (per method: domain,
call).  A cell has one ``PolytopeDomain``, without rows on a box.

Layout of an output directory:
  manifest.json           run recipe (written before any result file)
  traces/<method>__sweep<value>__seed<seed>.csv
  summary.json            per-method mean/std of final values per sweep point
  results.json            per-run records including wall time

Re-running with the same configuration reproduces byte-identical CSVs; trace
CSV header is exactly ``iteration,t,objective,feasibility_residual``.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .baselines import proj_grad_ascent, random_best_of, random_cube_baseline, single_greedy
from .core import (Array, BoxDomain, ObjectiveHandle, PolytopeDomain,
                   SolverTrace, check_positive_int, eval_batch)
from .geometry import feasibility_residual
from .solvers import (CONCAVE_MODE, DGConfig, FWConfig, QUADRATIC_MODE,
                      REVENUE_MODE, double_greedy, frank_wolfe_variant)
from .zoo import (BipartiteInfluenceInstance, RevenueInstance, balanced_revenue,
                  gen_bipartite_influence, gen_monotone_nqp,
                  gen_nonmonotone_nqp, gen_revenue)

TRACE_HEADER = "iteration,t,objective,feasibility_residual"


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 4
    m: int = 2
    seeds: list[int] = field(default_factory=lambda: [0])
    K: int = 50
    steps: list[float] = field(default_factory=lambda: [1e-4, 1e-3, 1e-2])
    k_s: int = 1000
    data_path: str | None = None
    output_dir: str = "results"
    sweep: list[float] = field(default_factory=lambda: [0.5, 1.0, 1.5, 2.0])
    methods: list[str] | None = None
    grid_oracle: bool = False
    grid_points: int = 51

    def validate(self) -> None:
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {list(_EXPERIMENTS)}")
        if self.data_path:
            if not _EXPERIMENTS[self.experiment].reads_data:
                raise ValueError(f"{self.experiment} reads no data file, got {self.data_path!r}")
            if not Path(self.data_path).is_file():
                raise ValueError(f"data_path {self.data_path!r} is not a file")
        check_positive_int("instance size n", self.n)
        check_positive_int("constraint count m", self.m)
        check_positive_int("grid_points", self.grid_points)
        if not self.seeds:
            raise ValueError("need at least one seed")
        for seed in self.seeds:
            if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
                raise ValueError(f"seed {seed!r} must be a non-negative int")
        _reject_collisions("seeds", self.seeds, str)
        check_positive_int("iteration budget K", self.K)
        check_positive_int("sample count k_s", self.k_s)
        if not self.sweep or not all(math.isfinite(s) and s > 0 for s in self.sweep):
            raise ValueError("sweep values must be finite and positive")
        _reject_collisions("sweep values", self.sweep, lambda s: f"{s:g}")
        methods = self.resolved_methods()
        if not methods:
            raise ValueError("need at least one method")
        for m in methods:
            if m not in _METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {list(_METHODS)}")
            if _METHODS[m].domain == "box" and _EXPERIMENTS[self.experiment].domain != "box":
                raise ValueError(f"{m} needs a box-constrained experiment")
        if not all(math.isfinite(s) and s > 0 for s in self.steps):
            raise ValueError(f"proj_grad steps must be finite and positive, got {self.steps}")
        if not self.steps and "proj_grad" in methods:
            raise ValueError("proj_grad needs at least one step size")
        _reject_collisions("methods", _expand_methods(self), str)
        if self.grid_oracle:
            if self.n > 6 or self.grid_points ** self.n > 1e8:
                raise ValueError("grid oracle guard: needs n <= 6 and "
                                 "grid_points^n <= 1e8")

    def resolved_methods(self) -> list[str]:
        return list(self.methods) if self.methods is not None \
            else list(_EXPERIMENTS[self.experiment].methods)


def _reject_collisions(what: str, values, name) -> None:
    """Raise if two of ``values`` share an output name ``name(value)``."""
    first: dict[str, int] = {}
    for i, v in enumerate(values):
        j = first.setdefault(name(v), i)
        if j != i:
            raise ValueError(f"{what} {values[j]!r} and {v!r} share the output "
                             f"name {name(v)!r}")


@dataclass
class ResultRecord:
    method: str
    instance_seed: int
    sweep_value: float
    final_value: float
    trace_path: str
    wall_time: float


def load_bipartite_tsv(path, u_scale: float = 1.0):
    """Parse a ``# kind=influence|revenue`` edge list with lines
    ``source<TAB>target<TAB>weight``.

    Influence weights must lie strictly in (0, 1); revenue weights must be
    nonnegative, with self-loops giving self-activation rates.  Node ids are
    mapped to dense indices; the mapping lands in the instance ``meta``.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or not lines[0].strip().startswith("#"):
        raise ValueError(f"{path}: missing '# kind=...' header line")
    header = lines[0].strip().lstrip("#").strip()
    if header not in ("kind=influence", "kind=revenue"):
        raise ValueError(f"{path}: header must be '# kind=influence' or "
                         f"'# kind=revenue', got {header!r}")
    kind = header.split("=", 1)[1]
    edges = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected source<TAB>target<TAB>weight")
        src, dst, wtxt = (p.strip() for p in parts)
        try:
            w = float(wtxt)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: weight {wtxt!r} is not a number") from None
        if not np.isfinite(w):
            raise ValueError(f"{path}:{lineno}: weight must be finite")
        edges.append((src, dst, w, lineno))
    if not edges:
        raise ValueError(f"{path}: no edges")

    if kind == "influence":
        src_ids: dict[str, int] = {}
        dst_ids: dict[str, int] = {}
        probs: dict[tuple[int, int], float] = {}
        for src, dst, w, lineno in edges:
            if not (0.0 < w < 1.0):
                raise ValueError(f"{path}:{lineno}: influence weight of edge "
                                 f"({src}, {dst}) must lie in (0, 1), got {w}")
            s = src_ids.setdefault(src, len(src_ids))
            t = dst_ids.setdefault(dst, len(dst_ids))
            if (s, t) in probs:
                raise ValueError(f"{path}:{lineno}: duplicate edge ({src}, {dst})")
            probs[(s, t)] = w
        return BipartiteInfluenceInstance(
            len(src_ids), len(dst_ids), probs,
            meta={"source_index": src_ids, "target_index": dst_ids, "path": str(path)})

    node_ids: dict[str, int] = {}
    raw_edges: dict[tuple[int, int], float] = {}
    self_act: dict[int, float] = {}
    for src, dst, w, lineno in edges:
        if w < 0:
            raise ValueError(f"{path}:{lineno}: revenue weight of edge "
                             f"({src}, {dst}) must be nonnegative, got {w}")
        s = node_ids.setdefault(src, len(node_ids))
        t = node_ids.setdefault(dst, len(node_ids))
        if s == t:
            if s in self_act:
                raise ValueError(f"{path}:{lineno}: duplicate self-loop ({src}, {dst})")
            self_act[s] = w
        else:
            key = (min(s, t), max(s, t))
            if key in raw_edges:
                raise ValueError(f"{path}:{lineno}: duplicate edge ({src}, {dst})")
            raw_edges[key] = w
    n = len(node_ids)
    W = np.zeros((n, n))
    for (s, t), w in raw_edges.items():
        W[s, t] = W[t, s] = w
    sa = np.zeros(n)
    for t, w in self_act.items():
        sa[t] = w
    try:
        return balanced_revenue(W, sa, np.full(n, float(u_scale)), alpha=1.0, beta=1.0,
                                gamma=1.0, meta={"node_index": node_ids, "path": str(path)})
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def grid_brute_force(f: ObjectiveHandle, domain, points_per_dim: int,
                     chunk: int = 2 ** 14) -> tuple[Array, float]:
    """Exhaustive scan of a uniform grid over the domain's box, restricted to
    feasible points for polytopes.  The returned value never exceeds the true
    maximum, so it is safe on the lower side of approximation-bound checks.

    Points are visited in row-major order (the last coordinate varies
    fastest), and the earliest maximiser in that order wins ties.  ``chunk``
    bounds the rows per objective evaluation.  A run is the grid of the
    trailing axes that fits in ``chunk`` rows; each block holds as many whole
    runs as fit, one per consecutive value of the axis before them, and is
    laid out once and refilled in place.  The default of ``2**14`` rows keeps
    a block and its ``value_batch`` temporaries small enough that the
    allocator reuses their pages: a 21^4 grid in one 194,481-row block took
    about 1,350 minor page faults on every call.
    """
    if isinstance(domain, BoxDomain):
        lo, hi = domain.lower, domain.upper
        P = None
    elif isinstance(domain, PolytopeDomain):
        lo, hi = np.zeros(domain.dimension), domain.upper
        P = domain
    else:
        raise TypeError("domain must be a BoxDomain or PolytopeDomain")
    n = lo.shape[0]
    check_positive_int("points_per_dim", points_per_dim)
    check_positive_int("chunk", chunk)
    if n > 6 or points_per_dim ** n > 1e8:
        raise ValueError("grid oracle guard: needs n <= 6 and points_per_dim^n <= 1e8")
    axes = [np.linspace(lo[i], hi[i], points_per_dim) for i in range(n)]
    lead = 1
    while points_per_dim ** (n - lead) > chunk:
        lead += 1
    t = points_per_dim ** (n - lead)
    runs = min(points_per_dim, chunk // t)
    block = np.empty((runs,) + (points_per_dim,) * (n - lead) + (n,))
    for i in range(lead, n):
        shape = [1] * (n - lead + 1)
        shape[i - lead + 1] = points_per_dim
        block[..., i] = axes[i].reshape(shape)
    rows = block.reshape(-1, n)
    best_val = -np.inf
    best_x = None
    for head in itertools.product(*axes[:lead - 1]):
        rows[:, :lead - 1] = head
        for j in range(0, points_per_dim, runs):
            run_values = axes[lead - 1][j:j + runs]
            k = run_values.shape[0]
            block[:k, ..., lead - 1] = run_values.reshape((k,) + (1,) * (n - lead))
            X = rows[:k * t]
            if P is not None and P.num_rows:
                mask = np.all(X @ P.A.T <= P.b + 1e-12, axis=1)
                if not mask.any():
                    continue
                X = X[mask]
            vals = eval_batch(f, X)
            i_best = int(np.argmax(vals))
            if vals[i_best] > best_val:
                best_val = float(vals[i_best])
                best_x = X[i_best].copy()
    if best_x is None:
        raise RuntimeError("no feasible grid point; should not happen with b >= 0")
    return best_x, best_val


def _subseed(seed: int, tag: int) -> int:
    return (seed * 1_000_003 + tag) % (2 ** 63)


def _monotone_nqp(cfg: ExperimentConfig, seed: int, sweep: float):
    inst, P0 = gen_monotone_nqp(cfg.n, cfg.m, seed)
    P = PolytopeDomain(P0.A, np.full(cfg.m, sweep), P0.upper)
    return inst, inst.handle(P.box()), P, QUADRATIC_MODE


def _nonmonotone_nqp(cfg: ExperimentConfig, seed: int, sweep: float):
    inst, box = gen_nonmonotone_nqp(cfg.n, seed, u_scale=sweep)
    return inst, inst.handle(box), PolytopeDomain([], [], box.upper), QUADRATIC_MODE


def _budget_allocation(cfg: ExperimentConfig, seed: int, sweep: float):
    inst = load_bipartite_tsv(cfg.data_path) if cfg.data_path else \
        gen_bipartite_influence(cfg.n, 2 * cfg.n, 4 * cfg.n, seed)
    if not isinstance(inst, BipartiteInfluenceInstance):
        raise ValueError("budget_allocation needs an influence edge list")
    n = inst.dimension
    A = np.random.default_rng(_subseed(seed, 77)).uniform(0.5, 1.5, size=(1, n))
    return inst, inst.handle(), PolytopeDomain(A, [0.25 * n * sweep], np.ones(n)), CONCAVE_MODE


def _revenue(cfg: ExperimentConfig, seed: int, sweep: float):
    inst = load_bipartite_tsv(cfg.data_path, u_scale=sweep) if cfg.data_path else \
        gen_revenue(cfg.n, 3 * cfg.n, seed, u_scale=sweep)
    if not isinstance(inst, RevenueInstance):
        raise ValueError("revenue needs a revenue edge list")
    return inst, inst.handle(), PolytopeDomain([], [], inst.upper), REVENUE_MODE


# Each experiment: the domain of its instances ("polytope", or "box": a polytope
# without rows), whether it reads a set ``data_path``, its default methods, and
# its build function (cfg, seed, sweep) -> (instance, handle, polytope, mode).
_Experiment = namedtuple("_Experiment", "domain reads_data methods build")
_EXPERIMENTS = {
    "monotone_nqp": _Experiment("polytope", False, [
        "frank_wolfe", "random", "random_cube", "proj_grad"], _monotone_nqp),
    "budget_allocation": _Experiment("polytope", True, [
        "frank_wolfe", "random", "random_cube", "proj_grad"], _budget_allocation),
    "nonmonotone_nqp": _Experiment("box", False, [
        "double_greedy", "random_cube", "single_greedy", "proj_grad"], _nonmonotone_nqp),
    "revenue": _Experiment("box", True, [
        "double_greedy", "random_cube", "single_greedy"], _revenue),
}


def _build_instance(cfg: ExperimentConfig, seed: int, sweep: float) -> dict:
    """Instance context for one (seed, sweep) cell: handle, domains, 1-D mode."""
    inst, handle, P, mode = _EXPERIMENTS[cfg.experiment].build(cfg, seed, sweep)
    return {"handle": handle, "polytope": P, "box": P.box(), "mode": mode, "instance": inst}


# Each method: the ctx key of the domain it runs on, and its call (ctx, cfg, seed,
# step) -> (x, trace), or (x, value) for a sampler.  The calls name the solvers at
# call time, so a solver swapped on this module (as the benchmark's tracer does) runs.
_Method = namedtuple("_Method", "domain call")
_METHODS = {
    "frank_wolfe": _Method("polytope", lambda ctx, cfg, seed, step: frank_wolfe_variant(
        ctx["handle"], ctx["polytope"], FWConfig(K=cfg.K))),
    "random": _Method("polytope", lambda ctx, cfg, seed, step: random_best_of(
        ctx["handle"], ctx["polytope"], cfg.k_s, _subseed(seed, 11))),
    "random_cube": _Method("polytope", lambda ctx, cfg, seed, step: random_cube_baseline(
        ctx["handle"], ctx["polytope"], cfg.k_s, _subseed(seed, 13))),
    # proj_grad_ascent returns (x, value, trace) and double_greedy (x, trace_x,
    # trace_y); a polytope without rows is a box, where the projection is a clip
    "proj_grad": _Method("polytope", lambda ctx, cfg, seed, step: proj_grad_ascent(
        ctx["handle"], ctx["polytope"] if ctx["polytope"].num_rows else ctx["box"],
        step, cfg.K)[::2]),
    "double_greedy": _Method("box", lambda ctx, cfg, seed, step: double_greedy(
        ctx["handle"], ctx["box"], DGConfig(seed=_subseed(seed, 5), mode=ctx["mode"]))[:2]),
    "single_greedy": _Method("box", lambda ctx, cfg, seed, step: single_greedy(
        ctx["handle"], ctx["box"], mode=ctx["mode"])),
}


def _run_method(method: str, ctx: dict, cfg: ExperimentConfig,
                seed: int) -> tuple[Array, SolverTrace]:
    """Run one of ``_expand_methods(cfg)`` on a cell."""
    runs = {name: (base, step) for name, base, step in _method_runs(cfg)}
    if method not in runs:
        raise ValueError(f"unknown method {method!r}")
    base, step = runs[method]
    domain, call = _METHODS[base]
    x, out = call(ctx, cfg, seed, step)
    if isinstance(out, SolverTrace):
        return x, out
    trace = SolverTrace()
    trace.append(0, 0.0, out, feasibility_residual(ctx[domain], x))
    return x, trace


def _method_runs(cfg: ExperimentConfig) -> list[tuple[str, str, float | None]]:
    """(output name, method, step) of each run in a cell, in order: a
    ``proj_grad`` run per entry of ``cfg.steps``, named by the step, and one
    run, with step None, of every other method."""
    out = []
    for m in cfg.resolved_methods():
        if m == "proj_grad":
            out.extend((f"proj_grad_step{s:g}", m, s) for s in cfg.steps)
        else:
            out.append((m, m, None))
    return out


def _expand_methods(cfg: ExperimentConfig) -> list[str]:
    return [name for name, _, _ in _method_runs(cfg)]


def write_trace_csv(path: Path, trace: SolverTrace) -> None:
    rows = [TRACE_HEADER]
    rows.extend(f"{r.iteration},{r.t:.17g},{r.objective:.17g},"
                f"{r.feasibility_residual:.17g}" for r in trace.records)
    path.write_text("\n".join(rows) + "\n")


def read_trace_csv(path) -> list[tuple[int, float, float, float]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        found = lines[0] if lines else "an empty file"
        raise ValueError(f"{path}:1: expected header {TRACE_HEADER!r}, got {found!r}")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            it, t, obj, res = line.split(",")
            out.append((int(it), float(t), float(obj), float(res)))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected four numbers, "
                             f"got {line!r}") from None
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _manifest(cfg: ExperimentConfig, status: str, error: str | None = None) -> dict:
    doc = asdict(cfg)
    doc["methods"] = _expand_methods(cfg)
    doc["status"] = status
    doc["error"] = error
    return doc


def run_experiment(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Run one experiment sweep and write manifest, traces, and summaries.

    The manifest lands on disk before any result file so a crashed run is
    still legible; on failure it is rewritten with the error and partial
    outputs are kept.
    """
    cfg.validate()
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", _manifest(cfg, "running"))
    try:
        records = _run_sweep(cfg, out)
    except Exception as e:
        _write_json(out / "manifest.json", _manifest(cfg, "failed", f"{type(e).__name__}: {e}"))
        raise
    _write_json(out / "manifest.json", _manifest(cfg, "completed"))
    return records


def _run_sweep(cfg: ExperimentConfig, out: Path) -> list[ResultRecord]:
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
    runs = _method_runs(cfg)
    methods = _expand_methods(cfg)
    records: list[ResultRecord] = []
    summary: dict = {"experiment": cfg.experiment, "sweep": list(cfg.sweep),
                     "seeds": list(cfg.seeds), "methods": {m: {} for m in methods}}
    oracle: dict = {}
    for sweep in cfg.sweep:
        finals: dict[str, list[float]] = {m: [] for m in methods}
        for seed in cfg.seeds:
            ctx = _build_instance(cfg, seed, sweep)
            if cfg.grid_oracle:
                _, f_star = grid_brute_force(ctx["handle"], ctx["polytope"],
                                             cfg.grid_points)
                oracle.setdefault(f"{sweep:g}", {})[str(seed)] = f_star
            for method, base, _ in runs:
                start = time.perf_counter()
                x, trace = _run_method(method, ctx, cfg, seed)
                elapsed = time.perf_counter() - start
                if feasibility_residual(ctx[_METHODS[base].domain], x) > 1e-6:
                    raise RuntimeError(f"{method} returned an infeasible point")
                tpath = traces_dir / f"{method}__sweep{sweep:g}__seed{seed}.csv"
                write_trace_csv(tpath, trace)
                final = trace.final_objective
                finals[method].append(final)
                records.append(ResultRecord(method=method, instance_seed=seed,
                                            sweep_value=sweep, final_value=final,
                                            trace_path=str(tpath),
                                            wall_time=elapsed))
        for method in methods:
            vals = np.array(finals[method])
            summary["methods"][method][f"{sweep:g}"] = {
                "mean": float(vals.mean()), "std": float(vals.std()),
                "final_values": [float(v) for v in vals]}
    if cfg.grid_oracle:
        summary["oracle"] = oracle
    _write_json(out / "summary.json", summary)
    _write_json(out / "results.json",
                {"records": [asdict(r) for r in records]})
    return records
