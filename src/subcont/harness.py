"""Experiment orchestration: instance building, the grid brute-force oracle,
method dispatch, and CSV/JSON emission.

Layout of an output directory:
  manifest.json           run recipe (written before any result file)
  traces/<method>__sweep<value>__seed<seed>.csv
  summary.json            per-method mean/std of final values per sweep point
  results.json            per-run records including wall time
  property_report.json    (property_check runs only)

Re-running with the same configuration reproduces byte-identical CSVs; trace
CSV header is exactly ``iteration,t,objective,feasibility_residual``.
"""
from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .baselines import proj_grad_ascent, random_best_of, random_cube_baseline, single_greedy
from .core import (Array, BoxDomain, ObjectiveHandle, PolytopeDomain,
                   SolverTrace, eval_batch)
from .geometry import feasibility_residual
from .properties import CHECKERS
from .solvers import (CONCAVE_MODE, DGConfig, FWConfig, QUADRATIC_MODE,
                      REVENUE_MODE, double_greedy, frank_wolfe_variant)
from .zoo import (BipartiteInfluenceInstance, RevenueInstance, balanced_revenue,
                  gen_bipartite_influence, gen_monotone_nqp,
                  gen_nonmonotone_nqp, gen_revenue, named_instance)

EXPERIMENTS = ("monotone_nqp", "nonmonotone_nqp", "budget_allocation",
               "revenue", "property_check")

_DEFAULT_METHODS = {
    "monotone_nqp": ["frank_wolfe", "random", "random_cube", "proj_grad"],
    "budget_allocation": ["frank_wolfe", "random", "random_cube", "proj_grad"],
    "nonmonotone_nqp": ["double_greedy", "random_cube", "single_greedy", "proj_grad"],
    "revenue": ["double_greedy", "random_cube", "single_greedy"],
}

TRACE_HEADER = "iteration,t,objective,feasibility_residual"


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 4
    m: int = 2
    seeds: list[int] = field(default_factory=lambda: [0])
    K: int = 50
    gamma: float | None = None
    delta: float = 0.0
    steps: list[float] = field(default_factory=lambda: [1e-4, 1e-3, 1e-2])
    k_s: int = 1000
    data_path: str | None = None
    output_dir: str = "results"
    sweep: list[float] = field(default_factory=lambda: [0.5, 1.0, 1.5, 2.0])
    methods: list[str] | None = None
    grid_oracle: bool = False
    grid_points: int = 51
    function: str | None = None      # property_check target
    prop: str | None = None          # property_check property name
    trials: int = 500                # property_check trial count

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.experiment == "property_check":
            if not self.function:
                raise ValueError("property_check needs a target function")
            if self.prop not in CHECKERS:
                raise ValueError(f"unknown property {self.prop!r}; "
                                 f"choose from {sorted(CHECKERS)}")
            if self.trials < 1:
                raise ValueError("trials must be positive")
            return
        if self.n < 1 or (self.experiment == "monotone_nqp" and self.m < 1):
            raise ValueError("instance sizes must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.K < 1:
            raise ValueError("iteration budget K must be positive")
        if self.gamma is not None and not (0 < self.gamma <= 1):
            raise ValueError("gamma must lie in (0, 1]")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.k_s < 1:
            raise ValueError("k_s must be positive")
        if not self.sweep or any(s <= 0 for s in self.sweep):
            raise ValueError("sweep values must be positive")
        box_only = {"double_greedy", "single_greedy"}
        for mname in self.resolved_methods():
            base = mname.split("_step")[0]
            if base not in ("frank_wolfe", "random", "random_cube", "proj_grad",
                            "double_greedy", "single_greedy"):
                raise ValueError(f"unknown method {mname!r}")
            if base in box_only and self.experiment in ("monotone_nqp",
                                                        "budget_allocation"):
                raise ValueError(f"{mname} needs a box-constrained experiment")
        if self.grid_oracle:
            if self.n > 6 or self.grid_points ** self.n > 1e8:
                raise ValueError("grid oracle guard: needs n <= 6 and "
                                 "grid_points^n <= 1e8")

    def resolved_methods(self) -> list[str]:
        return list(self.methods) if self.methods is not None \
            else list(_DEFAULT_METHODS.get(self.experiment, []))


@dataclass
class ResultRecord:
    method: str
    instance_seed: int
    sweep_value: float
    final_value: float
    trace_path: str
    wall_time: float


def load_bipartite_tsv(path, alpha: float = 1.0, beta: float = 1.0,
                       gamma: float = 1.0, u_scale: float = 1.0):
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
        return balanced_revenue(W, sa, np.full(n, float(u_scale)), alpha, beta, gamma,
                                meta={"node_index": node_ids, "path": str(path)})
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def grid_brute_force(f: ObjectiveHandle, domain, points_per_dim: int,
                     chunk: int = 200_000) -> tuple[Array, float]:
    """Exhaustive scan of a uniform grid over the domain's box, restricted to
    feasible points for polytopes.  The returned value never exceeds the true
    maximum, so it is safe on the lower side of approximation-bound checks.

    Points are visited in row-major order (the last coordinate varies
    fastest), and the earliest maximiser in that order wins ties.  ``chunk``
    bounds the rows per objective evaluation: the grid of the trailing axes
    that fits in ``chunk`` rows is laid out once, and each combination of the
    remaining leading coordinates is written into it and evaluated.
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
    if points_per_dim < 1:
        raise ValueError("points_per_dim must be positive")
    if chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
    if n > 6 or points_per_dim ** n > 1e8:
        raise ValueError("grid oracle guard: needs n <= 6 and points_per_dim^n <= 1e8")
    axes = [np.linspace(lo[i], hi[i], points_per_dim) for i in range(n)]
    lead = 0
    while points_per_dim ** (n - lead) > chunk:
        lead += 1
    block = np.empty((points_per_dim,) * (n - lead) + (n,))
    for i in range(lead, n):
        shape = [1] * (n - lead)
        shape[i - lead] = points_per_dim
        block[..., i] = axes[i].reshape(shape)
    block = block.reshape(-1, n)
    best_val = -np.inf
    best_x = None
    for head in itertools.product(*axes[:lead]):
        block[:, :lead] = head
        X = block
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


def _box_polytope(box: BoxDomain) -> PolytopeDomain:
    if np.any(box.lower != 0):
        raise ValueError("sampling baselines need a box anchored at the origin")
    n = box.dimension
    return PolytopeDomain(np.zeros((0, n)), np.zeros(0), box.upper.copy())


def _build_instance(cfg: ExperimentConfig, seed: int, sweep: float) -> dict:
    """Instance context for one (seed, sweep) cell: handle, domains, 1-D mode."""
    if cfg.experiment == "monotone_nqp":
        inst, P0 = gen_monotone_nqp(cfg.n, cfg.m, seed)
        P = PolytopeDomain(P0.A, np.full(cfg.m, sweep), P0.upper)
        return {"handle": inst.handle(P.box()), "polytope": P, "box": P.box(),
                "mode": QUADRATIC_MODE, "oracle_domain": P, "instance": inst}
    if cfg.experiment == "nonmonotone_nqp":
        inst, box = gen_nonmonotone_nqp(cfg.n, seed, u_scale=sweep)
        return {"handle": inst.handle(box), "polytope": _box_polytope(box),
                "box": box, "mode": QUADRATIC_MODE, "oracle_domain": box,
                "instance": inst}
    if cfg.experiment == "budget_allocation":
        if cfg.data_path:
            inst = load_bipartite_tsv(cfg.data_path)
            if not isinstance(inst, BipartiteInfluenceInstance):
                raise ValueError("budget_allocation needs an influence edge list")
        else:
            inst = gen_bipartite_influence(cfg.n, 2 * cfg.n, 4 * cfg.n, seed)
        n = inst.dimension
        rng = np.random.default_rng(_subseed(seed, 77))
        A = rng.uniform(0.5, 1.5, size=(1, n))
        P = PolytopeDomain(A, np.array([0.25 * n * sweep]), np.ones(n))
        return {"handle": inst.handle(), "polytope": P, "box": P.box(),
                "mode": CONCAVE_MODE, "oracle_domain": P, "instance": inst}
    if cfg.experiment == "revenue":
        if cfg.data_path:
            inst = load_bipartite_tsv(cfg.data_path, u_scale=sweep)
            if not isinstance(inst, RevenueInstance):
                raise ValueError("revenue needs a revenue edge list")
        else:
            inst = gen_revenue(cfg.n, 3 * cfg.n, seed, u_scale=sweep)
        box = inst.box()
        return {"handle": inst.handle(), "polytope": _box_polytope(box),
                "box": box, "mode": REVENUE_MODE, "oracle_domain": box,
                "instance": inst}
    raise ValueError(f"no instance builder for {cfg.experiment!r}")


def _single_row_trace(value: float, domain, x) -> SolverTrace:
    trace = SolverTrace()
    trace.append(0, 0.0, value, feasibility_residual(domain, x))
    return trace


def _run_method(method: str, ctx: dict, cfg: ExperimentConfig,
                seed: int) -> tuple[Array, SolverTrace]:
    handle = ctx["handle"]
    if method == "frank_wolfe":
        fw = FWConfig(gamma=cfg.gamma, K=cfg.K if cfg.gamma is None else None,
                      delta=cfg.delta)
        x, trace = frank_wolfe_variant(handle, ctx["polytope"], fw)
        return x, trace
    if method == "double_greedy":
        dg = DGConfig(seed=_subseed(seed, 5), delta=cfg.delta, mode=ctx["mode"])
        x, trace_x, _ = double_greedy(handle, ctx["box"], dg)
        return x, trace_x
    if method == "random":
        x, v = random_best_of(handle, ctx["polytope"], cfg.k_s, _subseed(seed, 11))
        return x, _single_row_trace(v, ctx["polytope"], x)
    if method == "random_cube":
        x, v = random_cube_baseline(handle, ctx["polytope"], cfg.k_s, _subseed(seed, 13))
        return x, _single_row_trace(v, ctx["polytope"], x)
    if method == "single_greedy":
        x, v = single_greedy(handle, ctx["box"], mode=ctx["mode"])
        return x, _single_row_trace(v, ctx["box"], x)
    if method.startswith("proj_grad"):
        step = float(method.split("_step", 1)[1]) if "_step" in method else cfg.steps[0]
        domain = ctx["polytope"] if ctx["polytope"].num_rows else ctx["box"]
        x, _, trace = proj_grad_ascent(handle, domain, step, cfg.K)
        return x, trace
    raise ValueError(f"unknown method {method!r}")


def _expand_methods(cfg: ExperimentConfig) -> list[str]:
    out = []
    for m in cfg.resolved_methods():
        if m == "proj_grad":
            out.extend(f"proj_grad_step{s:g}" for s in cfg.steps)
        else:
            out.append(m)
    return out


def write_trace_csv(path: Path, trace: SolverTrace) -> None:
    rows = [TRACE_HEADER]
    rows.extend(f"{r.iteration},{r.t:.17g},{r.objective:.17g},"
                f"{r.feasibility_residual:.17g}" for r in trace.records)
    path.write_text("\n".join(rows) + "\n")


def read_trace_csv(path) -> list[tuple[int, float, float, float]]:
    lines = Path(path).read_text().splitlines()
    if lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: unexpected trace header {lines[0]!r}")
    out = []
    for line in lines[1:]:
        it, t, obj, res = line.split(",")
        out.append((int(it), float(t), float(obj), float(res)))
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _manifest(cfg: ExperimentConfig, status: str, error: str | None = None) -> dict:
    doc = asdict(cfg)
    doc["methods"] = _expand_methods(cfg) if cfg.experiment != "property_check" else []
    doc["status"] = status
    doc["error"] = error
    doc["proj_grad_steps_are_library_defaults"] = cfg.steps == [1e-4, 1e-3, 1e-2]
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
        records = _run_property_check(cfg, out) if cfg.experiment == "property_check" \
            else _run_sweep(cfg, out)
    except Exception as e:
        _write_json(out / "manifest.json", _manifest(cfg, "failed", f"{type(e).__name__}: {e}"))
        raise
    _write_json(out / "manifest.json", _manifest(cfg, "completed"))
    return records


def _run_property_check(cfg: ExperimentConfig, out: Path) -> list[ResultRecord]:
    seed = cfg.seeds[0]
    handle, box = _function_or_path(cfg.function, cfg.n, seed)
    checker = CHECKERS[cfg.prop]
    start = time.perf_counter()
    report = checker(handle, box, cfg.trials, 1e-9, seed=seed)
    elapsed = time.perf_counter() - start
    payload = {"function": cfg.function, "property": cfg.prop, "seed": seed,
               "report": report.to_dict()}
    report_path = out / "property_report.json"
    _write_json(report_path, payload)
    return [ResultRecord(method=f"property:{cfg.prop}", instance_seed=seed,
                         sweep_value=0.0, final_value=report.worst_violation,
                         trace_path=str(report_path), wall_time=elapsed)]


def _function_or_path(name: str, n: int, seed: int):
    if Path(name).exists():
        inst = load_bipartite_tsv(name)
        handle = inst.handle()
        if isinstance(inst, RevenueInstance):
            return handle, inst.box()
        return handle, BoxDomain(np.zeros(handle.dimension), np.ones(handle.dimension))
    return named_instance(name, n, seed)


def _run_sweep(cfg: ExperimentConfig, out: Path) -> list[ResultRecord]:
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
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
                _, f_star = grid_brute_force(ctx["handle"], ctx["oracle_domain"],
                                             cfg.grid_points)
                oracle.setdefault(f"{sweep:g}", {})[str(seed)] = f_star
            for method in methods:
                start = time.perf_counter()
                x, trace = _run_method(method, ctx, cfg, seed)
                elapsed = time.perf_counter() - start
                dom = ctx["box"] if method.split("_step")[0] in \
                    ("double_greedy", "single_greedy") else ctx["polytope"]
                if feasibility_residual(dom, x) > 1e-6:
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
