"""Acceptance suite: one test per criterion.  Each test collects its failures,
prints a single PASS/FAIL line with the measured runtime, then asserts.
Shared heavyweight runs live in session fixtures.
"""
import json
import time

import numpy as np
import pytest

from subcont import (BoxDomain, DGConfig, ExperimentConfig, FWConfig,
                     PolytopeDomain, QuadraticInstance,
                     RevenueInstance, check_coordinatewise_concave, check_dr,
                     check_gradient, check_submodular, check_weak_dr,
                     double_greedy, feasibility_residual,
                     frank_wolfe_variant,
                     gen_bipartite_influence, gen_monotone_nqp, gen_nonmonotone_nqp,
                     gen_sensor, gen_summarization, grid_brute_force,
                     largest_abs_eigenvalue, linear_maximize, maximize_1d,
                     read_trace_csv, run_experiment)
from subcont.solvers import QUADRATIC_MODE, REVENUE_MODE

from handles import scalar_handle
from lp_reference import enumerate_vertices

UNIT_BOX4 = BoxDomain(np.zeros(4), np.ones(4))


def _verdict(num, name, failures, elapsed, detail=""):
    status = "PASS" if not failures else "FAIL"
    extra = f"; {detail}" if detail else ""
    print(f"[criterion {num:02d}] {status} - {name} ({elapsed:.1f}s{extra})")
    assert not failures, "; ".join(failures)


def _mixed_sign_quadratic(rng, diag_negative):
    """4-dim quadratic with off-diagonal magnitudes in [0.2, 1] and signs
    drawn uniformly; the diagonal is negative or sign-randomized."""
    n = 4
    mag = rng.uniform(0.2, 1.0, size=(n, n))
    sign = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    upper = np.triu(mag * sign, 1)
    H = upper + upper.T
    dmag = rng.uniform(0.2, 1.0, size=n)
    diag = -dmag if diag_negative else dmag * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    np.fill_diagonal(H, diag)
    return QuadraticInstance(H, rng.uniform(-1.0, 1.0, size=n))


def test_criterion_01_submodularity_equals_weak_dr():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    for idx in range(200):
        inst = _mixed_sign_quadratic(rng, diag_negative=True)
        truth = inst.is_submodular
        h = inst.handle()
        sub = check_submodular(h, UNIT_BOX4, 500, tol=1e-9, seed=idx).ok
        weak = check_weak_dr(h, UNIT_BOX4, 500, tol=1e-9, seed=idx).ok
        if not (sub == weak == truth):
            failures.append(f"instance {idx}: sub={sub} weak={weak} truth={truth}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _verdict(1, "submodularity <=> restricted diminishing returns", failures,
             elapsed, f"{200 - len(failures)}/200 instances")


def test_criterion_02_dr_equals_submodular_plus_coordinatewise_concave():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    failures = []
    for idx in range(200):
        inst = _mixed_sign_quadratic(rng, diag_negative=False)
        h = inst.handle()
        dr = check_dr(h, UNIT_BOX4, 500, tol=1e-9, seed=idx).ok
        sub = check_submodular(h, UNIT_BOX4, 500, tol=1e-9, seed=idx).ok
        concave = check_coordinatewise_concave(h, UNIT_BOX4, 500, tol=1e-9,
                                               seed=idx).ok
        if dr != (sub and concave):
            failures.append(f"instance {idx}: dr={dr} sub={sub} concave={concave}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _verdict(2, "full DR <=> submodular + coordinate-wise concave", failures,
             elapsed, f"{200 - len(failures)}/200 instances")


@pytest.fixture(scope="session")
def conditional_gradient_runs():
    """20 monotone instances (n=3, box plus one row), K=50 gamma=1/K runs,
    plus grid-oracle optima and curvature bounds; shared by criteria 3 and 6."""
    start = time.perf_counter()
    runs = []
    for seed in range(20):
        inst, P = gen_monotone_nqp(3, 1, seed=seed)
        handle = inst.handle(P.box())
        assert handle.value(np.zeros(3)) == 0.0   # the bound below has no f(0) term
        _, trace = frank_wolfe_variant(handle, P, FWConfig(K=50))
        _, f_star = grid_brute_force(handle, P, 101)
        L = largest_abs_eigenvalue(inst.H)
        runs.append({"trace": trace, "f_star": f_star, "L": L})
    return runs, time.perf_counter() - start


def test_criterion_03_conditional_gradient_bound(conditional_gradient_runs):
    runs, elapsed = conditional_gradient_runs
    K = 50
    failures = []
    for i, run in enumerate(runs):
        bound = (1 - 1 / np.e) * run["f_star"] - run["L"] / (2 * K) - 1e-6
        if run["trace"].final_objective < bound:
            failures.append(f"instance {i}: {run['trace'].final_objective} < {bound}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _verdict(3, "(1-1/e) OPT - L/(2K) lower bound, 20 desk-scale instances",
             failures, elapsed)


def test_criterion_04_double_greedy_one_third_bound():
    start = time.perf_counter()
    failures = []
    for seed in range(20):
        inst, box = gen_nonmonotone_nqp(4, seed=seed)
        handle = inst.handle(box)
        _, trace_x, _ = double_greedy(handle, box,
                                      DGConfig(seed=seed, mode=QUADRATIC_MODE))
        _, f_star = grid_brute_force(handle, box, 51)
        if trace_x.final_objective < f_star / 3.0:
            failures.append(f"seed {seed}: {trace_x.final_objective} < {f_star / 3.0}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _verdict(4, "double-greedy value >= f*_grid / 3, 20 instances", failures,
             elapsed)


def test_criterion_05_intermediate_solutions_nondecreasing():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    failures = []
    for idx in range(50):
        n = int(rng.integers(5, 101))
        inst, box = gen_nonmonotone_nqp(n, seed=1000 + idx)
        _, tx, ty = double_greedy(inst.handle(box), box,
                                  DGConfig(seed=idx, mode=QUADRATIC_MODE))
        if not np.all(np.diff(tx.objectives()) >= -1e-9):
            failures.append(f"instance {idx} (n={n}): lower trace dipped")
        if not np.all(np.diff(ty.objectives()) >= -1e-9):
            failures.append(f"instance {idx} (n={n}): upper trace dipped")
    elapsed = time.perf_counter() - start
    _verdict(5, "both greedy traces non-decreasing on 50 instances (n<=100)",
             failures, elapsed)


@pytest.fixture(scope="session")
def method_ordering_experiment(tmp_path_factory):
    """Benchmark-scale monotone sweep shared by criteria 6 and 7."""
    out = tmp_path_factory.mktemp("benchmark_scale")
    cfg = ExperimentConfig(experiment="monotone_nqp", n=100, m=50, K=50,
                           seeds=list(range(20)), sweep=[0.5, 1.0, 1.5, 2.0],
                           methods=["frank_wolfe", "random", "random_cube"],
                           k_s=1000, output_dir=str(out))
    start = time.perf_counter()
    run_experiment(cfg)
    elapsed = time.perf_counter() - start
    summary = json.loads((out / "summary.json").read_text())
    return out, summary, elapsed


@pytest.mark.slow
def test_criterion_06_step_mass_and_feasibility(conditional_gradient_runs,
                                                method_ordering_experiment):
    start = time.perf_counter()
    runs, _ = conditional_gradient_runs
    failures = []
    checked = 0
    for i, run in enumerate(runs):
        t = np.array([r.t for r in run["trace"].records])
        if abs(np.diff(t).sum() - 1.0) > 1e-12:
            failures.append(f"desk run {i}: step mass {np.diff(t).sum()}")
        if any(r.feasibility_residual > 1e-9 for r in run["trace"].records):
            failures.append(f"desk run {i}: infeasible iterate")
        checked += 1
    out, _, _ = method_ordering_experiment
    for csv_path in sorted((out / "traces").glob("frank_wolfe__*.csv")):
        rows = read_trace_csv(csv_path)
        t = np.array([row[1] for row in rows])
        if abs(np.diff(t).sum() - 1.0) > 1e-12:
            failures.append(f"{csv_path.name}: step mass {np.diff(t).sum()}")
        if max(row[3] for row in rows) > 1e-9:
            failures.append(f"{csv_path.name}: infeasible iterate")
        checked += 1
    if checked != 100:   # 20 desk-scale + 80 benchmark-scale runs
        failures.append(f"expected 100 runs, saw {checked}")
    elapsed = time.perf_counter() - start
    _verdict(6, "step mass = 1 (1e-12) and iterate feasibility (1e-9) on "
                "every conditional-gradient run", failures, elapsed,
             f"{checked} runs")


@pytest.mark.slow
def test_criterion_07_method_ordering_at_benchmark_scale(method_ordering_experiment):
    _, summary, elapsed = method_ordering_experiment
    failures = []
    for sweep in ("0.5", "1", "1.5", "2"):
        fw = summary["methods"]["frank_wolfe"][sweep]["mean"]
        cube = summary["methods"]["random_cube"][sweep]["mean"]
        rand = summary["methods"]["random"][sweep]["mean"]
        if fw < cube:
            failures.append(f"b={sweep}: conditional gradient {fw} < cube {cube}")
        if fw < rand:
            failures.append(f"b={sweep}: conditional gradient {fw} < random {rand}")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 300s")
    _verdict(7, "mean method ordering across the budget sweep (n=100, m=50, "
                "20 seeds)", failures, elapsed)


@pytest.mark.slow
@pytest.mark.parametrize("experiment, n, lead", [
    ("nonmonotone_nqp", 100, "double_greedy"),
    ("revenue", 100, "double_greedy"),
    ("budget_allocation", 20, "frank_wolfe"),
])
def test_criterion_07_method_ordering_on_the_other_experiments(tmp_path, experiment, n, lead):
    # the paper's method against every default baseline (each proj_grad step
    # counts as one), at every default sweep value, over 20 seeds
    start = time.perf_counter()
    run_experiment(ExperimentConfig(experiment=experiment, n=n, seeds=list(range(20)),
                                    output_dir=str(tmp_path)))
    summary = json.loads((tmp_path / "summary.json").read_text())
    failures = []
    for sweep in ("0.5", "1", "1.5", "2"):
        ours = summary["methods"][lead][sweep]["mean"]
        for method, means in summary["methods"].items():
            if means[sweep]["mean"] > ours:
                failures.append(f"{sweep}: {lead} {ours} < {method} {means[sweep]['mean']}")
    elapsed = time.perf_counter() - start
    _verdict(7, f"mean method ordering on {experiment} (n={n}, 20 seeds)", failures,
             elapsed)


def test_criterion_08_lp_oracle_matches_vertex_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(4096)
    failures = []
    for trial in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 4))
        P = PolytopeDomain(rng.uniform(0, 1, size=(m, n)),
                           rng.uniform(0.3, 1.5, size=m),
                           rng.uniform(0.3, 1.5, size=n))
        c = rng.normal(size=n)
        sol = linear_maximize(P, c)
        best = max(float(c @ v) for v in enumerate_vertices(P))
        if abs(sol.objective - best) > 1e-8 or feasibility_residual(P, sol.point) > 1e-9:
            failures.append(f"polytope {trial}: lp {sol.objective} vs scan {best}")
    elapsed = time.perf_counter() - start
    _verdict(8, "simplex vertex oracle == brute-force enumeration", failures,
             elapsed, f"{100 - len(failures)}/100 polytopes")


def test_criterion_09_gradient_certification_across_the_zoo():
    start = time.perf_counter()
    families = {
        "quadratic-monotone": gen_monotone_nqp(4, 2, seed=5)[0].handle(),
        "quadratic-general": gen_nonmonotone_nqp(4, seed=5)[0].handle(
            BoxDomain(np.zeros(4), np.ones(4))),
        "influence": gen_bipartite_influence(4, 8, 16, seed=5).handle(),
        "sensor": gen_sensor(4, 3, seed=5).handle(),
        "summarization": gen_summarization(4, seed=5).handle(),
    }
    rng = np.random.default_rng(99)
    failures = []
    for name, handle in families.items():
        for _ in range(50):
            x = rng.uniform(0.05, 0.95, size=handle.dimension)
            report = check_gradient(handle, x, h=1e-5, rel_tol=1e-5)
            if not report.ok:
                failures.append(f"{name}: mismatch {report.witness}")
                break
    elapsed = time.perf_counter() - start
    _verdict(9, "declared gradients match central differences (rel 1e-5, "
                "50 interior points per family)", failures, elapsed)


def test_criterion_10_one_dimensional_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.0, 100_000)
    failures = []
    for trial in range(100):
        a = rng.uniform(-10, 10)
        b = rng.uniform(-10, 10)
        lo = rng.uniform(-1.0, 0.5)
        hi = lo + rng.uniform(0.1, 2.0)
        h = scalar_handle(1, lambda v, a=a, b=b: float(a * v[0] ** 2 + b * v[0]))
        _, val, gap = maximize_1d(h, np.zeros(1), 0, lo, hi, QUADRATIC_MODE)
        zs = lo + grid * (hi - lo)
        scan = float((a * zs * zs + b * zs).max())
        if abs(val - scan) > 1e-8 or gap != 0.0:
            failures.append(f"subproblem {trial}: closed {val} vs scan {scan}")

    worked = RevenueInstance(np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 1.0],
                             alpha=1.0, beta=1.0, gamma=2.0)
    z, val, _ = maximize_1d(worked.handle(), np.zeros(2), 1, 0.0, 1.0,
                            REVENUE_MODE, tol=1e-9)
    if abs(z - 0.25) > 1e-6 or abs(val - 0.25) > 1e-9:
        failures.append(f"worked example: z={z} value={val}")
    if val < worked.value(np.zeros(2)):
        failures.append("worked example: interior search lost to the origin value")
    elapsed = time.perf_counter() - start
    _verdict(10, "quadratic closed form == 1e5-point scan; discontinuous "
                 "revenue subproblem solves its worked example", failures, elapsed)
