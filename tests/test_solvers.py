import dataclasses
import hashlib
import math

import numpy as np
import pytest

from subcont import (BoxDomain, DGConfig, FWConfig, LPSolution, ObjectiveHandle,
                     PolytopeDomain, QuadraticInstance, SolverAbort, double_greedy,
                     feasibility_residual, frank_wolfe_variant, gen_bipartite_influence, geometry,
                     gen_monotone_nqp, gen_nonmonotone_nqp, gen_revenue, grid_brute_force,
                     largest_abs_eigenvalue, linear_maximize, maximize_1d, single_greedy,
                     solvers)
from subcont.solvers import _INVPHI, CONCAVE_MODE, QUADRATIC_MODE, REVENUE_MODE
from subcont.zoo import RevenueInstance

from handles import scalar_handle
from lp_reference import active_constraints, nonbasic_constraints


def _box_polytope(n, upper=1.0):
    return PolytopeDomain(np.zeros((0, n)), np.zeros(0), np.full(n, upper))


# ------------------------------------------------------------- conditional gradient

def test_fw_modular_on_box_reaches_optimum_in_four_steps():
    inst = QuadraticInstance(np.zeros((2, 2)), [1.0, 1.0])
    P = _box_polytope(2)
    x, trace = frank_wolfe_variant(inst.handle(P.box()), P, FWConfig(K=4))
    assert np.array_equal(x, [1.0, 1.0])
    assert trace.final_objective == pytest.approx(2.0)
    assert len(trace) == 5                # initial row + four iterations
    assert trace.records[-1].t == 1.0
    assert trace.meta["gamma"] == 0.25


def test_fw_gamma_one_is_a_single_oracle_step():
    inst, P = gen_monotone_nqp(3, 1, seed=0)
    x, trace = frank_wolfe_variant(inst.handle(P.box()), P, FWConfig(K=1))
    assert len(trace) == 2
    from subcont import linear_maximize
    v = linear_maximize(P, inst.gradient(np.zeros(3))).point
    assert np.array_equal(x, v)


def test_fw_requires_flags():
    inst, P = gen_monotone_nqp(2, 1, seed=0)
    plain = ObjectiveHandle(2, inst.value, inst.value_batch, gradient=inst.gradient,
                            submodular=True)
    with pytest.raises(ValueError):
        frank_wolfe_variant(plain, P, FWConfig(K=5))


def test_fw_step_mass_and_feasibility_invariants():
    for seed in range(3):
        inst, P = gen_monotone_nqp(3, 1, seed=seed)
        x, trace = frank_wolfe_variant(inst.handle(P.box()), P, FWConfig(K=7))
        t = np.array([r.t for r in trace.records])
        assert abs(np.diff(t).sum() - 1.0) <= 1e-12
        assert all(r.feasibility_residual <= 1e-9 for r in trace.records)
        # objectives non-decreasing: updates only add nonnegative vectors
        objs = trace.objectives()
        assert np.all(np.diff(objs) >= -1e-9)


def test_fw_constant_stepsize_makes_exactly_K_steps():
    # the float sum of K steps of 1/K can end just below 1 (K = 7, 10, 30,
    # ...); the run must still stop after K steps, on t = 1 exactly
    inst, P = gen_monotone_nqp(3, 1, seed=0)
    handle = inst.handle(P.box())
    for K in range(1, 201):
        calls = []

        def grad(x):
            calls.append(1)
            return inst.gradient(x)

        _, trace = frank_wolfe_variant(dataclasses.replace(handle, gradient=grad), P,
                                       FWConfig(K=K))
        assert (len(calls), len(trace), trace.records[-1].t) == (K, K + 1, 1.0), K


def test_fw_approximation_bound_against_grid_oracle():
    K = 50
    for seed in range(3):
        inst, P = gen_monotone_nqp(3, 1, seed=seed)
        handle = inst.handle(P.box())
        x, trace = frank_wolfe_variant(handle, P, FWConfig(K=K))
        _, f_star = grid_brute_force(handle, P, 101)
        L = largest_abs_eigenvalue(inst.H)
        assert trace.final_objective >= (1 - 1 / np.e) * f_star - L / (2 * K) - 1e-6


def _without_basis(sol):
    return LPSolution(sol.point, sol.objective)


def test_fw_schedule_summing_to_one_by_rounding_calls_the_oracle_once_per_step():
    # ten steps of 0.1 sum to 0.9999999999999999: the run must still stop
    # after ten steps, before computing an eleventh gradient and LP
    inst, P = gen_monotone_nqp(3, 1, seed=2)
    calls = {"gradient": 0, "oracle": 0}

    def grad(x):
        calls["gradient"] += 1
        return inst.gradient(x)

    def oracle(P, c):
        calls["oracle"] += 1
        return _without_basis(linear_maximize(P, c))

    handle = dataclasses.replace(inst.handle(P.box()), gradient=grad)
    _, trace = frank_wolfe_variant(handle, P, FWConfig(K=10), oracle=oracle)
    assert len(trace) == 11
    assert calls == {"gradient": 10, "oracle": 10}


def _fw_vertex_path(inst, P, K, strip):
    """Active constraints of the vertex FW steps along at each iteration, the
    final objective and the trace's LP counters (oracle calls, warm re-solves,
    kept vertices).  With ``strip`` the oracle hides its basis, so every
    iteration solves cold; otherwise the later iterations resume from the
    kept basis through ``reoptimize``."""
    path = []

    def record(sol):
        path.append(active_constraints(P, sol.point))
        return sol

    def oracle(P, c):
        sol = record(linear_maximize(P, c))
        return _without_basis(sol) if strip else sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "reoptimize",
                   lambda P, sol, c: record(geometry.reoptimize(P, sol, c)))
        _, trace = frank_wolfe_variant(inst.handle(P.box()), P, FWConfig(K=K), oracle=oracle)
    assert len(path) == K   # one solve per iteration
    counts = (trace.meta["lp_calls"], trace.meta["lp_warm"], trace.meta["lp_kept"])
    return path, trace.final_objective, counts


def test_fw_reusing_a_certified_vertex_matches_cold_solves():
    K = 30
    warm_total = 0
    for seed in range(3):
        inst, P0 = gen_monotone_nqp(30, 15, seed)
        for budget in (0.5, 1.0, 1.5):
            P = PolytopeDomain(P0.A, np.full(15, budget), P0.upper)
            path, value, (calls, warm, kept) = _fw_vertex_path(inst, P, K, strip=False)
            cold_path, cold_value, cold_counts = _fw_vertex_path(inst, P, K, strip=True)
            assert path == cold_path
            assert value == pytest.approx(cold_value, rel=1e-12)
            assert cold_counts == (K, 0, 0)
            assert calls == 1 and calls + warm + kept == K and kept > 0
            warm_total += warm
    assert warm_total > 0


def test_fw_lp_counters_sum_to_K():
    K = 30
    inst, P0 = gen_monotone_nqp(30, 15, 0)
    P = PolytopeDomain(P0.A, np.full(15, 1.0), P0.upper)
    handle = inst.handle(P.box())
    calls = []

    def counted(P, c):
        calls.append(c)
        return linear_maximize(P, c)

    _, trace = frank_wolfe_variant(handle, P, FWConfig(K=K), oracle=counted)
    meta = trace.meta
    assert meta["lp_calls"] == len(calls) == 1
    assert meta["lp_calls"] + meta["lp_warm"] + meta["lp_kept"] == K
    assert meta["lp_warm"] > 0 and meta["lp_kept"] > 0
    # an oracle whose solutions carry no basis cannot be resumed: it is
    # called every iteration
    calls.clear()
    _, cold = frank_wolfe_variant(handle, P, FWConfig(K=K),
                                  oracle=lambda P, c: _without_basis(counted(P, c)))
    assert len(calls) == K
    assert (cold.meta["lp_calls"], cold.meta["lp_warm"], cold.meta["lp_kept"]) == (K, 0, 0)


@pytest.mark.parametrize("seed", range(3))
def test_fw_warm_resolves_agree_with_cold_solves_at_paper_scale(seed, monkeypatch):
    # every re-solve along FW's gradient sequence, whether it kept the vertex
    # or pivoted on, against a cold solve of the same gradient
    inst, P0 = gen_monotone_nqp(100, 50, seed)
    pivoted = []

    def checked(P, sol, c):
        warm = geometry.reoptimize(P, sol, c)
        cold = linear_maximize(P, c)
        assert abs(float(c @ warm.point) - cold.objective) <= 1e-12 * abs(cold.objective)
        assert feasibility_residual(P, warm.point) <= 1e-9
        assert geometry.reoptimize(P, warm, c) is warm   # its basis needs no pivot
        if warm is not sol:
            assert set(nonbasic_constraints(P, warm)) <= set(active_constraints(P, warm.point))
        pivoted.append(warm is not sol)
        return warm

    monkeypatch.setattr(solvers, "reoptimize", checked)
    for budget in (0.5, 1.0, 1.5):
        P = PolytopeDomain(P0.A, np.full(50, budget), P0.upper)
        frank_wolfe_variant(inst.handle(P.box()), P, FWConfig(K=50))
    assert len(pivoted) == 3 * 49 and any(pivoted)


def test_fw_certified_upper_bound_on_the_optimum():
    for seed in range(10):
        inst, P = gen_monotone_nqp(3, 1, seed)
        handle = inst.handle(P.box())
        _, trace = frank_wolfe_variant(handle, P, FWConfig(K=20))
        _, f_star = grid_brute_force(handle, P, 41)
        bound = trace.meta["opt_upper_bound"]
        assert bound >= f_star - 1e-9
        assert bound >= trace.final_objective - 1e-9


def test_fw_aborts_with_partial_trace_on_gradient_failure():
    calls = {"n": 0}

    def value(x):
        return float(x.sum())

    def grad(x):
        calls["n"] += 1
        if calls["n"] > 2:
            return np.array([np.nan, np.nan])
        return np.ones(2)

    h = scalar_handle(2, value, gradient=grad, monotone=True, submodular=True,
                      dr_submodular=True)
    with pytest.raises(SolverAbort) as exc:
        frank_wolfe_variant(h, _box_polytope(2), FWConfig(K=4))
    assert len(exc.value.trace) >= 1


def test_fw_abort_names_the_method_the_handle_and_the_iteration():
    h = scalar_handle(2, lambda x: float(x.sum()), gradient=lambda x: 1.0, monotone=True,
                      submodular=True, dr_submodular=True, name="flat")
    with pytest.raises(SolverAbort, match="frank_wolfe: gradient of 'flat' failed at "
                                          "iteration 0: dimension mismatch: expected 2, got 1"):
        frank_wolfe_variant(h, _box_polytope(2), FWConfig(K=4))


def test_fw_accepts_an_injected_inexact_oracle():
    from subcont import LPSolution, linear_maximize

    def sloppy_oracle(P, c):
        exact = linear_maximize(P, c)
        v = 0.8 * exact.point          # multiplicative error, still feasible
        return LPSolution(point=v, objective=float(np.dot(c, v)))

    inst, P = gen_monotone_nqp(3, 1, seed=4)
    handle = inst.handle(P.box())
    x, trace = frank_wolfe_variant(handle, P, FWConfig(K=10, alpha=0.8),
                                   oracle=sloppy_oracle)
    assert trace.records[-1].t == 1.0
    assert all(r.feasibility_residual <= 1e-9 for r in trace.records)
    x_exact, exact_trace = frank_wolfe_variant(handle, P, FWConfig(K=10))
    assert trace.final_objective <= exact_trace.final_objective + 1e-9


def test_fw_degraded_bound_with_multiplicative_oracle_error():
    # scaling the exact vertex by alpha realizes a multiplicative error level
    # of exactly alpha; the guarantee degrades to (1 - e^-alpha) of optimum
    from subcont import LPSolution, linear_maximize

    alpha = 0.7
    K = 50

    def scaled_oracle(P, c):
        exact = linear_maximize(P, c)
        v = alpha * exact.point
        return LPSolution(point=v, objective=float(np.dot(c, v)))

    for seed in range(5):
        inst, P = gen_monotone_nqp(3, 1, seed=seed)
        handle = inst.handle(P.box())
        _, trace = frank_wolfe_variant(handle, P, FWConfig(K=K, alpha=alpha),
                                       oracle=scaled_oracle)
        _, f_star = grid_brute_force(handle, P, 101)
        L = largest_abs_eigenvalue(inst.H)
        bound = (1 - np.exp(-alpha)) * f_star - L / (2 * K) - 1e-6
        assert trace.final_objective >= bound
        # the certificate divides the inexact oracle's answer by alpha
        assert trace.meta["opt_upper_bound"] >= f_star - 1e-9


def test_dg_degraded_bound_with_inexact_search():
    # golden-section with a coarse bracket emulates additive 1-D error; the
    # recorded worst gap bounds the per-subproblem loss, so the value clears
    # f*/3 - (4n/3) * gap
    for seed in range(5):
        inst, box = gen_nonmonotone_nqp(4, seed=seed)
        handle = inst.handle(box)
        _, tx, _ = double_greedy(handle, box,
                                 DGConfig(seed=seed, mode=CONCAVE_MODE, tol=1e-2))
        _, f_star = grid_brute_force(handle, box, 51)
        gap = tx.meta["max_gap_bound"]
        n = box.dimension
        assert tx.final_objective >= f_star / 3.0 - (4 * n / 3) * gap - 1e-9


def test_fw_config_validation():
    with pytest.raises(TypeError):
        FWConfig()
    for K in (0, -3, 0.5, 2.0, True):
        with pytest.raises(ValueError, match="positive int"):
            FWConfig(K=K)
    with pytest.raises(ValueError):
        FWConfig(K=2, alpha=0.0)
    with pytest.raises(ValueError):
        FWConfig(K=2, delta=-1.0)


# ------------------------------------------------------------------ double greedy

def test_dg_modular_hand_simulation():
    inst = QuadraticInstance(np.zeros((2, 2)), [2.0, -1.0])
    box = BoxDomain([0.0, 0.0], [1.0, 1.0])
    x, tx, ty = double_greedy(inst.handle(box), box, DGConfig(mode=QUADRATIC_MODE))
    assert np.array_equal(x, [1.0, 0.0])
    assert tx.final_objective == pytest.approx(2.0)
    # exhaustive check over the four corners
    corners = [inst.value([a, b]) for a in (0, 1) for b in (0, 1)]
    assert tx.final_objective == pytest.approx(max(corners))


def test_dg_constant_objective_takes_the_lower_branch():
    const = scalar_handle(3, lambda x: 1.0, submodular=True)
    box = BoxDomain(np.zeros(3), np.ones(3))
    x, tx, ty = double_greedy(const, box, DGConfig(mode=QUADRATIC_MODE))
    assert np.array_equal(x, box.lower)
    assert np.all(tx.objectives() == 1.0) and np.all(ty.objectives() == 1.0)


def test_dg_particles_meet_bitwise():
    for seed in range(5):
        inst, box = gen_nonmonotone_nqp(6, seed=seed)
        handle = inst.handle(box)
        x, tx, ty = double_greedy(handle, box,
                                  DGConfig(seed=seed, mode=QUADRATIC_MODE))
        # both traces end at the common meeting point, bit for bit
        assert tx.objectives()[-1] == ty.objectives()[-1]
        assert tx.final_objective == pytest.approx(handle.value(x))


def test_dg_intermediate_ordering_invariant():
    # x^k <= y^k throughout: re-run the loop manually via trace reconstruction
    inst, box = gen_nonmonotone_nqp(5, seed=2)
    handle = inst.handle(box)
    cfg = DGConfig(mode=QUADRATIC_MODE)   # no seed: natural order
    x = box.lower.copy()
    y = box.upper.copy()
    fx, fy = handle.value(x), handle.value(y)
    for j in range(5):
        # the same stacked call as double_greedy makes, one row per particle
        (za, va, _), (zb, vb, _) = maximize_1d(handle, (x, y), j, box.lower[j],
                                               box.upper[j], QUADRATIC_MODE)
        z = za if va - fx >= vb - fy else zb
        x[j] = z
        y[j] = z
        fx, fy = handle.value(x), handle.value(y)
        assert np.all(x <= y + 1e-12)
    out, _, _ = double_greedy(handle, box, cfg)
    assert np.array_equal(out, x)


def test_dg_one_third_of_grid_oracle():
    for seed in range(3):
        inst, box = gen_nonmonotone_nqp(4, seed=seed)
        handle = inst.handle(box)
        x, tx, _ = double_greedy(handle, box, DGConfig(seed=seed, mode=QUADRATIC_MODE))
        _, f_star = grid_brute_force(handle, box, 51)
        assert tx.final_objective >= f_star / 3.0 - 1e-9


def test_dg_traces_nondecreasing_with_exact_solves():
    for seed in range(5):
        inst, box = gen_nonmonotone_nqp(12, seed=seed)
        _, tx, ty = double_greedy(inst.handle(box), box,
                                  DGConfig(seed=seed, mode=QUADRATIC_MODE))
        assert np.all(np.diff(tx.objectives()) >= -1e-9)
        assert np.all(np.diff(ty.objectives()) >= -1e-9)


def test_dg_requires_submodular_flag_and_balance():
    box = BoxDomain(np.zeros(2), np.ones(2))
    not_sub = scalar_handle(2, lambda x: float(x[0] * x[1]))
    with pytest.raises(ValueError):
        double_greedy(not_sub, box, DGConfig())
    negative = scalar_handle(2, lambda x: -10.0 + float(x.sum()), submodular=True)
    with pytest.raises(ValueError):
        double_greedy(negative, box, DGConfig())


def _spiky(x):
    # finite at the corners and along coordinate 0, blows up only on
    # interior probes of coordinate 1
    return float("inf") if 0.3 < x[1] < 0.7 else float(x.sum())


def test_dg_abort_identifies_the_coordinate():
    h = scalar_handle(2, _spiky, submodular=True)
    box = BoxDomain(np.zeros(2), np.ones(2))
    with pytest.raises(SolverAbort, match="coordinate 1"):
        double_greedy(h, box, DGConfig(mode=CONCAVE_MODE))


def test_dg_abort_carries_both_particle_traces():
    h = scalar_handle(2, _spiky, submodular=True)
    box = BoxDomain(np.zeros(2), np.ones(2))
    with pytest.raises(SolverAbort) as exc:
        double_greedy(h, box, DGConfig(mode=CONCAVE_MODE))
    tx, ty = exc.value.traces
    assert exc.value.trace is tx
    assert len(tx) == len(ty) == 2   # the start row and coordinate 0
    assert tx.records[0].objective == 0.0 and ty.records[0].objective == 2.0


def test_dg_order_validation_and_random_order():
    inst, box = gen_nonmonotone_nqp(4, seed=0)
    h = inst.handle(box)
    a, _, _ = double_greedy(h, box, DGConfig(seed=3, mode=QUADRATIC_MODE))
    b, _, _ = double_greedy(h, box, DGConfig(seed=3, mode=QUADRATIC_MODE))
    assert np.array_equal(a, b)


# ------------------------------------------------------------------ 1-D maximizers

def _scalar_handle(fn):
    return scalar_handle(1, lambda v: float(fn(v[0])))


def test_maximize_1d_quadratic_examples():
    h = _scalar_handle(lambda z: -z * z + z)
    z, val, gap = maximize_1d(h, np.zeros(1), 0, 0.0, 1.0, QUADRATIC_MODE)
    assert z == pytest.approx(0.5) and val == pytest.approx(0.25) and gap == 0.0

    lin = _scalar_handle(lambda z: z)
    z, val, gap = maximize_1d(lin, np.zeros(1), 0, 0.0, 2.0, QUADRATIC_MODE)
    assert z == 2.0 and val == pytest.approx(2.0)


def test_maximize_1d_quadratic_matches_grid_scan():
    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 1.0, 100_000)
    for _ in range(30):
        a = rng.uniform(-10, 10)
        b = rng.uniform(-10, 10)
        lo = rng.uniform(-1, 0.5)
        hi = lo + rng.uniform(0.1, 2.0)
        h = _scalar_handle(lambda z, a=a, b=b: a * z * z + b * z)
        z, val, gap = maximize_1d(h, np.zeros(1), 0, lo, hi, QUADRATIC_MODE)
        zs = lo + grid * (hi - lo)
        scan = (a * zs * zs + b * zs).max()
        assert abs(val - scan) <= 1e-8 and val >= scan - 1e-12


def test_maximize_1d_quadratic_mode_rejects_a_cubic():
    # the three probes lo, mid, hi fit a parabola to any function; the
    # quarter probe catches a restriction that is not quadratic
    cubic = _scalar_handle(lambda z: 4.0 * z ** 3 - 3.0 * z)
    with pytest.raises(ValueError, match=r"x_0 = 0\.25"):
        maximize_1d(cubic, np.zeros(1), 0, 0.0, 1.0, QUADRATIC_MODE)


def test_dg_aborts_on_a_restriction_that_is_not_quadratic():
    h = scalar_handle(2, lambda x: float(x.sum() + x[1] ** 3), submodular=True)
    box = BoxDomain(np.zeros(2), np.ones(2))
    with pytest.raises(SolverAbort, match="coordinate 1.*not quadratic"):
        double_greedy(h, box, DGConfig(mode=QUADRATIC_MODE))


def test_maximize_1d_concave_search_gap_bound_is_sound():
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 100_000)
    for k in range(20):
        c1 = rng.uniform(0.5, 3.0)
        c2 = rng.uniform(0.5, 3.0)
        fn = lambda z, c1=c1, c2=c2: c1 * np.sqrt(z + 0.01) - c2 * z * z
        h = _scalar_handle(fn)
        z, val, gap = maximize_1d(h, np.zeros(1), 0, 0.0, 1.0, CONCAVE_MODE, tol=1e-8)
        scan = fn(grid).max()
        assert val >= scan - gap
        assert abs(val - scan) <= 1e-6


def test_maximize_1d_revenue_worked_example():
    inst = RevenueInstance(np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 1.0],
                           alpha=1.0, beta=1.0, gamma=2.0)
    z, val, gap = maximize_1d(inst.handle(), np.zeros(2), 1, 0.0, 1.0,
                              REVENUE_MODE, tol=1e-9)
    assert z == pytest.approx(0.25, abs=1e-6)
    assert val == pytest.approx(0.25, abs=1e-9)


def test_maximize_1d_revenue_prefers_the_discontinuity_when_better():
    # strong alpha: keeping the coordinate at zero preserves the sqrt revenue
    inst = RevenueInstance(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.0, 0.0],
                           alpha=5.0, beta=1.0, gamma=1.0)
    x = np.array([0.0, 1.0])
    z, val, _ = maximize_1d(inst.handle(), x, 0, 0.0, 1.0, REVENUE_MODE, tol=1e-9)
    assert z == 0.0 and val == pytest.approx(inst.value(x))


def test_maximize_1d_revenue_gap_holds_with_lo_above_zero():
    # on [lo, hi] with lo > 0 the restriction is continuous and concave, so the
    # anchor at lo is one more probe, and when it beats lo + eps concavity puts
    # the maximum at lo: the gap bound must hold against a dense scan
    rng = np.random.default_rng(0)
    for seed in range(30):
        inst = gen_revenue(8, 20, seed, alpha=3.0)
        h = inst.handle()
        for _ in range(20):
            x = rng.uniform(0, 1, size=8) * (rng.random(8) > 0.3)
            j = int(rng.integers(8))
            lo, hi = np.sort(rng.uniform(0.01, 1.0, size=2))
            z, val, gap = maximize_1d(h, x, j, float(lo), float(hi), REVENUE_MODE)
            assert lo <= z <= hi
            X = np.repeat(x[None, :], 20001, axis=0)
            X[:, j] = np.linspace(lo, hi, 20001)
            # the slack covers the scan's multi-row rounding: at the anchor it
            # can exceed the one-row value of the same point by an ulp
            slack = 1e-12 * (1.0 + abs(val))
            assert h.value_batch(X).max() <= val + gap + slack, (seed, j, lo, hi)


# stacked calls: the rows' searches run in lockstep, one value_batch a round

def test_maximize_1d_stack_rows_equal_one_point_calls():
    # scalar handles: value_batch is a row loop, so the rows cannot interact
    quad = scalar_handle(3, lambda v: float(-2.0 * v[1] ** 2 + v[0] * v[1] + v[2]))
    concave = scalar_handle(3, lambda v: float(np.sqrt(v[1] + 0.01 + v[0]) - v[2] * v[1]))
    X = np.random.default_rng(4).uniform(0, 2, (5, 3))
    inst = RevenueInstance(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.2],
                           alpha=2.0, beta=1.0, gamma=1.5)
    revenue = scalar_handle(2, inst.value)
    R = np.array([[0.0, 0.0], [0.3, 1.0], [1.0, 0.5]])
    for mode, h, stack in [(QUADRATIC_MODE, quad, X), (CONCAVE_MODE, concave, X),
                           (REVENUE_MODE, revenue, R)]:
        before = stack.copy()
        got = maximize_1d(h, stack, 1, 0.0, 1.0, mode, tol=1e-9)
        assert np.array_equal(stack, before)
        assert got == [maximize_1d(h, row, 1, 0.0, 1.0, mode, tol=1e-9) for row in stack]
        # a one-row stack is the one-point call
        assert maximize_1d(h, stack[:1], 1, 0.0, 1.0, mode, tol=1e-9) == got[:1]


def test_maximize_1d_stack_rows_finish_in_different_rounds():
    # row 0: convex in x_0, no vertex to probe (four probes); row 1: concave
    # in x_0 with an interior vertex (lo, mid, hi, quarter, vertex).  The
    # opening round holds both rows' four probes, the second only the vertex
    h = scalar_handle(2, lambda v: float((v[1] - 0.5) * v[0] ** 2 + 0.2 * v[0]))
    rounds = []

    def value_batch(X):
        rounds.append(len(X))
        return h.value_batch(X)

    counted = ObjectiveHandle(2, h.value, value_batch)
    stack = np.array([[0.0, 1.0], [0.0, 0.0]])
    got = maximize_1d(counted, stack, 0, 0.0, 1.0, QUADRATIC_MODE)
    assert rounds == [8, 1]
    assert got == [maximize_1d(h, row, 0, 0.0, 1.0, QUADRATIC_MODE) for row in stack]
    assert got[0][0] == 1.0 and got[1][0] == pytest.approx(0.2)

    # revenue: a row that keeps its anchor next to one that searches
    inst = RevenueInstance(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.0, 0.0],
                           alpha=5.0, beta=1.0, gamma=1.0)
    revenue = scalar_handle(2, inst.value)
    stack = np.array([[0.0, 1.0], [0.0, 0.0]])
    got = maximize_1d(revenue, stack, 0, 0.0, 1.0, REVENUE_MODE, tol=1e-9)
    assert got[0] == (0.0, inst.value(stack[0]), 0.0)
    assert got[1][0] > 0.0
    assert got == [maximize_1d(revenue, row, 0, 0.0, 1.0, REVENUE_MODE, tol=1e-9)
                   for row in stack]


def test_maximize_1d_nonfinite_probe_names_the_row():
    h = scalar_handle(2, lambda v: np.inf if v[1] > 0.5 and v[0] > 0.3 else float(v[0]))
    stack = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"row 1 at probe x_0 = "):
        maximize_1d(h, stack, 0, 0.0, 1.0, CONCAVE_MODE)
    with pytest.raises(ValueError, match=r"row 0 at probe x_0 = "):
        maximize_1d(h, stack[1], 0, 0.0, 1.0, CONCAVE_MODE)


def test_maximize_1d_errors():
    h = _scalar_handle(lambda z: z)
    with pytest.raises(ValueError, match="dimension mismatch: expected 1, got 2"):
        maximize_1d(h, np.zeros(2), 0, 0.0, 1.0, QUADRATIC_MODE)
    with pytest.raises(ValueError, match=r"expected a point or a \(k, 1\) stack"):
        maximize_1d(h, np.zeros((2, 2)), 0, 0.0, 1.0, QUADRATIC_MODE)
    with pytest.raises(ValueError):
        maximize_1d(h, np.zeros(1), 0, 1.0, 0.0, QUADRATIC_MODE)
    with pytest.raises(ValueError):
        maximize_1d(h, np.zeros(1), 2, 0.0, 1.0, QUADRATIC_MODE)
    with pytest.raises(ValueError):
        maximize_1d(h, np.zeros(1), 0, 0.0, 1.0, "bogus")
    nonfinite = _scalar_handle(lambda z: np.inf if z > 0.5 else z)
    with pytest.raises(ValueError, match="probe"):
        maximize_1d(nonfinite, np.zeros(1), 0, 0.0, 1.0, CONCAVE_MODE)


@pytest.mark.parametrize("lo, hi", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0)])
def test_maximize_1d_rejects_a_non_finite_interval_before_probing(lo, hi):
    calls = []
    h = _counted(QuadraticInstance(-np.eye(2), [1.0, 1.0]).handle(), calls)
    with pytest.raises(ValueError, match=r"interval .* of x_0 must be finite"):
        maximize_1d(h, np.zeros(2), 0, lo, hi, CONCAVE_MODE)
    assert calls == []


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10])
def test_maximize_1d_rejects_a_bad_tol_before_probing(tol):
    calls = []
    h = _counted(QuadraticInstance(-np.eye(2), [1.0, 1.0]).handle(), calls)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        maximize_1d(h, np.zeros(2), 0, 0.0, 1.0, CONCAVE_MODE, tol)
    assert calls == []


def test_dg_config_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown 1-D mode 'golden'"):
        DGConfig(mode="golden")


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10])
def test_dg_config_rejects_a_bad_tol(tol):
    # with tol = nan a search never narrowed its bracket: on
    # QuadraticInstance(-I, [0.7, 1]) it answered z = 1.0 along x_0, not 0.7
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        DGConfig(mode=CONCAVE_MODE, tol=tol)


# early stops of the searching modes

def _probed(fn):
    """A 1-D handle of ``fn`` and the list of coordinates it is probed at."""
    seen = []

    def value(v):
        seen.append(float(v[0]))
        return float(fn(v[0]))
    return scalar_handle(1, value), seen


def _counted(h, calls):
    """``h`` with a ``value_batch`` that appends its row count to ``calls``."""
    def value_batch(X):
        calls.append(len(X))
        return h.value_batch(X)
    return dataclasses.replace(h, value_batch=value_batch)


@pytest.mark.parametrize("slope, end", [(2.0, 1.0), (-2.0, 0.0)])
def test_concave_search_stops_on_a_linear_restriction_after_four_probes(slope, end):
    # the envelope of a line is the line: golden section's a, b, c, d settle it
    h, seen = _probed(lambda z: slope * z + 0.5)
    z, val, gap = maximize_1d(h, np.zeros(1), 0, 0.0, 1.0, CONCAVE_MODE)
    assert len(seen) == 4 and seen[:2] == [0.0, 1.0]
    assert z == end and val == slope * end + 0.5
    assert 0.0 <= gap <= 2e-12 * (1.0 + abs(val))


def test_concave_search_end_rule_settles_an_increasing_restriction():
    h, seen = _probed(lambda z: math.sqrt(z + 0.01))
    tol = 1e-10
    z, val, gap = maximize_1d(h, np.zeros(1), 0, 0.0, 1.0, CONCAVE_MODE, tol)
    assert z == 1.0 and val == math.sqrt(1.01)
    assert len(seen) <= 6    # golden section alone takes 52
    slope = 0.5 / math.sqrt(0.01)   # the steepest slope on [0, 1]
    assert 0.0 <= gap <= tol * slope + 1e-12 * (1.0 + abs(val))


def test_maximize_1d_early_stops_keep_the_gap_sound():
    # interior and endpoint maxima at the default tol, where both rules fire
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 100_001)
    for _ in range(40):
        c1, c2 = rng.uniform(0.1, 3.0, size=2)
        c3 = rng.uniform(-3.0, 3.0)
        fn = lambda z, c1=c1, c2=c2, c3=c3: c1 * np.sqrt(z + 0.01) - c2 * z * z + c3 * z
        z, val, gap = maximize_1d(_scalar_handle(fn), np.zeros(1), 0, 0.0, 1.0, CONCAVE_MODE)
        assert gap >= 0.0 and val == fn(z)
        assert val >= fn(grid).max() - gap


@pytest.mark.parametrize("mode", [QUADRATIC_MODE, CONCAVE_MODE, REVENUE_MODE])
def test_maximize_1d_on_a_point_interval_makes_one_probe(mode):
    h, seen = _probed(lambda z: (z - 0.2) ** 2)
    assert maximize_1d(h, np.zeros(1), 0, 0.4, 0.4, mode) == (0.4, (0.4 - 0.2) ** 2, 0.0)
    assert seen == [0.4]


def test_revenue_search_on_an_interval_narrower_than_eps_returns_the_anchor():
    # golden section runs on (lo + eps, hi], eps = 1e-10, which is empty here
    h, seen = _probed(lambda z: z)
    z, val, gap = maximize_1d(h, np.zeros(1), 0, 0.5, 0.5 + 5e-11, REVENUE_MODE)
    assert (z, val, gap) == (0.5, 0.5, 0.0)
    assert seen == [0.5]


@pytest.mark.parametrize("mode", [CONCAVE_MODE, REVENUE_MODE])
@pytest.mark.parametrize("scale, peak, hi, tol", [(1e6, 0.3, 1.0, 1e-17),
                                                  (1.0, 3e7, 1e8, 1e-10)])
def test_golden_section_ends_when_rounding_stops_the_bracket_shrinking(mode, scale, peak,
                                                                       hi, tol):
    # the bracket cannot shrink below tol: golden section's inner points
    # merge first, and the search must end there
    calls = []

    def value_batch(X):
        calls.append(len(X))
        if len(calls) > 200:
            raise RuntimeError("the search does not end")
        return -scale * np.abs(X[:, 0] - peak)
    h = ObjectiveHandle(1, lambda x: float(value_batch(x[None, :])[0]), value_batch)
    z, val, gap = maximize_1d(h, np.zeros(1), 0, 0.0, hi, mode, tol)
    assert 0.0 <= -val <= gap


def test_revenue_search_stops_when_the_envelope_falls_below_the_anchor():
    # the anchor of the discontinuity-preferring example wins after the
    # anchor and golden section's first four probes, all in the opening round
    inst = RevenueInstance(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.0, 0.0],
                           alpha=5.0, beta=1.0, gamma=1.0)
    calls = []
    x = np.array([0.0, 1.0])
    z, val, gap = maximize_1d(_counted(inst.handle(), calls), x, 0, 0.0, 1.0, REVENUE_MODE)
    assert (z, val, gap) == (0.0, inst.value(x), 0.0)
    assert calls == [5]


def test_revenue_single_greedy_makes_few_batch_calls_per_coordinate():
    inst = gen_revenue(100, 300, 0)
    calls = []
    single_greedy(_counted(inst.handle(), calls), inst.box(), REVENUE_MODE)
    assert len(calls) / 100 <= 10    # golden section alone made 53


def _recorded(h, batches):
    """``h`` with a ``value_batch`` that appends a copy of each batch to ``batches``."""
    def value_batch(X):
        batches.append(np.array(X))
        return h.value_batch(X)
    return dataclasses.replace(h, value_batch=value_batch)


def test_opening_round_holds_every_value_independent_probe():
    c, d = 1.0 - _INVPHI, _INVPHI   # golden section's inner points on [0, 1]
    quad = QuadraticInstance(-np.eye(2), [0.3, 1.0]).handle()
    revenue = RevenueInstance(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.2],
                              alpha=2.0, beta=1.0, gamma=1.5).handle()
    eps = 1e-10
    for mode, h, opening in [
            (QUADRATIC_MODE, quad, [0.0, 0.5, 1.0, 0.25]),
            (CONCAVE_MODE, quad, [0.0, 1.0, c, d]),
            (REVENUE_MODE, revenue, [0.0, eps, 1.0, 1.0 - _INVPHI * (1.0 - eps),
                                     eps + _INVPHI * (1.0 - eps)])]:
        batches = []
        maximize_1d(_recorded(h, batches), np.zeros((2, 2)), 0, 0.0, 1.0, mode)
        assert batches[0][:, 0].tolist() == opening * 2, mode
        assert all(len(X) <= 2 for X in batches[1:]), mode   # one probe per row


# value_batch rows and calls of both greedy methods before the opening probes
# of a search went into one call; the rows are the probes, which must not change
_PROBE_COUNTS = {
    ("revenue", "single_greedy"): (571, 571),
    ("revenue", "double_greedy"): (1236, 713),
    ("nqp", "single_greedy"): (802, 802),
    ("nqp", "double_greedy"): (1601, 801),
}


@pytest.mark.parametrize("family, method", list(_PROBE_COUNTS))
def test_greedy_probe_set_is_unchanged_in_fewer_calls(family, method):
    if family == "revenue":
        inst = gen_revenue(100, 300, 0)
        h, box, mode = inst.handle(), inst.box(), REVENUE_MODE
    else:
        inst, box = gen_nonmonotone_nqp(200, 0)
        h, mode = inst.handle(box), QUADRATIC_MODE
    calls = []
    counted = _counted(h, calls)
    if method == "single_greedy":
        single_greedy(counted, box, mode)
    else:
        double_greedy(counted, box, DGConfig(seed=1, mode=mode))
    rows, parent_calls = _PROBE_COUNTS[family, method]
    assert sum(calls) == rows
    assert len(calls) < parent_calls
    if mode == QUADRATIC_MODE:   # the opening round and at most the vertex
        assert len(calls) <= 2 * box.dimension


def _greedy_family(family, seed):
    if family == "revenue":
        inst = gen_revenue(100, 300, seed)
        return inst.handle(), inst.box(), REVENUE_MODE
    inst = gen_bipartite_influence(30, 60, 120, seed)
    return inst.handle(), BoxDomain(np.zeros(30), np.ones(30)), CONCAVE_MODE


def _objectives(trace):
    return np.array([r.objective for r in trace.records]).tobytes()


# sha256 of DoubleGreedy's final x and both traces' objectives (seed 1), and
# of single_greedy's x and value, recorded before the searches stopped early.
# Every answer on these instances is an endpoint, which the early stops return
# bit for bit.  The revenue DoubleGreedy digests were re-recorded when each
# search's opening probes went into one value_batch call: the final x kept
# its bits, and trace values moved in the last bits with the larger batches.
_GREEDY_DIGESTS = [
    ("revenue", 0, "ee3b5206e4f34af6693306aa5981d4219b06529daca7ad2a96d2164f0dcef5f4",
     "b91a27309d2637c19cb4ff9ea76522a85f4ce396a66eeb177dae99fc95bb32bc"),
    ("revenue", 1, "53549693eee87bae773dba2508e880e3f1ea6f4d51546272886988b1665bafa9",
     "ef4732bf8fa5b731c42a2a518ac034fa06847cf8a7d40e7737dcef12def42b89"),
    ("revenue", 2, "5d084c24960afcebf0573d52e022c5c2b0ffe4b003ad3a780afbafe86371fdd2",
     "9480f10d1a98b5f95ed68ca4723ffb2b885e2e37fd90d3c06d4c5dafb4038f8d"),
    ("influence", 0, "badc3bd5f81ca027ee7fdf31e620ed4deafc8d5757899deb8188197880f3a20b",
     "5b64b78b930ffc48e73b7da8cac6f67b9dab731b85f9511c5459446d3adfd92d"),
    ("influence", 1, "89ca385fa4787657dbe04282daf0228bb84caa37b889979f156ba8c21373acab",
     "c05970e1da66e8fdd9ed2d421318f5010cb082f0740497470fbc242eeb5c8523"),
    ("influence", 2, "93583a85ee5bdcb66bfc016989234601967a6e10e218547c11cc8450b5ae9b50",
     "2469016f7a2fb08fe1f25f45f46f7fb8bc318a2191c90a1bb993432b1211fbaf"),
]


@pytest.mark.parametrize("family, seed, dg_digest, sg_digest", _GREEDY_DIGESTS,
                         ids=[f"{family}-{seed}" for family, seed, _, _ in _GREEDY_DIGESTS])
def test_box_greedy_outputs_are_pinned(family, seed, dg_digest, sg_digest):
    h, box, mode = _greedy_family(family, seed)
    x, tx, ty = double_greedy(h, box, DGConfig(seed=1, mode=mode))
    dg = hashlib.sha256(x.tobytes() + _objectives(tx) + _objectives(ty)).hexdigest()
    assert dg == dg_digest
    xs, v = single_greedy(h, box, mode)
    assert hashlib.sha256(xs.tobytes() + np.float64(v).tobytes()).hexdigest() == sg_digest


# ------------------------------------------------------------------ curvature

def test_largest_abs_eigenvalue_matches_dense_solver():
    # for a symmetric H the spectral norm (largest singular value, an SVD
    # rather than eigvalsh) is max |eigenvalue|
    rng = np.random.default_rng(2)
    for _ in range(10):
        M = rng.normal(size=(6, 6))
        H = (M + M.T) / 2
        assert largest_abs_eigenvalue(H) == pytest.approx(np.linalg.norm(H, 2), rel=1e-9)
