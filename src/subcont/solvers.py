"""The two guaranteed maximizers and the 1-D subproblem solvers they rely on.

``frank_wolfe_variant`` is a conditional-gradient scheme for monotone
objectives with diminishing returns over a down-closed polytope: it starts at
the origin and *adds* v_k / K in each of K steps (no convex combination),
accumulating a total step mass of exactly one.  With an exact linear oracle
it reaches (1 - 1/e) OPT - L/(2K) + f(0)/e, L being a curvature bound along
nonnegative directions.

``double_greedy`` maximizes a general (possibly non-monotone) submodular
objective over a box by marching two solutions from the box corners toward
each other, one exact 1-D maximization per coordinate and particle; the
result is a 1/3 approximation when f(lower) + f(upper) >= 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (Array, BoxDomain, ObjectiveHandle, PolytopeDomain,
                   SolverTrace, as_point, check_positive_int, eval_batch)
from .geometry import LPSolution, feasibility_residual, linear_maximize, still_optimal

QUADRATIC_MODE = "quadratic_closed_form"
CONCAVE_MODE = "concave_search"
REVENUE_MODE = "revenue_discontinuous"

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class FWConfig:
    """Conditional-gradient parameters: the iteration budget K, which fixes
    the constant stepsize 1/K, and the multiplicative (alpha) and additive
    (delta) quality of an injected linear oracle, which the certified upper
    bound needs (the built-in exact oracle realizes alpha = 1, delta = 0).
    """

    K: int
    alpha: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        check_positive_int("K", self.K)
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


class SolverAbort(RuntimeError):
    """Solver failure carrying the partial traces collected so far.

    ``traces`` holds one trace per particle (Frank-Wolfe has one, double
    greedy two); ``trace`` is the first.
    """

    def __init__(self, message: str, trace: SolverTrace, *more: SolverTrace):
        super().__init__(message)
        self.trace = trace
        self.traces = (trace, *more)


def frank_wolfe_variant(
    f: ObjectiveHandle,
    P: PolytopeDomain,
    cfg: FWConfig,
    oracle: Callable[[PolytopeDomain, Array], LPSolution] | None = None,
) -> tuple[Array, SolverTrace]:
    """Run K steps of the conditional-gradient scheme from x = 0, each of
    stepsize 1/K; returns the final point and the full trace.

    The oracle defaults to the exact LP vertex solver; an approximate one may
    be injected for error-level experiments.  The oracle is called only when
    the previous iteration's solution fails ``still_optimal`` for the new
    gradient: with small stepsizes the gradient moves little and the optimal
    vertex seldom changes.  A solution without a stored basis (as an injected
    oracle may return) never passes, so such an oracle is called every
    iteration.  Each step is min(1/K, 1 - t) for the running sum t of the
    earlier ones, and the last step sets t to 1 however that float sum
    rounded, so the run ends on t = 1 without overshoot.

    ``trace.meta["opt_upper_bound"]`` is the certified upper bound
    ``min_k f(x_k) + (<grad f(x_k), v_k> + delta) / alpha`` on the optimum:
    for a monotone f with diminishing returns,
    ``OPT <= f(x) + max_{v in P} <grad f(x), v>`` at every x.
    """
    if not (f.monotone and f.dr_submodular):
        raise ValueError("requires a monotone objective with diminishing returns")
    if not f.differentiable:
        raise ValueError("requires a differentiable objective")
    if f.dimension != P.dimension:
        raise ValueError("objective and polytope dimensions differ")
    oracle = linear_maximize if oracle is None else oracle
    gamma = 1.0 / cfg.K
    x = np.zeros(P.dimension)
    t = 0.0
    sol = None
    upper_bound = np.inf
    trace = SolverTrace(meta={"algorithm": "frank_wolfe", "gamma": gamma,
                              "alpha": cfg.alpha, "delta": cfg.delta})
    trace.append(0, 0.0, f.value(x), feasibility_residual(P, x))
    for k in range(cfg.K):
        try:
            grad = as_point(f.gradient(x), P.dimension)
        except ValueError as e:
            raise SolverAbort(f"gradient evaluation failed at iteration {k}: {e}",
                              trace) from e
        if sol is None or not still_optimal(sol, grad):
            sol = oracle(P, grad)
        # a kept solution's objective belongs to an earlier gradient
        upper_bound = min(upper_bound, trace.records[-1].objective
                          + (float(grad @ sol.point) + cfg.delta) / cfg.alpha)
        step = min(gamma, 1.0 - t)
        x = x + step * sol.point
        t = 1.0 if k == cfg.K - 1 else t + step
        trace.append(k + 1, t, f.value(x), feasibility_residual(P, x))
    trace.meta["opt_upper_bound"] = upper_bound
    return x, trace


def _search(mode: str, j: int, lo: float, hi: float, tol: float):
    """One 1-D search of ``maximize_1d`` as a generator: it yields one probe
    coordinate at a time, is sent the value there, and returns
    (z_best, value_best, gap_bound).

    Golden section keeps the best value actually evaluated (bracket ends
    included) and bounds the gap by the final bracket width times the
    steepest slope observed between probes.
    """
    if hi - lo < 1e-15:
        return lo, (yield lo), 0.0

    if mode == QUADRATIC_MODE:
        mid = 0.5 * (lo + hi)
        glo = yield lo
        gmid = yield mid
        ghi = yield hi
        # three points fit a parabola to anything: a fourth one checks it
        quarter = lo + (hi - lo) / 4.0
        gq = yield quarter
        miss = abs(gq - (3.0 * glo + 6.0 * gmid - ghi) / 8.0)
        if miss > 1e-9 * (1.0 + max(abs(glo), abs(gmid), abs(ghi), abs(gq))):
            raise ValueError(f"restriction to x_{j} is not quadratic: probe x_{j} = "
                             f"{quarter} misses the three-point interpolant by {miss:.3g}")
        d01 = (gmid - glo) / (mid - lo)
        d12 = (ghi - gmid) / (hi - mid)
        a = (d12 - d01) / (hi - lo)
        b = d01 - a * (lo + mid)
        candidates = [(lo, glo), (hi, ghi), (mid, gmid)]
        if a < 0.0:
            vertex = -b / (2.0 * a)
            if lo < vertex < hi:
                candidates.append((vertex, (yield vertex)))
        z_star, value = max(candidates, key=lambda p: p[1])
        return float(z_star), float(value), 0.0

    a, b = lo, hi
    if mode == REVENUE_MODE:
        eps = 1e-10
        anchor = yield lo   # exact value at the discontinuity (lo is 0 in practice)
        if hi <= lo + eps:
            return lo, anchor, 0.0
        a = max(lo + eps, eps)
    probes = [(a, (yield a))]
    if b > a:
        probes.append((b, (yield b)))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    if b - a > tol:
        fc = yield c
        fd = yield d
        probes.extend([(c, fc), (d, fd)])
        while b - a > tol:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = yield c
                probes.append((c, fc))
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = yield d
                probes.append((d, fd))
    probes.sort(key=lambda p: p[0])
    zs = np.array([p[0] for p in probes])
    vs = np.array([p[1] for p in probes])
    best = int(np.argmax(vs))
    if mode == REVENUE_MODE and anchor >= vs[best]:
        return lo, anchor, 0.0
    dz = np.diff(zs)
    good = dz > 0
    slope = float(np.max(np.abs(np.diff(vs)[good] / dz[good]), initial=0.0))
    gap = (b - a) * slope + 1e-12 * (1.0 + abs(vs[best]))
    return float(zs[best]), float(vs[best]), float(gap)


def maximize_1d(f: ObjectiveHandle, x, j: int, lo: float, hi: float,
                mode: str, tol: float = 1e-10
                ) -> tuple[float, float, float] | list[tuple[float, float, float]]:
    """Maximize f along coordinate j over [lo, hi], holding the rest of x.

    ``x`` is one point or a (k, n) stack of points that share j, lo and hi.
    For one point, returns (z_star, value, gap_bound) with
    value = f(x with x_j = z_star); for a stack, a list of k such tuples, one
    per row.  The rows' searches run in lockstep: each round evaluates the
    pending probe of every unfinished row with one ``value_batch`` call, and
    rows drop out as their searches end.  A row's result depends on its own
    probe values only, but a multi-row ``value_batch`` may round differently
    in the last bits from a one-row call (a BLAS matrix-matrix kernel instead
    of a matrix-vector one).  For the zoo handles, whose ``value_batch`` uses
    the ``value`` formula, a one-row round matches ``f.value`` bit for bit.

    Modes:
      * quadratic_closed_form - exact for 1-D restrictions that are quadratic
        in x_j (three-point interpolation, vertex vs endpoints); gap 0.  A
        fourth probe at lo + (hi - lo)/4 must lie on the interpolant within
        1e-9 (1 + max |probe value|), else ``ValueError``.
      * concave_search - golden section to bracket width < tol.
      * revenue_discontinuous - golden section on (eps, hi] for the smooth
        concave extension, then an exact comparison with the value at the
        discontinuity z = 0.
    A non-finite probe value raises ``ValueError`` naming the row, the
    coordinate and the probe.
    """
    X = np.array(x, dtype=float)   # the one copy: probes overwrite column j
    single = X.ndim < 2
    if single:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != f.dimension:
        raise ValueError(f"expected a point or a (k, {f.dimension}) stack, "
                         f"got shape {np.shape(x)}")
    if not np.isfinite(X).all():
        raise ValueError("point contains non-finite entries")
    if not 0 <= j < f.dimension:
        raise ValueError(f"coordinate {j} out of range")
    if lo > hi:
        raise ValueError("need lo <= hi")
    if mode not in (QUADRATIC_MODE, CONCAVE_MODE, REVENUE_MODE):
        raise ValueError(f"unknown 1-D mode {mode!r}")
    k = len(X)
    searches = [_search(mode, j, lo, hi, tol) for _ in range(k)]
    results = [None] * k
    pending = [(r, s.send(None)) for r, s in enumerate(searches)]   # (row, probe)
    while pending:
        for r, z in pending:
            X[r, j] = z
        rows = X if len(pending) == k else X[[r for r, _ in pending]]
        values = eval_batch(f, rows).tolist()
        probed, pending = pending, []
        for (r, z), v in zip(probed, values):
            if not math.isfinite(v):
                raise ValueError(f"non-finite evaluation on row {r} at probe x_{j} = {z}")
            try:
                pending.append((r, searches[r].send(v)))
            except StopIteration as done:
                results[r] = done.value
    return results[0] if single else results


@dataclass
class DGConfig:
    """Double-greedy parameters: the seed of a random coordinate order
    (natural order when it is None), the bracket tolerance for the searching
    modes, and the 1-D subproblem mode.  The additive 1-D error a run
    actually incurs is not a parameter: it is measured and recorded as the
    traces' ``meta["max_gap_bound"]``."""

    seed: int | None = None
    mode: str = CONCAVE_MODE
    tol: float = 1e-10


def double_greedy(f: ObjectiveHandle, box: BoxDomain,
                  cfg: DGConfig) -> tuple[Array, SolverTrace, SolverTrace]:
    """Two-particle coordinate ascent from the box corners.

    Per coordinate, each particle solves its 1-D maximization; the candidate
    with the larger gain is written into *both* particles (ties go to the
    lower-corner particle), so after n rounds the particles coincide exactly.
    Requires a submodular objective with f(lower) + f(upper) >= 0.

    The two 1-D searches of a coordinate are one ``maximize_1d`` call on the
    stack (x, y), so each probe round evaluates both particles with one
    two-row ``value_batch``.  Such a call may round differently in the last
    bits from two one-row calls, so trace values can differ at that level
    from a run that searches the particles one after the other.
    """
    if not f.submodular:
        raise ValueError("requires an objective with the submodular flag")
    if f.dimension != box.dimension:
        raise ValueError("objective and box dimensions differ")
    n = box.dimension
    x = box.lower.copy()
    y = box.upper.copy()
    fx = f.value(x)
    fy = f.value(y)
    if fx + fy < -1e-9:
        raise ValueError("f(lower) + f(upper) must be nonnegative")
    order = list(range(n)) if cfg.seed is None else \
        np.random.default_rng(cfg.seed).permutation(n).tolist()
    meta = {"algorithm": "double_greedy", "mode": cfg.mode, "order": list(order)}
    trace_x = SolverTrace(meta=dict(meta))
    trace_y = SolverTrace(meta=dict(meta))
    trace_x.append(0, 0.0, fx, feasibility_residual(box, x))
    trace_y.append(0, 0.0, fy, feasibility_residual(box, y))
    worst_gap = 0.0   # realized additive 1-D error bound across subproblems
    for step, j in enumerate(order, start=1):
        lo, hi = float(box.lower[j]), float(box.upper[j])
        try:
            (za, va, gap_a), (zb, vb, gap_b) = maximize_1d(f, (x, y), j, lo, hi,
                                                           cfg.mode, cfg.tol)
        except ValueError as e:
            raise SolverAbort(f"1-D maximization failed on coordinate {j}: {e}",
                              trace_x, trace_y) from e
        worst_gap = max(worst_gap, gap_a, gap_b)
        delta_a = va - fx
        delta_b = vb - fy
        if delta_a >= delta_b:
            x[j] = za
            y[j] = za
            fx = va
            fy = f.value(y)
        else:
            x[j] = zb
            y[j] = zb
            fy = vb
            fx = f.value(x)
        t = step / n
        trace_x.append(step, t, fx, feasibility_residual(box, x))
        trace_y.append(step, t, fy, feasibility_residual(box, y))
    trace_x.meta["max_gap_bound"] = worst_gap
    trace_y.meta["max_gap_bound"] = worst_gap
    return x, trace_x, trace_y


def largest_abs_eigenvalue(H: Array) -> float:
    """max |eigenvalue| of a symmetric matrix."""
    return float(np.abs(np.linalg.eigvalsh(np.asarray(H, dtype=float))).max())
