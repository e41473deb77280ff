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
                   SolverTrace, as_point, as_stack, check_positive_int, eval_batch)
from .geometry import LPSolution, feasibility_residual, linear_maximize, reoptimize

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
    be injected for error-level experiments.  The oracle is called for the
    first vertex only: each later one is ``reoptimize``d from the previous
    iteration's simplex basis.  With small stepsizes the gradient moves
    little, so that basis is often still optimal (the vertex is kept, with
    no pivot) or a pivot or two away from the new optimum.  A solution
    without a stored basis (as an injected oracle may return) cannot be
    resumed, so such an oracle is called every iteration.  Each step is
    min(1/K, 1 - t) for the running sum t of the earlier ones, and the last
    step sets t to 1 however that float sum rounded, so the run ends on
    t = 1 without overshoot.

    ``trace.meta["opt_upper_bound"]`` is the certified upper bound
    ``min_k f(x_k) + (<grad f(x_k), v_k> + delta) / alpha`` on the optimum:
    for a monotone f with diminishing returns,
    ``OPT <= f(x) + max_{v in P} <grad f(x), v>`` at every x.
    ``trace.meta["lp_calls"]`` counts the oracle calls,
    ``trace.meta["lp_warm"]`` the iterations that pivoted on from the
    previous basis and ``trace.meta["lp_kept"]`` those that kept the previous
    vertex; the three sum to K.
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
    lp_calls = lp_warm = 0
    upper_bound = np.inf
    trace = SolverTrace(meta={"algorithm": "frank_wolfe", "gamma": gamma,
                              "alpha": cfg.alpha, "delta": cfg.delta})
    trace.append(0, 0.0, f.value(x), feasibility_residual(P, x))
    for k in range(cfg.K):
        try:
            grad = as_point(f.gradient(x), P.dimension)
        except ValueError as e:
            raise SolverAbort(f"frank_wolfe: gradient of {f.name!r} failed at "
                              f"iteration {k}: {e}", trace) from e
        if sol is None or sol.basis is None:
            sol = oracle(P, grad)
            lp_calls += 1
        else:
            kept, sol = sol, reoptimize(P, sol, grad)
            lp_warm += sol is not kept
        # a kept solution's objective belongs to an earlier gradient
        upper_bound = min(upper_bound, trace.records[-1].objective
                          + (float(grad @ sol.point) + cfg.delta) / cfg.alpha)
        step = min(gamma, 1.0 - t)
        x = x + step * sol.point
        t = 1.0 if k == cfg.K - 1 else t + step
        trace.append(k + 1, t, f.value(x), feasibility_residual(P, x))
    trace.meta.update(opt_upper_bound=upper_bound, lp_calls=lp_calls, lp_warm=lp_warm,
                      lp_kept=cfg.K - lp_calls - lp_warm)
    return x, trace


def _envelope(a: float, c: float, d: float, b: float,
              fa: float, fc: float, fd: float, fb: float) -> float:
    """Upper bound on a concave g over [a, b] from its values at a < c < d < b:
    g lies under every secant extended past its ends."""
    s_ac = (fc - fa) / (c - a)
    s_cd = (fd - fc) / (d - c)
    s_db = (fb - fd) / (b - d)
    return max(fc + max(-s_cd, 0.0) * (c - a),
               min(fc + max(s_ac, 0.0) * (d - c), fd + max(-s_db, 0.0) * (d - c)),
               fd + max(s_cd, 0.0) * (b - d), fa, fb)


def _search(mode: str, j: int, lo: float, hi: float, tol: float):
    """One 1-D search of ``maximize_1d`` as a generator: it yields a tuple of
    probe coordinates per round, is sent their values (a sequence in the same
    order), and returns (z_best, value_best, gap_bound).

    The opening round holds every probe that depends on no value: lo, mid,
    hi and the quarter point in quadratic mode; golden section's a, b, c, d
    in concave mode, led by the anchor lo in revenue mode.  Every later
    round is one probe: the vertex, the end probe or a golden-section step.

    The searching modes take golden section's probes and keep the best value
    actually evaluated (bracket ends included).  Once the bracket holds
    probes a < c < d < b, two rules may stop them early:

    * envelope (needs a concave g): g lies under every secant extended past
      its ends, which bounds g on [a, b] by some U.  The search stops when
      U - best <= 1e-12 (1 + |best|), with gap U - best plus that allowance.
      In revenue mode it also stops when U < anchor: the anchor wins, as
      golden section would find later.
    * end (unimodality suffices): at most once, when a or b holds the best
      of the four, one probe tol inside that end.  If the end beats it by
      more than 1e-12 (1 + |f_end|), the maximum lies within tol of the end
      and the search stops.

    Otherwise golden section runs down to a bracket of width < tol, or until
    rounding leaves no room for a < c < d < b (a tol near the spacing of
    floats at the bracket), where it could narrow the bracket no further.  Unless
    the envelope rule stopped it, the gap is the final bracket width (tol
    for the end rule) times the steepest slope observed between probes, plus
    1e-12 (1 + |best|).  The probes are a prefix of golden section's plus at
    most one end probe, so an endpoint answer is the one golden section
    returns.
    """
    if hi - lo < 1e-15:
        (value,) = yield (lo,)
        return lo, value, 0.0

    if mode == QUADRATIC_MODE:
        mid = 0.5 * (lo + hi)
        # three points fit a parabola to anything: a fourth one checks it
        quarter = lo + (hi - lo) / 4.0
        glo, gmid, ghi, gq = yield (lo, mid, hi, quarter)
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
                (gv,) = yield (vertex,)
                candidates.append((vertex, gv))
        z_star, value = max(candidates, key=lambda p: p[1])
        return float(z_star), float(value), 0.0

    a, b = lo, hi
    head = ()   # revenue mode: the anchor, the discontinuity lo (0 in practice)
    if mode == REVENUE_MODE:
        eps = 1e-10
        if hi <= lo + eps:
            (value,) = yield (lo,)
            return lo, value, 0.0
        head = (lo,)
        a = max(lo + eps, eps)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    opening = (a, b, c, d) if b - a > tol else (a, b) if b > a else (a,)
    values = yield head + opening
    anchor = values[0] if head else None
    probes = list(zip(opening, values[-len(opening):]))
    upper = None   # the envelope bound, once it stopped the search
    if b - a > tol:
        fa, fb, fc, fd = values[-4:]
        top = max(fa, fb, fc, fd)
        end_probed = False
        while b - a > tol and a < c < d < b:
            bound = _envelope(a, c, d, b, fa, fc, fd, fb)
            if anchor is not None and bound < anchor:
                return lo, anchor, 0.0
            if bound - top <= 1e-12 * (1.0 + abs(top)):
                upper = bound
                break
            if not end_probed and max(fa, fb) > max(fc, fd):
                end_probed = True
                end, f_end, inner = (a, fa, a + tol) if fa >= fb else (b, fb, b - tol)
                (f_inner,) = yield (inner,)
                probes.append((inner, f_inner))
                top = max(top, f_inner)
                if f_end - f_inner > 1e-12 * (1.0 + abs(f_end)):
                    a, b = (a, inner) if end == a else (inner, b)
                    break
            if fc >= fd:
                b, fb, d, fd = d, fd, c, fc
                c = b - _INVPHI * (b - a)
                (fc,) = yield (c,)
                probes.append((c, fc))
                top = max(top, fc)
            else:
                a, fa, c, fc = c, fc, d, fd
                d = a + _INVPHI * (b - a)
                (fd,) = yield (d,)
                probes.append((d, fd))
                top = max(top, fd)
    probes.sort(key=lambda p: p[0])
    zs = np.array([p[0] for p in probes])
    vs = np.array([p[1] for p in probes])
    best = int(np.argmax(vs))
    if anchor is not None and anchor >= vs[best]:
        return lo, anchor, 0.0
    allowance = 1e-12 * (1.0 + abs(vs[best]))
    if upper is not None:
        return float(zs[best]), float(vs[best]), float(max(upper - vs[best], 0.0) + allowance)
    dz = np.diff(zs)
    good = dz > 0
    slope = float(np.max(np.abs(np.diff(vs)[good] / dz[good]), initial=0.0))
    return float(zs[best]), float(vs[best]), float((b - a) * slope + allowance)


def _check_search(mode: str, tol: float) -> None:
    if mode not in (QUADRATIC_MODE, CONCAVE_MODE, REVENUE_MODE):
        raise ValueError(f"unknown 1-D mode {mode!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"1-D tol must be finite and positive, got {tol}")


def maximize_1d(f: ObjectiveHandle, x, j: int, lo: float, hi: float,
                mode: str, tol: float = 1e-10
                ) -> tuple[float, float, float] | list[tuple[float, float, float]]:
    """Maximize f along coordinate j over [lo, hi], holding the rest of x.

    ``x`` is one point or a (k, n) stack of points that share j, lo and hi.
    For one point, returns (z_star, value, gap_bound) with
    value = f(x with x_j = z_star); for a stack, a list of k such tuples, one
    per row.  The rows' searches run in lockstep, and rows drop out as their
    searches end.  Each round makes one ``value_batch`` call on every pending
    probe of every unfinished row: the row repeated once per probe, with x_j
    set to the probe.  The opening round holds the probes that depend on no
    value (up to five per row, see ``_search``); later rounds hold one per
    row.  A row's result depends on its own probe values only, but a
    multi-row ``value_batch`` may round differently in the last bits from a
    one-row call (a BLAS matrix-matrix kernel instead of a matrix-vector
    one), so the values may differ at that level from ``f.value``.

    Modes:
      * quadratic_closed_form - exact for 1-D restrictions that are quadratic
        in x_j (three-point interpolation, vertex vs endpoints); gap 0.  A
        fourth probe at lo + (hi - lo)/4 must lie on the interpolant within
        1e-9 (1 + max |probe value|), else ``ValueError``.
      * concave_search - golden section to bracket width < tol.  It assumes
        a concave restriction, as DR-submodular objectives have along every
        coordinate.
      * revenue_discontinuous - golden section on (eps, hi] for the smooth
        concave extension, then an exact comparison with the value at the
        discontinuity z = 0.  Revenue's part on (eps, hi] is concave: square
        roots of nondecreasing affine inflows, plus a linear term.
    Both searching modes stop early once their probes settle the answer (see
    ``_search``): when the concave envelope of the probes is within
    1e-12 (1 + |best|) of the best value, or, in revenue mode, below the
    value at z = 0; or when one probe tol inside the best end shows the
    maximum within tol of it.  Their probes are a prefix of golden section's
    plus at most one end probe, so an endpoint answer is golden section's.
    A non-finite probe value raises ``ValueError`` naming the row, the
    coordinate and the probe.
    """
    X, single = as_stack(x, f.dimension)
    if not 0 <= j < f.dimension:
        raise ValueError(f"coordinate {j} out of range")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval [{lo}, {hi}] of x_{j} must be finite")
    if lo > hi:
        raise ValueError("need lo <= hi")
    _check_search(mode, tol)
    k = len(X)
    searches = [_search(mode, j, lo, hi, tol) for _ in range(k)]
    results = [None] * k
    pending = [(r, s.send(None)) for r, s in enumerate(searches)]   # (row, probes)
    while pending:
        rows = X[[r for r, _ in pending]].repeat([len(zs) for _, zs in pending], axis=0)
        rows[:, j] = [z for _, zs in pending for z in zs]
        values = eval_batch(f, rows).tolist()
        probed, pending = pending, []
        at = 0
        for r, zs in probed:
            vs = values[at:at + len(zs)]
            at += len(zs)
            for z, v in zip(zs, vs):
                if not math.isfinite(v):
                    raise ValueError(f"non-finite evaluation on row {r} at probe x_{j} = {z}")
            try:
                pending.append((r, searches[r].send(vs)))
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

    def __post_init__(self):
        _check_search(self.mode, self.tol)


def double_greedy(f: ObjectiveHandle, box: BoxDomain,
                  cfg: DGConfig) -> tuple[Array, SolverTrace, SolverTrace]:
    """Two-particle coordinate ascent from the box corners.

    Per coordinate, each particle solves its 1-D maximization; the candidate
    with the larger gain is written into *both* particles (ties go to the
    lower-corner particle), so after n rounds the particles coincide exactly.
    Requires a submodular objective with f(lower) + f(upper) >= 0.

    The two 1-D searches of a coordinate are one ``maximize_1d`` call on the
    stack (x, y), so each probe round evaluates both particles' pending
    probes with one ``value_batch``: both opening sets (up to five probes
    each) in the first round, one probe per particle after.  Such a call may
    round differently in the last bits from one-row calls, so trace values
    can differ at that level from a run that probes the particles one point
    at a time.
    """
    if not f.submodular:
        raise ValueError("requires an objective with the submodular flag")
    if f.dimension != box.dimension:
        raise ValueError("objective and box dimensions differ")
    if box.num_rows:
        raise ValueError("double_greedy needs a box, got a domain with rows")
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
