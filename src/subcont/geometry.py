"""Feasibility residuals, an LP vertex oracle, Euclidean projection, and samplers
for down-closed polytopes ``{x : 0 <= x <= upper, A x <= b}``.  The residual
and the projection also take a ``BoxDomain``, read as a polytope without rows.

Everything runs on plain numpy.  The LP oracle is a bounded-variable primal
simplex whose tableau holds only the m rows of ``A x + s = b``; the box bounds
are handled as bound flips in the ratio test.  It is deterministic and
dependency-free.  Each solution keeps its final simplex basis, so that
``reoptimize`` can resume from it for another cost vector: it prices the
basis with the new reduced costs, returns the same solution when they
prove it optimal, and pivots on from that basis otherwise.  The projection
is one least-distance program, solved as a single NNLS, which can start
from the passive set of a nearby point's projection.  The hit-and-run
sampler takes both ends of each chord from one reduction over
the ``2n + m`` constraints, each taken once per side.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Array, PolytopeDomain, as_point, as_stack, check_positive_int

_EPS_COST = 1e-9     # reduced-cost threshold for entering variables
_EPS_PIVOT = 1e-11   # smallest usable pivot element
_EPS_STEP = 1e-10    # a simplex step this short counts as degenerate


@dataclass
class LPSolution:
    """A vertex, its objective, and the simplex basis that certifies it.

    ``basis`` is the final simplex basis of ``linear_maximize`` or
    ``reoptimize``: the tableau ``B^-1 [A I b]`` in complemented variables
    (its last column the basic variables' values), the basic column indices,
    and the mask of complemented (at-upper-bound) columns.  A solution built
    elsewhere has None and carries no certificate.
    """

    point: Array
    objective: float
    basis: tuple[Array, Array, Array] | None = field(default=None, repr=False,
                                                     compare=False)


def feasibility_residual(domain, x) -> float:
    """Largest constraint violation of x; +0.0 when feasible."""
    x = as_point(x, domain.dimension)
    res = max((domain.lower - x).max(initial=0.0), (x - domain.upper).max(initial=0.0))
    if domain.num_rows:
        res = max(res, (domain.A @ x - domain.b).max(initial=0.0))
    return float(max(0.0, res))   # 0.0 first, so a -0.0 entry is not returned


def linear_maximize(P: PolytopeDomain, c) -> LPSolution:
    """Return a vertex of P maximizing <c, x>.

    Bounded-variable primal simplex on the m rows of ``A x + s = b``, started
    from the slack basis at the origin.  The box bounds ``0 <= x <= upper``
    stay out of the tableau: a variable that reaches its upper bound is
    complemented (``x_j -> upper_j - x_j``), either as a bound flip of the
    entering variable or as a basic variable leaving at its upper bound, so
    every nonbasic tableau variable sits at 0.  Pricing is Dantzig's rule
    (largest reduced cost); after a degenerate step it switches to Bland's
    rule (lowest improving index) until a step makes progress, which prevents
    cycling.  Ratio-test ties go to the lowest basic-variable index.  The
    result is a pure, deterministic function of (P, c); it carries its final
    simplex basis, for ``reoptimize``.
    """
    c = as_point(c, P.dimension)
    n, m = P.dimension, P.num_rows
    ncols = n + m
    T = np.empty((m, ncols + 1))
    T[:, :n] = P.A
    T[:, n:ncols] = np.eye(m)
    T[:, -1] = P.b
    z = np.zeros(ncols)   # reduced costs
    z[:n] = c
    return _simplex(P, c, T, z, np.arange(n, ncols), np.zeros(ncols, dtype=bool))


def reoptimize(P: PolytopeDomain, sol: LPSolution, c) -> LPSolution:
    """Return a vertex of P maximizing <c, x>, resuming the simplex from the
    final basis of ``sol``, an earlier solution of ``linear_maximize`` or
    ``reoptimize`` on the same P.

    The primal solution of a basis does not depend on the costs, so the
    basis stays feasible and only its reduced costs ``c~ - c~_B T`` are
    recomputed (``c~ = [c, 0]`` with the complemented entries negated).  If
    none is above the simplex's stopping threshold, the basis proves the
    vertex optimal for c as well and ``sol`` itself is returned (its
    ``objective`` still that of the cost it was solved for); otherwise
    the pivot loop of ``linear_maximize`` runs on a copy of the basis, so
    ``sol`` is never changed.  Its vertex maximizes <c, x> as a cold solve's
    does, but the tableau carries the earlier pivots' round-off, so the
    point may differ from a cold solve's in the last bits.  Raises
    ``ValueError`` when ``sol`` carries no basis.
    """
    if sol.basis is None:
        raise ValueError("reoptimize needs a solution that carries its simplex basis")
    c = as_point(c, P.dimension)
    T, basis, flipped = sol.basis
    cost = np.zeros(T.shape[1] - 1)
    cost[:P.dimension] = c
    cost[flipped] *= -1.0
    z = cost - cost[basis] @ T[:, :-1]
    if z.max(initial=-np.inf) <= _EPS_COST:
        return sol
    return _simplex(P, c, T.copy(), z, basis.copy(), flipped.copy())


def _simplex(P: PolytopeDomain, c: Array, T: Array, z: Array, basis: Array,
             flipped: Array) -> LPSolution:
    """The pivot loop of ``linear_maximize`` from a primal-feasible basis: the
    tableau ``T = B^-1 [A I b]`` in complemented variables, the reduced costs
    z, the basic column indices and the complemented mask, all updated in
    place.  Returns the final vertex with its basis."""
    n, m = P.dimension, P.num_rows
    ncols = n + m
    ub = np.concatenate([P.upper, np.full(m, np.inf)])
    ub_basic = ub[basis]
    rhs = T[:, -1]
    bland = False
    # the ratio test divides by every entry of the column; the masks keep the
    # quotients of the ones too small to pivot on out of it
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(1000 + 50 * ncols):
            if bland:
                improving = np.flatnonzero(z > _EPS_COST)
                if improving.size == 0:
                    break
                j = int(improving[0])
            else:
                j = int(np.argmax(z))
                if z[j] <= _EPS_COST:
                    break
            col = T[:, j]
            # a basic variable falls to 0 where col > 0, rises to its bound where col < 0
            ratios = np.where(col > _EPS_PIVOT, rhs / col,
                              np.where(col < -_EPS_PIVOT, (ub_basic - rhs) / -col, np.inf))
            step = ratios.min(initial=np.inf)
            if ub[j] <= step:   # x_j reaches its own bound first: flip, no pivot
                if ub[j] == np.inf:
                    raise RuntimeError("unbounded LP; impossible on a box-bounded polytope")
                step = ub[j]
                rhs -= step * col
                col *= -1.0
                z[j] = -z[j]
                flipped[j] = not flipped[j]
            else:
                tied = np.flatnonzero(ratios <= step + 1e-10 * (1.0 + abs(step)))
                i = int(tied[np.argmin(basis[tied])])
                if col[i] < 0:   # complement the leaver so that it leaves at 0
                    k = basis[i]
                    T[i] *= -1.0
                    T[i, k] = 1.0
                    T[i, -1] += ub[k]
                    flipped[k] = not flipped[k]
                row = T[i]
                row /= row[j]
                fac = T[:, j].copy()
                fac[i] = 0.0
                T -= fac[:, None] * row
                z -= z[j] * row[:ncols]
                basis[i] = j
                ub_basic[i] = ub[j]
            bland = step <= _EPS_STEP
        else:
            raise RuntimeError(f"simplex cycling guard exceeded; last basis {basis.tolist()}")

    y = np.zeros(ncols)
    y[basis] = T[:, -1]
    x = np.where(flipped[:n], P.upper - y[:n], y[:n])
    np.clip(x, 0.0, P.upper, out=x)
    return LPSolution(point=x, objective=float(c @ x), basis=(T, basis, flipped))


def _nnls(M: Array, d: Array, passive: Array | None = None) -> tuple[Array, Array]:
    """``argmin ||M u - d||`` over ``u >= 0`` by Lawson and Hanson's active set:
    least squares on the free (passive) columns, stepping back to ``u >= 0``
    and fixing at 0 the columns that reach it.  Returns u and its final
    passive set.  Raises after ``3k`` steps.

    The loop starts from ``passive`` when one is given, as Bro and De Jong
    (1997) start it: least squares on those columns, dropping the ones that
    come out nonpositive until the rest are positive; then the loop goes on
    from that point.  If every column drops out it starts from u = 0, as it
    does without a start.  The same final passive set gives the same
    ``lstsq`` and so the same bits, however the loop got there.
    """
    k = M.shape[1]
    tol = 10.0 * max(M.shape) * np.finfo(float).eps * max(1.0, np.abs(M).sum(axis=0).max())
    u = np.zeros(k)
    passive = np.zeros(k, dtype=bool) if passive is None else passive.copy()
    while passive.any():
        s = np.zeros(k)
        s[passive] = np.linalg.lstsq(M[:, passive], d, rcond=None)[0]
        if s[passive].min() > 0:
            u = s
            break
        passive &= s > 0
    enter = True
    for _ in range(3 * k):
        if enter:
            w = np.where(passive, -np.inf, M.T @ (d - M @ u))
            j = int(np.argmax(w))
            if w[j] <= tol:
                return u, passive
            passive[j] = True
        s = np.zeros(k)
        s[passive] = np.linalg.lstsq(M[:, passive], d, rcond=None)[0]
        enter = bool(s[passive].min() > 0)
        if not enter:   # back to the last point of u -> s with u >= 0
            neg = passive & (s <= 0)
            s = u + np.min(u[neg] / (u[neg] - s[neg])) * (s - u)
            passive &= s > tol
            s[~passive] = 0.0
        u = s
    raise RuntimeError(f"NNLS active set did not settle within {3 * k} steps")


def project_polytope(P: PolytopeDomain, x, passive: Array | None = None) -> Array:
    """Euclidean projection of x onto P, as one least-distance program.

    The nearest point is ``x + z`` for the shortest z with ``G (x + z) <= h``,
    ``G = [A; -I; I]``, ``h = [b; 0; upper]``: by Lawson & Hanson (1974, ch.
    23), ``z = -s r[:n] / r[n]`` for the residual r of the NNLS
    ``min ||M u - e_{n+1}||``, ``u >= 0``, ``M = [-G^T; (G x - h)^T / s]``.
    The scale s bounds the distance to P, so ``|r[n]|`` stays near 1 and far
    points lose no digits.  Finite and deterministic; the result is clipped
    into the box against round-off.  P may also be a ``BoxDomain``: without
    rows, the clip into ``[lower, upper]`` alone is the projection.

    ``passive`` carries the NNLS from one call to the next: a bool array over
    the ``m + 2n`` constraints of G, the passive set to start from, which the
    call overwrites with its final one (untouched without rows).  Nearby
    points share almost all of it, so a projection started from the last
    one's set takes about one least-squares solve.  Without it the NNLS
    starts cold.  A warm and a cold call that end on the same set return the
    same bits; otherwise they agree to round-off.
    """
    x = as_point(x, P.dimension)
    if not P.num_rows:
        return np.clip(x, P.lower, P.upper)
    n = P.dimension
    s = max(1.0, float(np.linalg.norm(x - ratio_shrink(P, np.clip(x, 0.0, P.upper)))))
    M = np.vstack([np.hstack([-P.A.T, np.eye(n), -np.eye(n)]),
                   np.concatenate([P.A @ x - P.b, -x, x - P.upper]) / s])
    e = np.eye(n + 1)[n]
    u, final = _nnls(M, e, passive)
    if passive is not None:
        passive[:] = final
    r = M @ u - e
    return np.clip(x - s * r[:n] / r[n], 0.0, P.upper)


_INF_BITS = np.array(np.inf).view(np.int64)   # bit pattern of +inf


def _pads(den, pad, mask):
    """The ratio test's mask as an additive pad, written into ``pad``: 0 where
    a constraint caps theta from above (den > 1e-13) and +inf elsewhere.  The
    pad is the 0/1 mask times the int64 bit pattern of +inf, written through
    an int64 view; the bool ``mask`` is a work buffer.  Works row-wise on a
    stack of denominators."""
    np.less_equal(den, 1e-13, out=mask)
    np.multiply(mask, _INF_BITS, out=pad.view(np.int64))


def _chord(num, den, pad, ratio, ends):
    """Feasible interval (lo, hi) of theta on the line x + theta*d, from the
    constraints ``theta * den <= num``; possibly empty.

    ``num`` and ``den`` hold each constraint twice, the second time with the
    denominator negated: ``num = [r, r]``, ``den = [e, -e]``, ``ends = [0, w]``
    for ``w = len(e)``.  The first half caps theta from above; in the second,
    ``r / -e = -(r / e)`` exactly, so it caps ``-theta`` from above where the
    first caps theta from below.  The pad turns every entry outside its side
    into +inf (or NaN, for 0/0 and -inf + inf, which fmin skips), so one
    ``fmin.reduceat`` over both halves gives ``[hi, -lo]``.  ``ratio`` is a
    work buffer, overwritten on each call.
    """
    np.divide(num, den, out=ratio)
    np.add(ratio, pad, out=ratio)
    hi, neg_lo = np.fmin.reduceat(ratio, ends).tolist()
    return -neg_lo, hi


def _flip_inward(x, d, upper):
    """Point tight box coordinates of the direction back into the box.

    The chain starts at the origin, a vertex, where almost every raw direction
    has a zero-length chord; the flip is the one-step recovery.
    """
    d = np.where(x <= 1e-12, np.abs(d), d)
    return np.where(x >= upper - 1e-12, -np.abs(d), d)


_CHUNK = 256   # steps whose randomness, denominators and pads are built at once


def hit_and_run(P: PolytopeDomain, k: int, seed: int) -> Array:
    """k approximately-uniform samples from P, returned as rows.

    The chain starts at the origin (feasible since b >= 0), discards a burn-in
    of 50 n steps and then keeps one state every n steps, so it runs
    ``50 n + k n`` steps in all.  The state is one vector ``z = [x, A x, -x]``
    against ``top = [upper, b, 0]``, so each step's chord comes from one ratio
    test over the ``w = 2n + m`` constraints: numerators ``top - z`` against
    denominators ``e = [d, A d, -d]``.  Both ends of the chord come from one
    reduction over the doubled ratio vector of ``[top - z, top - z]`` against
    ``[e, -e]`` (see ``_chord``).  A move adds ``theta e`` to ``z`` and clips
    it against ``[0, -inf, -upper]`` and ``[upper, +inf, 0]``; negation is
    exact, so the last block stays ``-x``.  ``A x`` is carried along
    incrementally and recomputed every 16384 steps against drift.  A
    degenerate chord is retried once with the direction flipped inward on
    tight box coordinates; if still degenerate the chain stays put for that
    step (a lazy move, so the uniform target is unchanged).  The randomness is
    drawn 256 steps at a time from two child streams of ``seed``, and each
    such chunk's doubled denominators and pads are built at once, in buffers
    allocated once per chain (the pads from the bit pattern of +inf, see
    ``_pads``); deterministic for a fixed seed.
    """
    check_positive_int("sample count k", k)
    n, m = P.dimension, P.num_rows
    burn_in = 50 * n
    thin = max(1, n)
    # separate child streams per purpose, so chains for different k share a
    # common prefix and best-of-k values grow monotonically in k
    rng_dirs = np.random.default_rng([seed, 0])
    rng_unif = np.random.default_rng([seed, 1])
    A, upper = P.A, P.upper
    w = 2 * n + m
    z = np.zeros(w)   # the state [x, A x, -x], updated in place
    x, Ax = z[:n], z[n:n + m]
    top = np.concatenate([upper, P.b, np.zeros(n)])
    floor = np.concatenate([np.zeros(n), np.full(m, -np.inf), -upper])
    ceil = np.concatenate([upper, np.full(m, np.inf), np.zeros(n)])
    num, ratio = np.empty(2 * w), np.empty(2 * w)
    num_lo, num_hi = num[:w], num[w:]
    move = np.empty(w)
    ends = np.array([0, w])
    dirs_buf = np.empty((_CHUNK, n))
    dens_buf, pads_buf = np.empty((_CHUNK, 2 * w)), np.empty((_CHUNK, 2 * w))
    mask_buf = np.empty((_CHUNK, 2 * w), dtype=bool)
    samples = np.empty((k, n))
    total = burn_in + k * thin
    emitted = 0
    emit_at = burn_in + thin
    step = 0
    subtract, multiply, add = np.subtract, np.multiply, np.add
    maximum, minimum = np.maximum, np.minimum
    with np.errstate(divide="ignore", invalid="ignore"):
        while step < total:
            c = min(_CHUNK, total - step)
            dirs, dens, pads = dirs_buf[:c], dens_buf[:c], pads_buf[:c]
            rng_dirs.standard_normal(out=dirs)
            unif = rng_unif.random(c).tolist()
            dens[:, :n] = dirs
            np.matmul(dirs, A.T, out=dens[:, n:n + m])
            np.negative(dirs, out=dens[:, n + m:w])
            np.negative(dens[:, :w], out=dens[:, w:])
            _pads(dens, pads, mask_buf[:c])
            for den, e, pad, u in zip(dens, dens[:, :w], pads, unif):
                subtract(top, z, out=num_lo)
                num_hi[:] = num_lo
                lo, hi = _chord(num, den, pad, ratio, ends)
                if not hi - lo > 1e-12:
                    d = _flip_inward(x, e[:n], upper)
                    # the retry overwrites this row of the chunk, which this
                    # step has used.  A d as running row sums, in fixed
                    # left-to-right order: the chain is chaotic, so a
                    # last-bit change in one retry's A d grows over the
                    # following steps.  BLAS A @ d sums in another order; on
                    # gen_monotone_nqp(100, 50, s), s = 0..4, k = 1000, it
                    # moved the samples by up to 0.13 per coordinate and
                    # best-of-k values by up to 0.75%.  This order keeps a
                    # seed's samples identical to those of earlier releases.
                    e[:n] = d
                    e[n:n + m] = np.cumsum(A * d, axis=1)[:, -1]
                    np.negative(d, out=e[n + m:])
                    np.negative(e, out=den[w:])
                    _pads(den, pad, mask_buf[0])
                    lo, hi = _chord(num, den, pad, ratio, ends)
                if hi - lo > 1e-12:
                    multiply(e, lo + u * (hi - lo), out=move)
                    add(z, move, out=z)
                    # clip into the box; np.clip costs more per call than both
                    maximum(z, floor, out=z)
                    minimum(z, ceil, out=z)
                step += 1
                if step == emit_at:
                    samples[emitted] = x
                    emitted += 1
                    emit_at += thin
            # periodic resync against incremental drift; 256 divides 16384,
            # so every 16384th step ends a chunk
            if m and step % 16384 == 0:
                Ax[:] = A @ x
    return samples


def ratio_shrink(P: PolytopeDomain, x) -> Array:
    """Scale nonnegative points into P: clamp each to the box, then shrink it
    by its worst row ratio t* = min(1, min_i b_i / (A x')_i over violable rows).

    ``x`` is one point or a (k, n) stack of points; the result has the same
    shape.  Each row's ``A x'`` is its own matrix-vector product, so every row
    shrinks bit for bit as it would alone (a matrix-matrix product rounds
    differently in the last bits).
    """
    X, single = as_stack(x, P.dimension)
    if np.any(X < 0):
        raise ValueError("ratio_shrink expects nonnegative points")
    xc = np.minimum(X, P.upper)
    t = np.ones((len(xc), 1))
    if P.num_rows:
        ax = np.array([P.A @ row for row in xc]).reshape(len(xc), P.num_rows)
        ratios = np.divide(P.b, ax, out=np.full(ax.shape, np.inf), where=ax > 0)
        np.minimum(t, ratios.min(axis=1, keepdims=True), out=t)
    shrunk = t * xc
    return shrunk[0] if single else shrunk
