"""Sampled certificates of structural properties of continuous objectives.

A "pass" verdict means no violation above tolerance was found in the given
number of trials; it is evidence, not proof.  Reports are deterministic for a
fixed (instance, seed).  Ordered sample pairs a <= b are built by taking the
coordinate-wise min/max of two uniform draws, so no rejection is needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import (Array, BoxDomain, ObjectiveHandle, as_point, check_positive_int,
                   eval_batch, finite_diff_gradient)

DEFAULT_TOL = 1e-9


@dataclass
class PropertyReport:
    verdict: str               # "pass" | "fail"
    trials: int
    worst_violation: float
    witness: Any = None        # inputs achieving the worst violation, iff fail
    tol: float = DEFAULT_TOL

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        w = self.witness
        if w is not None:
            w = [x.tolist() if isinstance(x, np.ndarray) else x for x in w]
        return {"verdict": self.verdict, "trials": self.trials,
                "worst_violation": self.worst_violation, "witness": w,
                "tol": self.tol}


def _report(checker: str, violations: Array, witnesses, trials: int,
            tol: float) -> PropertyReport:
    bad = ~np.isfinite(violations)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{checker}: non-finite violation {violations[i]} at trial {i}, "
                         f"witness {witnesses(i)}")
    worst_idx = int(np.argmax(violations))
    worst = float(violations[worst_idx])
    if worst > tol:
        return PropertyReport("fail", trials, worst, witnesses(worst_idx), tol)
    return PropertyReport("pass", trials, worst, None, tol)


def check_submodular(f: ObjectiveHandle, domain: BoxDomain, pairs: int = 200,
                     tol: float = DEFAULT_TOL, seed: int = 0) -> PropertyReport:
    """Certify f(x) + f(y) >= f(x v y) + f(x ^ y) on sampled pairs."""
    check_positive_int("pairs", pairs)
    rng = np.random.default_rng(seed)
    X = domain.sample(rng, pairs)
    Y = domain.sample(rng, pairs)
    J = np.maximum(X, Y)
    M = np.minimum(X, Y)
    viol = (eval_batch(f, J) + eval_batch(f, M)) - (eval_batch(f, X) + eval_batch(f, Y))
    return _report("check_submodular", viol, lambda i: (X[i], Y[i]), pairs, tol)


def _ordered_pair(rng, domain, trials):
    U = domain.sample(rng, trials)
    V = domain.sample(rng, trials)
    return np.minimum(U, V), np.maximum(U, V)


def _gain_excess(f, A, B, rows, idx, k) -> Array:
    """Per row, the gain of a step k along coordinate idx taken at B, minus
    the same gain taken at A: a diminishing-returns violation when positive."""
    Ak = A.copy()
    Ak[rows, idx] += k
    Bk = B.copy()
    Bk[rows, idx] += k
    return (eval_batch(f, Bk) - eval_batch(f, B)) - (eval_batch(f, Ak) - eval_batch(f, A))


def check_weak_dr(f: ObjectiveHandle, domain: BoxDomain, trials: int = 200,
                  tol: float = DEFAULT_TOL, seed: int = 0) -> PropertyReport:
    """Diminishing returns restricted to coordinates where the base points agree:
    for a <= b with a_i = b_i, the gain of a step k along i is no larger at b."""
    check_positive_int("trials", trials)
    rng = np.random.default_rng(seed)
    A, B = _ordered_pair(rng, domain, trials)
    idx = rng.integers(domain.dimension, size=trials)
    rows = np.arange(trials)
    lo, hi = domain.lower[idx], domain.upper[idx]
    z = lo + rng.random(trials) * (hi - lo)
    A[rows, idx] = z
    B[rows, idx] = z
    k = (1.0 - rng.random(trials)) * (hi - z)
    viol = _gain_excess(f, A, B, rows, idx, k)
    return _report("check_weak_dr", viol,
                   lambda i: (A[i], B[i], int(idx[i]), float(k[i])), trials, tol)


def check_dr(f: ObjectiveHandle, domain: BoxDomain, trials: int = 200,
             tol: float = DEFAULT_TOL, seed: int = 0) -> PropertyReport:
    """Unrestricted diminishing returns: for any a <= b, the gain of a step k
    along any coordinate is no larger at b than at a."""
    check_positive_int("trials", trials)
    rng = np.random.default_rng(seed)
    A, B = _ordered_pair(rng, domain, trials)
    idx = rng.integers(domain.dimension, size=trials)
    rows = np.arange(trials)
    k = (1.0 - rng.random(trials)) * (domain.upper[idx] - B[rows, idx])
    viol = _gain_excess(f, A, B, rows, idx, k)
    return _report("check_dr", viol,
                   lambda i: (A[i], B[i], int(idx[i]), float(k[i])), trials, tol)


def check_coordinatewise_concave(f: ObjectiveHandle, domain: BoxDomain,
                                 trials: int = 200, tol: float = DEFAULT_TOL,
                                 seed: int = 0) -> PropertyReport:
    """Concavity of every single-coordinate restriction, via the three-point
    inequality f(x + k e_i) - f(x) >= f(x + (k+l) e_i) - f(x + l e_i)."""
    check_positive_int("trials", trials)
    rng = np.random.default_rng(seed)
    X = domain.sample(rng, trials)
    idx = rng.integers(domain.dimension, size=trials)
    rows = np.arange(trials)
    span = (1.0 - rng.random(trials)) * (domain.upper[idx] - X[rows, idx])
    split = rng.random(trials)
    k = span * split
    l = span - k
    Xk = X.copy()
    Xk[rows, idx] += k
    Xl = X.copy()
    Xl[rows, idx] += l
    Xkl = X.copy()
    Xkl[rows, idx] += span
    viol = (eval_batch(f, Xkl) - eval_batch(f, Xl)) - (eval_batch(f, Xk) - eval_batch(f, X))
    return _report("check_coordinatewise_concave", viol,
                   lambda i: (X[i], int(idx[i]), float(k[i]), float(l[i])), trials, tol)


def check_monotone(f: ObjectiveHandle, domain: BoxDomain, trials: int = 200,
                   tol: float = DEFAULT_TOL, seed: int = 0) -> PropertyReport:
    """Certify f(b) >= f(a) for sampled a <= b."""
    check_positive_int("trials", trials)
    rng = np.random.default_rng(seed)
    A, B = _ordered_pair(rng, domain, trials)
    viol = eval_batch(f, A) - eval_batch(f, B)
    return _report("check_monotone", viol, lambda i: (A[i], B[i]), trials, tol)


def check_directional_concave(f: ObjectiveHandle, x, v, gridpoints: int = 21,
                              tol: float = DEFAULT_TOL) -> PropertyReport:
    """Midpoint concavity of g(xi) = f(x + xi v) on a uniform grid over [0, 1].

    Both x and x + v must lie in the evaluation domain.  All grid pairs whose
    midpoint is itself a grid point are checked.
    """
    x = as_point(x)
    v = as_point(v, x.shape[0])
    if gridpoints < 3:
        raise ValueError("need at least 3 grid points")
    xi = np.linspace(0.0, 1.0, gridpoints)
    g = eval_batch(f, x[None, :] + xi[:, None] * v[None, :])
    I, J = np.array([(i, j) for i in range(gridpoints)
                     for j in range(i + 2, gridpoints, 2)]).T
    viol = 0.5 * (g[I] + g[J]) - g[(I + J) // 2]
    return _report("check_directional_concave", viol,
                   lambda t: (x + xi[I[t]] * v, x + xi[J[t]] * v), len(I), tol)


def hessian_estimate(f: ObjectiveHandle, x, h: float = 1e-4) -> Array:
    """Finite-difference Hessian (central stencils); exact for quadratics up to
    rounding noise of order 1e-16 |f| / h^2."""
    value = f.value if isinstance(f, ObjectiveHandle) else f
    x = as_point(x)
    n = x.shape[0]
    H = np.zeros((n, n))
    fx = value(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (value(x + ei) - 2.0 * fx + value(x - ei)) / h ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (value(x + ei + ej) - value(x + ei - ej)
                     - value(x - ei + ej) + value(x - ei - ej)) / (4.0 * h ** 2)
            H[i, j] = H[j, i] = mixed
    if not np.all(np.isfinite(H)):
        raise ValueError("non-finite evaluation in the Hessian stencil")
    return H


def check_hessian_offdiag(f: ObjectiveHandle, x, h: float = 1e-4,
                          tol: float = 1e-6,
                          domain: BoxDomain | None = None) -> PropertyReport:
    """Certify that all mixed second partials at x are <= tol.

    The default tolerance is looser than the sampling checkers' because the
    stencil itself carries rounding noise of order 1e-16 |f| / h^2.  When a
    domain is given, x must be interior by the stencil margin h.
    """
    x = as_point(x, f.dimension)
    if domain is not None:
        if np.any(x - h < domain.lower) or np.any(x + h > domain.upper):
            raise ValueError("point too close to the boundary for the stencil")
    H = hessian_estimate(f, x, h)
    I, J = np.triu_indices(x.shape[0], k=1)   # row-major (i, j), i < j
    if not len(I):
        return PropertyReport("pass", 0, 0.0, None, tol)
    mixed = H[I, J]
    return _report("check_hessian_offdiag", mixed,
                   lambda t: (int(I[t]), int(J[t]), float(mixed[t])), len(I), tol)


def check_gradient(f: ObjectiveHandle, x, h: float = 1e-5,
                   rel_tol: float = 1e-5) -> PropertyReport:
    """Compare the declared gradient against central differences.

    Per-coordinate error is |g_i - fd_i| / max(1, |fd_i|); the point must be
    interior by margin h.
    """
    if f.gradient is None:
        raise ValueError("objective declares no gradient")
    x = as_point(x, f.dimension)
    declared = as_point(f.gradient(x), f.dimension)
    fd = finite_diff_gradient(f, x, h)
    err = np.abs(declared - fd) / np.maximum(1.0, np.abs(fd))
    return _report("check_gradient", err, lambda i: (i, float(declared[i]), float(fd[i])),
                   f.dimension, rel_tol)


CHECKERS = {
    "submodular": check_submodular,
    "weak-dr": check_weak_dr,
    "dr": check_dr,
    "coordconcave": check_coordinatewise_concave,
    "monotone": check_monotone,
}
