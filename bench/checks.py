"""Output checks computed apart from the program.

Each function takes plain arrays and numbers and returns ``None`` when the
output passes, or a one-line description of what is wrong.  The formulas are
written out here from the definitions in the package's docstrings, not taken
from the package, so a fault in an objective, the LP oracle or a solver shows
as a disagreement.
"""
from __future__ import annotations

import math

import numpy as np

FEAS_TOL = 1e-9
VALUE_REL = 1e-9
LP_REL = 1e-9
STEP_MASS_TOL = 1e-12


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def infeasibility(x, upper, A=None, b=None, lower=None, tol=FEAS_TOL) -> str | None:
    """``lower <= x <= upper`` (lower 0 by default) and ``A x <= b``, each to tol."""
    x = np.asarray(x, dtype=float)
    lower = np.zeros_like(x) if lower is None else np.asarray(lower, dtype=float)
    if x.shape != np.shape(upper):
        return f"point has shape {x.shape}, expected {np.shape(upper)}"
    below = float(np.max(lower - x))
    above = float(np.max(x - upper))
    if below > tol or above > tol:
        return f"point leaves the box by {max(below, above):.3e}"
    if A is not None and len(b):
        excess = float(np.max(np.asarray(A) @ x - b))
        if excess > tol:
            return f"point violates a row constraint by {excess:.3e}"
    return None


def quadratic_value(H, h, c, x) -> float:
    """0.5 x'Hx + h'x + c."""
    x = np.asarray(x, dtype=float)
    return float(0.5 * x @ H @ x + h @ x + c)


def revenue_value(W, sa, alpha, beta, gamma, x) -> float:
    """Users with x_t = 0 bring alpha sqrt(sum_s W_ts x_s); users with x_t > 0
    bring beta sa_t x_t - gamma x_t."""
    total = 0.0
    for t in range(len(x)):
        if x[t] == 0:
            total += alpha * math.sqrt(sum(W[t, s] * x[s] for s in range(len(x)) if x[s] != 0))
        else:
            total += beta * sa[t] * x[t] - gamma * x[t]
    return total


def influence_value(probs: dict, n_customers: int, x) -> float:
    """Expected customers reached: sum_t 1 - prod_{(s,t)} (1 - p_st)^x_s."""
    survive = np.ones(n_customers)
    for (s, t), p in probs.items():
        survive[t] *= (1.0 - p) ** x[s]
    return float(n_customers - survive.sum())


def facility_value(weights, x) -> float:
    """sum_t max_s w_st (1 - exp(-x_s))."""
    response = 1.0 - np.exp(-np.asarray(x, dtype=float))
    return float(sum(max(weights[s, t] * response[s] for s in range(weights.shape[0]))
                     for t in range(weights.shape[1])))


def value_mismatch(reported: float, expected: float, rel=VALUE_REL) -> str | None:
    if not _rel_gap(reported, expected) <= rel:
        return f"reported value {reported!r} but the formula gives {expected!r}"
    return None


def lp_mismatch(A, b, upper, c, objective: float, rel=LP_REL) -> str | None:
    """The LP optimum max <c, x> over {0 <= x <= upper, A x <= b} agrees with
    HiGHS, run at tight tolerances."""
    from scipy.optimize import linprog

    res = linprog(-np.asarray(c, dtype=float), A_ub=A if len(b) else None,
                  b_ub=b if len(b) else None, bounds=list(zip(np.zeros(len(upper)), upper)),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        return f"HiGHS did not solve the LP: {res.message}"
    best = -float(res.fun)
    if not _rel_gap(objective, best) <= rel:
        return f"LP oracle optimum {objective!r} but HiGHS finds {best!r}"
    return None


def step_mass_error(ts) -> str | None:
    """Frank-Wolfe's steps (the increments of the cumulative step t) are
    positive and add up to 1."""
    steps = np.diff(np.asarray(ts, dtype=float))
    if np.any(steps <= 0):
        return "a Frank-Wolfe step is not positive"
    if abs(steps.sum() - 1.0) > STEP_MASS_TOL:
        return f"Frank-Wolfe step mass {steps.sum()!r} differs from 1"
    return None


def dg_trace_problem(obj_lower, obj_upper, final, f_lower, f_upper) -> str | None:
    """Both DoubleGreedy traces start at the corner values, never decrease and
    end at the final value, which is at least max(f(lower), f(upper))."""
    scale = max(1.0, abs(f_lower), abs(f_upper), abs(final))
    tol = VALUE_REL * scale
    for label, objs, start in (("lower", obj_lower, f_lower), ("upper", obj_upper, f_upper)):
        objs = np.asarray(objs, dtype=float)
        if abs(objs[0] - start) > tol:
            return f"{label} trace starts at {objs[0]!r}, the corner value is {start!r}"
        if np.any(np.diff(objs) < -tol):
            return f"{label} trace decreases by {-np.diff(objs).max():.3e}"
        if abs(objs[-1] - final) > tol:
            return f"{label} trace ends at {objs[-1]!r}, the final value is {final!r}"
    if final < max(f_lower, f_upper) - tol:
        return f"final value {final!r} below max(f(lower), f(upper))"
    return None


def grid_max_quadratic(H, h, c, upper, points, A=None, b=None) -> float:
    """Best value of 0.5 x'Hx + h'x + c over the uniform grid on [0, upper],
    keeping the points with A x <= b + 1e-12 when rows are given."""
    mesh = np.meshgrid(*(np.linspace(0.0, u, points) for u in upper), indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    if A is not None and len(b):
        X = X[np.all(X @ np.asarray(A).T <= b + 1e-12, axis=1)]
    vals = 0.5 * np.sum((X @ H) * X, axis=1) + X @ h + c
    return float(vals.max())


def quadratic_verdicts(H) -> dict[str, bool]:
    """What the algebra of H says: submodular iff every off-diagonal entry is
    <= 0, coordinate-wise concave iff every diagonal entry is <= 0."""
    off = H[~np.eye(H.shape[0], dtype=bool)]
    return {"submodular": bool(np.all(off <= 0)),
            "coordconcave": bool(np.all(np.diag(H) <= 0))}


def fw_bound_problem(final, f_star, L, K) -> str | None:
    """(1 - 1/e) f* - L/(2K), the guarantee for f(0) = 0."""
    bound = (1.0 - 1.0 / math.e) * f_star - L / (2.0 * K) - 1e-6
    if final < bound:
        return f"Frank-Wolfe value {final!r} below its guarantee {bound!r}"
    return None


def dg_bound_problem(final, f_star) -> str | None:
    if final < f_star / 3.0 - 1e-9 * max(1.0, abs(f_star)):
        return f"DoubleGreedy value {final!r} below f*/3 = {f_star / 3.0!r}"
    return None
