"""Reference helpers for the LP-oracle tests: brute-force vertex enumeration,
the constraints tight at a point, and the constraints a simplex basis holds
tight.

Constraint indices follow one convention throughout: 0..m-1 are the rows of
A, m..m+n-1 the lower bounds x_i >= 0, m+n..m+2n-1 the upper bounds
x_i <= upper_i.
"""
from itertools import combinations

import numpy as np


def constraint_normals(P):
    """The outward normals (up to sign) of all m + 2n constraints, as rows."""
    n = P.dimension
    return np.vstack([P.A, np.eye(n), np.eye(n)])


def active_constraints(P, x, tol=1e-9):
    """Indices of the constraints tight at x, to tol."""
    x = np.asarray(x, dtype=float)
    m, n = P.num_rows, P.dimension
    rows = np.flatnonzero(np.abs(P.A @ x - P.b) <= tol)
    lower = m + np.flatnonzero(np.abs(x) <= tol)
    upper = m + n + np.flatnonzero(np.abs(x - P.upper) <= tol)
    return np.concatenate([rows, lower, upper]).tolist()


def nonbasic_constraints(P, sol):
    """The constraints that the n nonbasic columns of ``sol.basis`` hold
    tight: a structural column x_j sits at its lower bound, or at its upper
    bound when complemented; a slack column n+i makes row i tight."""
    _, basic, flipped = sol.basis
    m, n = P.num_rows, P.dimension
    nonbasic = np.setdiff1d(np.arange(n + m), basic)
    return [m + n + j if flipped[j] else m + j if j < n else j - n for j in nonbasic]


def enumerate_vertices(P):
    """All vertices of P by brute-force enumeration of n-subsets of constraints.

    Test oracle for linear_maximize; guarded to n <= 10 and m <= 10.  A row
    counts as satisfied when its violation is at most 1e-9 times the row norm,
    so rows with tiny coefficients do not admit near-feasible non-vertices.
    """
    n, m = P.dimension, P.num_rows
    if n > 10 or m > 10:
        raise ValueError("enumerate_vertices guard: requires n <= 10 and m <= 10")
    row_tol = 1e-9 * np.linalg.norm(P.A, axis=1)
    normals = constraint_normals(P)
    offsets = np.concatenate([P.b, np.zeros(n), P.upper])
    vertices = []
    for combo in combinations(range(m + 2 * n), n):
        M = normals[list(combo)]
        r = offsets[list(combo)]
        try:
            v = np.linalg.solve(M, r)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(v)) or np.max(np.abs(M @ v - r)) > 1e-8:
            continue
        if np.any(v < -1e-9) or np.any(v > P.upper + 1e-9) or np.any(P.A @ v - P.b > row_tol):
            continue
        if not any(np.max(np.abs(v - w)) <= 1e-9 for w in vertices):
            vertices.append(v)
    return vertices
