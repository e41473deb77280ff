"""Shared domain types: feasible regions, objective handles, solver traces.

Everything here is a pure function of immutable inputs, so concurrent use
from multiple threads is safe.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

Array = np.ndarray


def as_point(x, dim: int | None = None) -> Array:
    """Coerce ``x`` to a finite 1-D float vector, optionally checking its length."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D point, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("point contains non-finite entries")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {p.shape[0]}")
    return p


def as_stack(x, dim: int) -> tuple[Array, bool]:
    """Coerce one point or a (k, dim) stack of points to a finite (k, dim)
    float array, and say whether it was one point (checked by ``as_point``;
    the stack is then its one row)."""
    X = np.asarray(x, dtype=float)
    if X.ndim < 2:
        return as_point(X, dim)[None, :], True
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"expected a point or a (k, {dim}) stack, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("point contains non-finite entries")
    return X, False


def check_positive_int(what: str, value) -> None:
    """Raise a ValueError naming ``what`` unless value is an int >= 1; a bool
    is not an int here."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{what} must be a positive int, got {value!r}")


@dataclass
class BoxDomain:
    """Axis-aligned box ``[lower, upper]`` with finite bounds."""

    lower: Array
    upper: Array

    def __post_init__(self):
        self.lower = as_point(self.lower)
        self.upper = as_point(self.upper, self.lower.shape[0])
        if np.any(self.lower > self.upper):
            raise ValueError("box lower bound exceeds upper bound")

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    num_rows = 0   # a box is a polytope without rows

    def sample(self, rng: np.random.Generator, size: int | None = None) -> Array:
        """Uniform draws from the box; shape (n,) or (size, n)."""
        shape = self.dimension if size is None else (size, self.dimension)
        return rng.uniform(self.lower, self.upper, size=shape)


@dataclass
class PolytopeDomain:
    """Down-closed polytope ``{x : 0 <= x <= upper, A x <= b}``.

    A, b and upper must be nonnegative, which makes the origin feasible and
    the set closed under coordinate-wise decrease.
    """

    A: Array
    b: Array
    upper: Array

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.upper = as_point(self.upper)
        n = self.upper.shape[0]
        if self.A.size == 0:
            self.A = self.A.reshape(0, n)
        if self.A.shape[1] != n:
            raise ValueError(f"A has {self.A.shape[1]} columns, expected {n}")
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError("A and b row counts differ")
        for name, arr in (("A", self.A), ("b", self.b), ("upper", self.upper)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            if np.any(arr < 0):
                raise ValueError(f"{name} must be nonnegative for a down-closed polytope")

    @property
    def dimension(self) -> int:
        return self.upper.shape[0]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def lower(self) -> Array:   # the origin, read like a box's lower corner
        return np.zeros(self.dimension)

    def box(self) -> BoxDomain:
        return BoxDomain(self.lower, self.upper.copy())


@dataclass
class ObjectiveHandle:
    """Uniform evaluation contract for an objective.

    ``value`` maps a point to a float and must be deterministic.
    ``value_batch`` is required: it maps a (k, n) array of row points to their
    k values, and must agree with ``value`` on every row.  The :mod:`subcont.zoo`
    families write their formula once, as ``value_batch``, and ``value`` is its
    one-row case.  ``differentiable`` is read off ``gradient``, not declared.
    The structural flags are declared by constructors; the sampled
    certificates in :mod:`subcont.properties` are the way to actually verify
    them.
    """

    dimension: int
    value: Callable[[Array], float]
    value_batch: Callable[[Array], Array]
    gradient: Callable[[Array], Array] | None = None
    monotone: bool = False
    dr_submodular: bool = False
    submodular: bool = False
    name: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.dr_submodular and not self.submodular:
            raise ValueError("dr_submodular implies submodular")

    @property
    def differentiable(self) -> bool:
        return self.gradient is not None


def eval_batch(f: ObjectiveHandle, X: Array) -> Array:
    """Values of ``f`` on the rows of X: one ``value_batch`` call, checked to
    return a 1-D array of one value per row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    values = np.asarray(f.value_batch(X), dtype=float)
    if values.shape != X.shape[:1]:
        raise ValueError(f"value_batch of {f.name!r} gave shape {values.shape} for {len(X)} rows")
    return values


class TraceRecord(NamedTuple):
    iteration: int
    t: float
    objective: float
    feasibility_residual: float


@dataclass
class SolverTrace:
    """Per-iteration solver log.

    Iteration indices are strictly increasing, the cumulative step t is
    non-decreasing and stays in [0, 1], residuals are nonnegative.
    """

    records: list[TraceRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, iteration: int, t: float, objective: float,
               feasibility_residual: float) -> None:
        if self.records:
            last = self.records[-1]
            if iteration <= last.iteration:
                raise ValueError("iteration indices must be strictly increasing")
            if t < last.t - 1e-12:
                raise ValueError("cumulative step must be non-decreasing")
        if t < -1e-12 or t > 1.0 + 1e-9:
            raise ValueError(f"cumulative step {t} outside [0, 1]")
        if feasibility_residual < 0:
            raise ValueError("feasibility residual must be nonnegative")
        self.records.append(TraceRecord(int(iteration), float(t), float(objective),
                                        float(feasibility_residual)))

    def objectives(self) -> Array:
        return np.array([r.objective for r in self.records])

    @property
    def final_objective(self) -> float:
        if not self.records:
            raise ValueError("empty trace")
        return self.records[-1].objective

    def __len__(self) -> int:
        return len(self.records)


def finite_diff_gradient(f, x, h: float = 1e-5) -> Array:
    """Central-difference gradient estimate, second-order accurate in h.

    ``f`` may be an ObjectiveHandle or a plain callable.  The point must be
    interior to the evaluation domain by a margin of h in every coordinate.
    """
    value = f.value if isinstance(f, ObjectiveHandle) else f
    x = as_point(x)
    if h <= 0:
        raise ValueError("step h must be positive")
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        step = np.zeros_like(x)
        step[i] = h
        hi = value(x + step)
        lo = value(x - step)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"non-finite evaluation while differencing coordinate {i}")
        g[i] = (hi - lo) / (2.0 * h)
    return g
