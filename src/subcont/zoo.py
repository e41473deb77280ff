"""Objective families with submodular structure, plus seeded random generators.

Each family writes its objective once, as ``value_batch(X)`` over the rows of
a (k, n) array, domain check included; the shared ``value(x)`` is its one-row
case.  Instances are immutable after construction and also expose
``gradient`` where the function is smooth, together with a ``handle()``
giving the uniform :class:`~subcont.core.ObjectiveHandle` contract.
Structural flags (monotone / submodular / diminishing-returns) are declared
here from the algebra of each family; the sampled certificates in
:mod:`subcont.properties` are what tests actually trust.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Array, BoxDomain, ObjectiveHandle, PolytopeDomain, as_point


def _offdiag(H: Array) -> Array:
    return H[~np.eye(H.shape[0], dtype=bool)]


class _Family:
    """Evaluation shared by every family: ``value`` is the one-row case of the
    family's ``value_batch``.  A family whose domain is the nonnegative
    orthant sets ``_negative`` to the message a negative coordinate raises."""

    _negative: str | None = None

    def value(self, x) -> float:
        return float(self.value_batch(as_point(x, self.dimension)[None, :])[0])

    def _rows(self, X) -> Array:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ValueError(f"expected rows of dimension {self.dimension}, got shape {X.shape}")
        if self._negative is not None and (X < 0).any():
            raise ValueError(self._negative)
        return X

    def _point(self, x) -> Array:
        return self._rows(as_point(x, self.dimension))[0]


@dataclass
class QuadraticInstance(_Family):
    """f(x) = 0.5 x'Hx + h'x + c with symmetric H.

    Submodular iff every off-diagonal entry of H is <= 0; additionally
    coordinate-wise concave (hence with full diminishing returns) iff every
    entry of H is <= 0.
    """

    H: Array
    h: Array
    c: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.h = as_point(self.h)
        n = self.h.shape[0]
        if self.H.shape != (n, n):
            raise ValueError("H must be square and match h")
        if not np.allclose(self.H, self.H.T, atol=1e-12, rtol=0):
            raise ValueError("H must be symmetric")
        self.c = float(self.c)

    @property
    def dimension(self) -> int:
        return self.h.shape[0]

    @property
    def is_submodular(self) -> bool:
        return bool(np.all(_offdiag(self.H) <= 0)) if self.dimension > 1 else True

    @property
    def is_dr(self) -> bool:
        return bool(np.all(self.H <= 0))

    def gradient(self, x) -> Array:
        x = as_point(x, self.dimension)
        return self.H @ x + self.h

    def value_batch(self, X: Array) -> Array:
        X = self._rows(X)
        return 0.5 * np.einsum("ij,ij->i", X @ self.H, X) + X @ self.h + self.c

    def monotone_on(self, box: BoxDomain) -> bool:
        """True iff the gradient is nonnegative everywhere on the box (up to
        rounding relative to the coefficient scale)."""
        lo, hi = box.lower, box.upper
        worst = self.h + np.minimum(self.H, 0) @ hi + np.maximum(self.H, 0) @ lo
        scale = np.abs(self.h) + np.abs(self.H) @ np.maximum(np.abs(lo), np.abs(hi))
        return bool(np.all(worst >= -1e-9 * (1.0 + scale)))

    def handle(self, box: BoxDomain | None = None) -> ObjectiveHandle:
        return ObjectiveHandle(
            dimension=self.dimension,
            value=self.value,
            gradient=self.gradient,
            value_batch=self.value_batch,
            monotone=self.monotone_on(box) if box is not None else False,
            submodular=self.is_submodular,
            dr_submodular=self.is_submodular and self.is_dr,
            differentiable=True,
            name="quadratic",
        )


def gen_monotone_nqp(n: int, m: int, seed: int) -> tuple[QuadraticInstance, PolytopeDomain]:
    """Random monotone quadratic with diminishing returns, on a random polytope.

    H is i.i.d. uniform on [-100, 0] then symmetrized, A uniform on [0, 1],
    b = 1, upper = 1, and h = -H'upper, which pins the gradient at upper to 0
    so the gradient is nonnegative on the whole box.  Bit-identical output for
    identical (n, m, seed).
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    rng = np.random.default_rng(seed)
    M = rng.uniform(-100.0, 0.0, size=(n, n))
    H = (M + M.T) / 2.0
    A = rng.uniform(0.0, 1.0, size=(m, n))
    upper = np.ones(n)
    h = -H.T @ upper
    inst = QuadraticInstance(H=H, h=h, c=0.0, meta={"generator": "monotone_nqp", "seed": seed})
    P = PolytopeDomain(A=A, b=np.ones(m), upper=upper)
    return inst, P


def gen_nonmonotone_nqp(n: int, seed: int, density: float = 1.0,
                        u_scale: float = 1.0) -> tuple[QuadraticInstance, BoxDomain]:
    """Random non-monotone submodular quadratic on the box [0, u_scale].

    Off-diagonal entries are i.i.d. uniform on [-10, 0] (kept with probability
    ``density``); the diagonal is redrawn uniform on [-10, 10] until 40-60% of
    the eigenvalues are positive, falling back to the nearest achievable split
    around half when that band contains no multiple of 1/n (n <= 3).
    h = -0.2 H'upper makes the function non-monotone, and c shifts it so
    f(0) + f(upper) >= 0.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    M = rng.uniform(-10.0, 0.0, size=(n, n))
    off = (M + M.T) / 2.0
    if density < 1.0:
        keep = rng.random(size=(n, n)) < density
        keep = np.triu(keep, 1)
        keep = keep | keep.T
        off = off * keep
    np.fill_diagonal(off, 0.0)
    lo_k = int(np.ceil(0.4 * n))
    hi_k = int(np.floor(0.6 * n))
    if lo_k > hi_k:
        lo_k, hi_k = n // 2, (n + 1) // 2
    for attempt in range(1000):
        drng = np.random.default_rng([seed, 7919, attempt])
        diag = drng.uniform(-10.0, 10.0, size=n)
        H = off + np.diag(diag)
        positive = int(np.sum(np.linalg.eigvalsh(H) > 0))
        if lo_k <= positive <= hi_k:
            break
    else:
        raise RuntimeError("could not reach the target eigenvalue sign mix")
    upper = np.full(n, float(u_scale))
    h = -0.2 * (H.T @ upper)
    q = 0.5 * upper @ (H @ upper) + h @ upper
    c = max(0.0, -q / 2.0)
    inst = QuadraticInstance(H=H, h=h, c=c,
                             meta={"generator": "nonmonotone_nqp", "seed": seed})
    return inst, BoxDomain(np.zeros(n), upper)


@dataclass
class BipartiteInfluenceInstance(_Family):
    """Budget allocation on a bipartite channel/customer graph.

    An assignment x over channels reaches customer t with probability
    1 - prod_{(s,t)} (1 - p_st)^{x_s}; the value is the expected number of
    customers reached.  Monotone with diminishing returns and smooth.
    """

    n_channels: int
    n_customers: int
    probs: dict[tuple[int, int], float]
    meta: dict = field(default_factory=dict)

    _negative = "assignments must be nonnegative"

    def __post_init__(self):
        if not self.probs:
            raise ValueError("instance needs at least one edge")
        # log survival factors; (1-p)^x is computed as exp(x log(1-p))
        L = np.zeros((self.n_channels, self.n_customers))
        for (s, t), p in self.probs.items():
            if not (0.0 < p < 1.0):
                raise ValueError(f"edge ({s}, {t}) probability {p} outside (0, 1)")
            if not (0 <= s < self.n_channels and 0 <= t < self.n_customers):
                raise ValueError(f"edge ({s}, {t}) outside the index ranges")
            L[s, t] = np.log1p(-p)
        self._L = L

    @property
    def dimension(self) -> int:
        return self.n_channels

    def gradient(self, x) -> Array:
        x = self._point(x)
        survival = np.exp(x @ self._L)
        return -self._L @ survival

    def value_batch(self, X: Array) -> Array:
        X = self._rows(X)
        survival = X @ self._L
        return self.n_customers - np.exp(survival, out=survival).sum(axis=1)

    def handle(self) -> ObjectiveHandle:
        return ObjectiveHandle(
            dimension=self.n_channels, value=self.value, gradient=self.gradient,
            value_batch=self.value_batch, monotone=True, submodular=True,
            dr_submodular=True, differentiable=True, name="influence")


def gen_bipartite_influence(n_channels: int, n_customers: int, n_edges: int,
                            seed: int) -> BipartiteInfluenceInstance:
    """Random bipartite influence instance, edge probabilities uniform on [0.02, 0.3]."""
    rng = np.random.default_rng(seed)
    all_pairs = n_channels * n_customers
    n_edges = min(n_edges, all_pairs)
    chosen = rng.choice(all_pairs, size=n_edges, replace=False)
    probs = {}
    for flat in np.sort(chosen):
        s, t = divmod(int(flat), n_customers)
        probs[(s, t)] = float(rng.uniform(0.02, 0.3))
    return BipartiteInfluenceInstance(n_channels, n_customers, probs,
                                      meta={"generator": "bipartite_influence", "seed": seed})


@dataclass
class RevenueInstance(_Family):
    """Revenue from free-product assignments on a weighted social graph.

    Users with zero assignment contribute alpha * sqrt(sum of incoming
    weighted assignments); users with a positive assignment contribute their
    self-activation revenue beta * w_tt x_t minus the giveaway loss
    gamma * x_t.  Discontinuous where a coordinate crosses zero, so no
    gradient is exposed.
    """

    weights: Array               # symmetric, zero diagonal, >= 0
    self_activation: Array      # w_tt >= 0
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    upper: Array | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.self_activation = as_point(self.self_activation)
        n = self.self_activation.shape[0]
        if self.weights.shape != (n, n):
            raise ValueError("weights must be square and match self_activation")
        if not np.allclose(self.weights, self.weights.T, atol=1e-12, rtol=0):
            raise ValueError("weights must be symmetric")
        if np.any(self.weights < 0) or np.any(self.self_activation < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.diag(self.weights) != 0):
            raise ValueError("edge weights must have a zero diagonal; "
                             "self-activation rates are separate")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("alpha, beta, gamma must be nonnegative")
        self.upper = np.ones(n) if self.upper is None else as_point(self.upper, n)
        if np.any(self.upper < 0):
            raise ValueError("upper bound must be nonnegative")

    @property
    def dimension(self) -> int:
        return self.self_activation.shape[0]

    def box(self) -> BoxDomain:
        return BoxDomain(np.zeros(self.dimension), self.upper.copy())

    def value_batch(self, X: Array) -> Array:
        X = self._rows(X)
        low = X.min(initial=0.0)
        if low < -1e-9 or (X > self.upper + 1e-9).any():
            raise ValueError("point outside the assignment box")
        if low < 0:   # the tolerated band [-1e-9, 0) counts as unassigned
            X = np.maximum(X, 0.0)
        # W is symmetric and a zero coordinate adds nothing to a product, so
        # (X @ W)[:, t] is the inflow of user t and the linear part needs no
        # mask; only the sqrt term is restricted to the unassigned users.
        inflow = np.where(X == 0, X @ self.weights, 0.0)
        return (self.alpha * np.sqrt(inflow).sum(axis=1)
                + self.beta * (X @ self.self_activation) - self.gamma * X.sum(axis=1))

    def handle(self) -> ObjectiveHandle:
        return ObjectiveHandle(
            dimension=self.dimension, value=self.value, value_batch=self.value_batch,
            monotone=False, submodular=True, dr_submodular=False,
            differentiable=False, name="revenue")


def balanced_revenue(weights: Array, self_activation: Array, upper: Array,
                     alpha: float, beta: float, gamma: float, meta: dict) -> RevenueInstance:
    """RevenueInstance with gamma halved (the count lands in
    ``meta["gamma_halvings"]``) until beta <sa, upper> - gamma sum(upper), a
    lower bound on f(0) + f(upper), is nonnegative, as double greedy requires."""
    g = float(gamma)
    halvings = 0
    while beta * (self_activation @ upper) - g * upper.sum() < -1e-9:
        g /= 2.0
        halvings += 1
        if halvings > 200:
            raise ValueError("cannot balance the revenue objective")
    return RevenueInstance(weights, self_activation, alpha=alpha, beta=beta, gamma=g,
                           upper=upper, meta={**meta, "gamma_halvings": halvings})


def gen_revenue(n_nodes: int, n_edges: int, seed: int, alpha: float = 1.0,
                beta: float = 1.0, gamma: float = 1.0,
                u_scale: float = 1.0) -> RevenueInstance:
    """Random revenue instance; edge and self-activation weights are U(0, 1),
    balanced by :func:`balanced_revenue`."""
    rng = np.random.default_rng(seed)
    W = np.zeros((n_nodes, n_nodes))
    pairs = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    if pairs:
        take = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
        for idx in np.sort(take):
            i, j = pairs[int(idx)]
            W[i, j] = W[j, i] = rng.uniform(0.0, 1.0)
    sa = rng.uniform(0.0, 1.0, size=n_nodes)
    return balanced_revenue(W, sa, np.full(n_nodes, float(u_scale)), alpha, beta, gamma,
                            meta={"generator": "revenue", "seed": seed})


@dataclass
class SensorInstance(_Family):
    """Expected saved detection time for sensors with continuous energy levels.

    A sensor at location e with energy x_e detects an event independently with
    probability q_e = 1 - (1-p)^{x_e}; the earliest detector (by detection
    time, ties by index) saves t_inf - t(e, v).  The value averages the saved
    time over events.  Monotone with diminishing returns and smooth.
    """

    times: Array                 # (n_locations, n_events), >= 0
    p: float
    t_inf: float | None = None
    meta: dict = field(default_factory=dict)

    _negative = "energy levels must be nonnegative"

    def __post_init__(self):
        self.times = np.atleast_2d(np.asarray(self.times, dtype=float))
        if np.any(self.times < 0) or not np.all(np.isfinite(self.times)):
            raise ValueError("detection times must be finite and nonnegative")
        if not (0.0 < self.p < 1.0):
            raise ValueError("unit detection probability must lie in (0, 1)")
        tmax = float(self.times.max())
        self.t_inf = tmax if self.t_inf is None else float(self.t_inf)
        if self.t_inf < tmax:
            raise ValueError("t_inf must dominate every detection time")
        self._logq = np.log1p(-self.p)
        # per event: stable ascending order of detection times, and the saved times in it
        self._orders = [np.argsort(self.times[:, v], kind="stable")
                        for v in range(self.times.shape[1])]
        self._saved = [self.t_inf - self.times[order, v]
                       for v, order in enumerate(self._orders)]

    @property
    def dimension(self) -> int:
        return self.times.shape[0]

    @property
    def n_events(self) -> int:
        return self.times.shape[1]

    def _detect_probs(self, x):
        return -np.expm1(x * self._logq)   # 1 - (1-p)^x

    def value_batch(self, X: Array) -> Array:
        Q = self._detect_probs(self._rows(X))
        total = np.zeros(Q.shape[0])
        for order, saved in zip(self._orders, self._saved):
            qs = Q[:, order]
            # probability that no earlier detector in this order fired
            prefix = np.ones_like(qs)
            np.cumprod(1.0 - qs[:, :-1], axis=1, out=prefix[:, 1:])
            total += (saved * qs * prefix).sum(axis=1)
        return total / self.n_events

    def gradient(self, x) -> Array:
        q = self._detect_probs(self._point(x))
        g = np.zeros(self.dimension)
        for order, saved in zip(self._orders, self._saved):
            qs = q[order]
            surv = 1.0 - qs                      # (1-p)^{x_e}
            prefix = np.concatenate(([1.0], np.cumprod(surv)[:-1]))
            terms = saved * qs * prefix
            # d q_e / d x_e = -log(1-p) (1-q_e); later terms lose the factor
            # (1-q_e) from their survival product, giving the +logq tail term.
            tail = np.concatenate((np.cumsum(terms[::-1])[::-1][1:], [0.0]))
            g[order] += (-self._logq) * surv * saved * prefix + self._logq * tail
        return g / self.n_events

    def handle(self) -> ObjectiveHandle:
        return ObjectiveHandle(
            dimension=self.dimension, value=self.value, gradient=self.gradient,
            value_batch=self.value_batch, monotone=True, submodular=True,
            dr_submodular=True, differentiable=True, name="sensor")


def gen_sensor(n_locations: int, n_events: int, seed: int) -> SensorInstance:
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, 10.0, size=(n_locations, n_events))
    return SensorInstance(times=times, p=0.5, t_inf=10.0,
                          meta={"generator": "sensor", "seed": seed})


@dataclass
class SummarizationInstance(_Family):
    """Scored data summarization balancing coverage against redundancy.

    value(x) = sum_ij sqrt(x_j) s_ij - sum_ij x_i x_j s_ij for a nonnegative
    symmetric similarity matrix s.  All second derivatives are nonpositive,
    so the function has full diminishing returns; it is not monotone.
    """

    similarity: Array
    meta: dict = field(default_factory=dict)

    _negative = "scores must be nonnegative"
    _phi0_slope = 1e4  # one-sided difference quotient of sqrt at 0, step 1e-8

    def __post_init__(self):
        self.similarity = np.atleast_2d(np.asarray(self.similarity, dtype=float))
        S = self.similarity
        if S.shape[0] != S.shape[1]:
            raise ValueError("similarity must be square")
        if not np.allclose(S, S.T, atol=1e-12, rtol=0):
            raise ValueError("similarity must be symmetric")
        if np.any(S < 0):
            raise ValueError("similarity must be nonnegative")
        self._rowsum = S.sum(axis=0)

    @property
    def dimension(self) -> int:
        return self.similarity.shape[0]

    def gradient(self, x) -> Array:
        x = self._point(x)
        dphi = np.where(x > 0, 0.5 / np.sqrt(np.where(x > 0, x, 1.0)), self._phi0_slope)
        return dphi * self._rowsum - 2.0 * (self.similarity @ x)

    def value_batch(self, X: Array) -> Array:
        X = self._rows(X)
        return np.sqrt(X) @ self._rowsum - np.einsum("ij,ij->i", X @ self.similarity, X)

    def handle(self) -> ObjectiveHandle:
        return ObjectiveHandle(
            dimension=self.dimension, value=self.value, gradient=self.gradient,
            value_batch=self.value_batch, monotone=False, submodular=True,
            dr_submodular=True, differentiable=True, name="summarization")


def gen_summarization(n: int, seed: int) -> SummarizationInstance:
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.0, 1.0, size=(n, n))
    return SummarizationInstance(similarity=(M + M.T) / 2.0,
                                 meta={"generator": "summarization", "seed": seed})


@dataclass
class FacilityInstance(_Family):
    """Continuous facility location: each customer takes the best facility.

    value(x) = sum_t max_s w_st (1 - exp(-x_s)).  The response curve is
    normalized (zero at zero), increasing and concave, which makes the value
    monotone submodular; the max makes it nonsmooth, so no gradient.
    """

    weights: Array   # (n_facilities, n_customers), >= 0
    meta: dict = field(default_factory=dict)

    _negative = "facility scales must be nonnegative"

    def __post_init__(self):
        self.weights = np.atleast_2d(np.asarray(self.weights, dtype=float))
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]

    def value_batch(self, X: Array) -> Array:
        X = self._rows(X)
        response = -np.expm1(-X)   # 1 - exp(-x)
        W = self.weights
        best = response[:, 0, None] * W[0]   # (k, n_customers): running max over facilities
        for s in range(1, W.shape[0]):
            np.maximum(best, response[:, s, None] * W[s], out=best)
        return best.sum(axis=1)

    def handle(self) -> ObjectiveHandle:
        return ObjectiveHandle(
            dimension=self.dimension, value=self.value, value_batch=self.value_batch,
            monotone=True, submodular=True, dr_submodular=False,
            differentiable=False, name="facility")


def gen_facility(n_facilities: int, n_customers: int, seed: int) -> FacilityInstance:
    rng = np.random.default_rng(seed)
    return FacilityInstance(weights=rng.uniform(0.0, 1.0, size=(n_facilities, n_customers)),
                            meta={"generator": "facility", "seed": seed})


def _bilinear_handle(n: int = 2) -> ObjectiveHandle:
    """f(x) = x_1 x_2: the canonical non-submodular toy (positive cross term)."""
    return ObjectiveHandle(
        dimension=2,
        value=lambda x: float(x[0] * x[1]),
        gradient=lambda x: np.array([x[1], x[0]]),
        value_batch=lambda X: X[:, 0] * X[:, 1],
        differentiable=True, name="bilinear")


def named_instance(name: str, n: int = 4, seed: int = 0) -> tuple[ObjectiveHandle, BoxDomain]:
    """Small instance of a named family plus its natural box, for the CLI."""
    if name == "monotone_nqp":
        inst, P = gen_monotone_nqp(n, max(1, n // 2), seed)
        return inst.handle(P.box()), P.box()
    if name == "nonmonotone_nqp":
        inst, box = gen_nonmonotone_nqp(n, seed)
        return inst.handle(box), box
    if name == "influence":
        inst = gen_bipartite_influence(n, 2 * n, 4 * n, seed)
        return inst.handle(), BoxDomain(np.zeros(n), np.ones(n))
    if name == "revenue":
        inst = gen_revenue(n, 3 * n, seed)
        return inst.handle(), inst.box()
    if name == "sensor":
        inst = gen_sensor(n, max(2, n // 2), seed)
        return inst.handle(), BoxDomain(np.zeros(n), np.ones(n))
    if name == "summarization":
        inst = gen_summarization(n, seed)
        return inst.handle(), BoxDomain(np.zeros(n), np.ones(n))
    if name == "facility":
        inst = gen_facility(n, 2 * n, seed)
        return inst.handle(), BoxDomain(np.zeros(n), np.ones(n))
    if name == "bilinear":
        return _bilinear_handle(), BoxDomain(np.zeros(2), np.ones(2))
    raise ValueError(f"unknown objective family {name!r}")
