import numpy as np
import pytest

from subcont import (BoxDomain, QuadraticInstance, RevenueInstance,
                     SensorInstance, SummarizationInstance, check_coordinatewise_concave,
                     check_dr, check_gradient, check_monotone, check_submodular,
                     gen_bipartite_influence, gen_facility, gen_monotone_nqp,
                     gen_nonmonotone_nqp, gen_revenue, gen_sensor, gen_summarization,
                     named_instance)
from subcont.solvers import REVENUE_MODE, DGConfig, double_greedy
from subcont.zoo import BipartiteInfluenceInstance, FacilityInstance


# ---------------------------------------------------------------- quadratic

def test_quadratic_examples():
    inst = QuadraticInstance([[0, -1], [-1, 0]], [1, 1], 0.0)
    assert inst.value([1, 1]) == pytest.approx(1.0)
    assert np.allclose(inst.gradient([1, 1]), [0, 0])

    assert inst.value([0, 0]) == 0.0
    assert np.array_equal(inst.gradient([0, 0]), [1, 1])

    diag = QuadraticInstance([[-2, 0], [0, -2]], [0, 0], 0.0)
    assert diag.value([1, 1]) == pytest.approx(-2.0)
    assert np.allclose(diag.gradient([1, 1]), [-2, -2])


def test_quadratic_submodular_flag_tracks_offdiagonal_sign():
    assert QuadraticInstance([[1.0, -0.5], [-0.5, -3.0]], [0, 0]).is_submodular
    assert not QuadraticInstance([[1.0, 0.5], [0.5, -3.0]], [0, 0]).is_submodular
    assert QuadraticInstance([[-1.0, -0.5], [-0.5, -3.0]], [0, 0]).is_dr


def test_gen_monotone_nqp_structure():
    inst, P = gen_monotone_nqp(2, 1, seed=7)
    H = inst.H
    assert np.all(H[~np.eye(2, dtype=bool)] <= 0)
    # gradient at the origin equals h = -H' upper >= 0
    assert np.allclose(inst.gradient(np.zeros(2)), inst.h)
    assert np.all(inst.h >= 0)
    assert inst.c == 0.0
    assert np.array_equal(P.b, np.ones(1)) and np.array_equal(P.upper, np.ones(2))


def test_gen_monotone_nqp_bit_identical():
    a, Pa = gen_monotone_nqp(100, 50, seed=1)
    b, Pb = gen_monotone_nqp(100, 50, seed=1)
    assert np.array_equal(a.H, b.H) and np.array_equal(a.h, b.h)
    assert np.array_equal(Pa.A, Pb.A)


def test_gen_monotone_nqp_gradient_nonnegative_on_box():
    inst, P = gen_monotone_nqp(6, 3, seed=3)
    rng = np.random.default_rng(0)
    scale = np.abs(inst.h).max()
    for _ in range(200):
        x = rng.uniform(0, 1, size=6)
        assert np.all(inst.gradient(x) >= -1e-9 * scale)
    assert check_monotone(inst.handle(P.box()), P.box(), 200, seed=1).ok


def test_gen_nonmonotone_nqp_structure():
    inst, box = gen_nonmonotone_nqp(4, seed=3)
    assert np.all(inst.H[~np.eye(4, dtype=bool)] <= 0)
    f0 = inst.value(np.zeros(4))
    fu = inst.value(box.upper)
    assert f0 + fu >= -1e-12
    eig = np.linalg.eigvalsh(inst.H)
    assert 0.4 <= np.mean(eig > 0) <= 0.6
    assert check_submodular(inst.handle(box), box, 200, seed=5).ok


def test_gen_nonmonotone_nqp_small_n_fallback_band():
    inst, _ = gen_nonmonotone_nqp(3, seed=0)
    assert int(np.sum(np.linalg.eigvalsh(inst.H) > 0)) in (1, 2)
    gen_nonmonotone_nqp(1, seed=0)  # must not loop forever


def test_gen_nonmonotone_nqp_sparsity():
    dense, _ = gen_nonmonotone_nqp(12, seed=4, density=1.0)
    sparse, _ = gen_nonmonotone_nqp(12, seed=4, density=0.3)
    off = ~np.eye(12, dtype=bool)
    assert np.count_nonzero(sparse.H[off]) < np.count_nonzero(dense.H[off])
    assert np.all(sparse.H[off] <= 0)
    assert np.array_equal(sparse.H, sparse.H.T)


def test_gen_nonmonotone_nqp_deterministic_and_scales():
    a, _ = gen_nonmonotone_nqp(5, seed=9)
    b, _ = gen_nonmonotone_nqp(5, seed=9)
    assert np.array_equal(a.H, b.H) and np.array_equal(a.h, b.h) and a.c == b.c
    c, box = gen_nonmonotone_nqp(5, seed=9, u_scale=2.0)
    assert np.array_equal(c.H, a.H)           # H independent of the box scale
    assert np.array_equal(box.upper, np.full(5, 2.0))


# ---------------------------------------------------------------- influence

def test_influence_examples():
    one = BipartiteInfluenceInstance(1, 1, {(0, 0): 0.5})
    assert one.value([1.0]) == pytest.approx(0.5)
    assert one.value([0.0]) == 0.0

    two = BipartiteInfluenceInstance(2, 1, {(0, 0): 0.5, (1, 0): 0.5})
    assert two.value([1.0, 1.0]) == pytest.approx(0.75)


def test_influence_validation():
    with pytest.raises(ValueError):
        BipartiteInfluenceInstance(1, 1, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        BipartiteInfluenceInstance(1, 1, {})
    inst = BipartiteInfluenceInstance(1, 1, {(0, 0): 0.5})
    with pytest.raises(ValueError):
        inst.value([-0.1])


# ------------------------------------------------------------------ revenue

def _two_node_revenue(**kw):
    return RevenueInstance(np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 1.0], **kw)


def test_revenue_examples():
    inst = _two_node_revenue()
    assert inst.value([0.0, 0.0]) == 0.0
    assert inst.value([0.0, 1.0]) == pytest.approx(1.0)   # sqrt(1) + 1 - 1
    assert inst.value([1.0, 1.0]) == pytest.approx(0.0)   # 0 + 2 - 2


def test_revenue_rejects_out_of_box():
    inst = _two_node_revenue()
    with pytest.raises(ValueError):
        inst.value([0.0, 1.5])


def test_revenue_balance_assertion():
    # f(0) + f(upper) = -2 < 0: the instance is built, DoubleGreedy refuses it
    inst = _two_node_revenue(gamma=2.0)
    assert inst.value([0.0, 0.5]) == pytest.approx(np.sqrt(0.5) + 0.5 - 1.0)
    with pytest.raises(ValueError, match="must be nonnegative"):
        double_greedy(inst.handle(), inst.box(), DGConfig(mode=REVENUE_MODE))


def test_revenue_submodular_with_mixed_supports():
    # the lattice inequality, sampled with coordinates zeroed at random so the
    # support-dependent term is actually exercised
    inst = gen_revenue(6, 12, seed=2, alpha=2.0, beta=1.0, gamma=1.0)
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = rng.uniform(0, 1, size=6) * (rng.random(6) > 0.3)
        y = rng.uniform(0, 1, size=6) * (rng.random(6) > 0.3)
        lhs = inst.value(x) + inst.value(y)
        rhs = inst.value(np.maximum(x, y)) + inst.value(np.minimum(x, y))
        assert lhs >= rhs - 1e-9


def test_revenue_single_coordinate_concave_away_from_zero():
    inst = gen_revenue(5, 10, seed=4, alpha=3.0)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.uniform(0, 1, size=5)
        j = rng.integers(5)
        z1, z2 = rng.uniform(1e-6, 1.0, size=2)

        def g(z):
            xz = x.copy()
            xz[j] = z
            return inst.value(xz)

        assert g((z1 + z2) / 2) >= (g(z1) + g(z2)) / 2 - 1e-9


def test_gen_revenue_balances_gamma():
    inst = gen_revenue(8, 16, seed=0, gamma=10.0)
    n = inst.dimension
    assert inst.value(np.zeros(n)) + inst.value(inst.upper) >= -1e-9
    assert inst.meta["gamma_halvings"] >= 1


# ------------------------------------------------------------------- sensor

def test_sensor_examples():
    inst = SensorInstance(times=[[1.0]], p=0.5, t_inf=2.0)
    assert inst.value([0.0]) == 0.0
    assert inst.value([1.0]) == pytest.approx(0.5)


def test_sensor_monotone_sampled():
    inst = gen_sensor(4, 3, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.uniform(0, 2, size=4)
        j = rng.integers(4)
        bigger = x.copy()
        bigger[j] += rng.uniform(0, 1)
        assert inst.value(bigger) >= inst.value(x) - 1e-12


def test_sensor_tinf_validation():
    with pytest.raises(ValueError):
        SensorInstance(times=[[3.0]], p=0.5, t_inf=2.0)
    with pytest.raises(ValueError):
        SensorInstance(times=[[1.0]], p=1.5)


# ------------------------------------------------------------ summarization

def test_summarization_examples():
    inst = SummarizationInstance(np.eye(2))
    assert inst.value([1.0, 0.0]) == pytest.approx(0.0)
    assert inst.value([0.0, 0.0]) == 0.0
    assert inst.value([0.25, 0.0]) == pytest.approx(0.4375)


# ----------------------------------------------------------------- facility

def test_facility_examples():
    inst = FacilityInstance([[1.0]])
    assert inst.value([0.0]) == 0.0
    assert inst.value([np.log(2.0)]) == pytest.approx(0.5)

    two = FacilityInstance([[1.0], [2.0]])
    assert two.value([10.0, 10.0]) == pytest.approx(2.0 * (1 - np.exp(-10.0)))


@pytest.mark.parametrize("k", [1, 2, 7, 16384])
@pytest.mark.parametrize("n_fac, n_cust", [(1, 1), (4, 8), (4, 9), (20, 40), (3, 130)])
def test_facility_value_batch_equals_the_broadcast_formula(n_fac, n_cust, k):
    # row lengths under 8, from 8 to 128 and over 128 customers take
    # different branches of numpy's pairwise row sum
    rng = np.random.default_rng(12)
    W = rng.uniform(0, 1, size=(n_fac, n_cust))
    if n_fac > 1:
        W[1] = W[0]               # two facilities with the same weights
        W[-1, :4] = W[0, :4]      # and tied weights on some customers
    inst = FacilityInstance(W)
    X = rng.uniform(0, 3, size=(k, n_fac)) * (rng.random((k, n_fac)) > 0.25)
    X[::3] = 0.0                  # zero rows
    if n_fac > 1:
        X[1::5, 1] = X[1::5, 0]
    got = inst.value_batch(X)
    # the broadcast formula, a block of rows at a time to bound its memory
    broadcast = np.concatenate([
        np.max(-np.expm1(-X[i:i + 1024])[:, :, None] * W[None, :, :], axis=1).sum(axis=1)
        for i in range(0, k, 1024)])
    assert np.array_equal(got, broadcast)
    assert all(inst.value(X[i]) == got[i] for i in range(0, k, max(1, k // 97)))


def test_revenue_tolerated_negative_band_counts_as_zero():
    inst = RevenueInstance([[0, 1], [1, 0]], [1, 1])
    v = inst.value([-1e-10, 0])
    assert np.isfinite(v) and v == inst.value([0, 0])


def test_nonnegativity_preconditions():
    neg = np.array([-0.1, 0.5])
    rows = np.array([[0.2, 0.5], neg])
    for inst in (gen_bipartite_influence(2, 3, 4, seed=0), gen_facility(2, 3, seed=0),
                 gen_summarization(2, seed=0), gen_sensor(2, 2, seed=0)):
        with pytest.raises(ValueError):
            inst.value(neg)
        with pytest.raises(ValueError):
            inst.value_batch(rows)
    with pytest.raises(ValueError):
        gen_sensor(2, 2, seed=0).gradient(neg)
    revenue = gen_revenue(2, 1, seed=0)
    for bad in ([0.5, -0.1], [0.5, 1.1]):
        with pytest.raises(ValueError):
            revenue.value_batch(np.array([[0.2, 0.5], bad]))


# --------------------------------------------------- cross-family contracts

# Reference formulas, one point at a time, written independently of zoo.py.

def _ref_quadratic(inst, x):
    return 0.5 * x @ inst.H @ x + inst.h @ x + inst.c


def _ref_influence(inst, x):
    survive = np.ones(inst.n_customers)
    for (s, t), p in inst.probs.items():
        survive[t] *= (1.0 - p) ** x[s]
    return float(np.sum(1.0 - survive))


def _ref_revenue(inst, x):
    nz = x != 0
    inflow = inst.weights[:, nz] @ x[nz] if nz.any() else np.zeros(inst.dimension)
    val = inst.alpha * np.sqrt(inflow[~nz]).sum()
    val += inst.beta * float(inst.self_activation[nz] @ x[nz])
    val -= inst.gamma * float(x[nz].sum())
    return float(val)


def _ref_sensor(inst, x):
    q = 1.0 - (1.0 - inst.p) ** x
    total = 0.0
    for v in range(inst.n_events):
        order = np.argsort(inst.times[:, v], kind="stable")
        saved = inst.t_inf - inst.times[order, v]
        qs = q[order]
        prefix = np.concatenate(([1.0], np.cumprod(1.0 - qs)[:-1]))
        total += float((saved * qs * prefix).sum())
    return total / inst.n_events


def _ref_summarization(inst, x):
    S = inst.similarity
    n = S.shape[0]
    return sum(np.sqrt(x[j]) * S[i, j] - x[i] * x[j] * S[i, j]
               for i in range(n) for j in range(n))


def _ref_facility(inst, x):
    W = inst.weights
    return sum(max(W[s, t] * (1.0 - np.exp(-x[s])) for s in range(W.shape[0]))
               for t in range(W.shape[1]))


def _tied_sensor():
    # integer detection times in {0, 1, 2}: many ties, broken by location index
    rng = np.random.default_rng(8)
    return SensorInstance(times=rng.integers(0, 3, size=(5, 4)).astype(float), p=0.3,
                          t_inf=3.0)


BATCH_FAMILIES = {
    "quadratic": (lambda: gen_nonmonotone_nqp(5, seed=3)[0], _ref_quadratic),
    "influence": (lambda: gen_bipartite_influence(5, 7, 15, seed=3), _ref_influence),
    "revenue": (lambda: gen_revenue(5, 8, seed=3, alpha=2.0), _ref_revenue),
    "sensor": (_tied_sensor, _ref_sensor),
    "summarization": (lambda: gen_summarization(5, seed=3), _ref_summarization),
    "facility": (lambda: gen_facility(5, 6, seed=3), _ref_facility),
}


@pytest.mark.parametrize("family", sorted(BATCH_FAMILIES))
def test_value_batch_matches_reference_formula(family):
    make, reference = BATCH_FAMILIES[family]
    inst = make()
    rng = np.random.default_rng(4)
    # about 30% zeroed coordinates, so the revenue masks see mixed supports
    X = rng.uniform(0, 1, size=(60, 5)) * (rng.random((60, 5)) > 0.3)
    X[0] = 0.0
    X[1] = 1.0
    want = np.array([reference(inst, x) for x in X])
    got = inst.value_batch(X)
    assert got.shape == (60,)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    assert [inst.value(x) for x in X[:5]] == [float(inst.value_batch(x[None, :])[0])
                                             for x in X[:5]]
    assert inst.handle().value_batch == inst.value_batch


SMOOTH_FAMILIES = {
    "quadratic": lambda: gen_nonmonotone_nqp(4, seed=11)[0].handle(
        BoxDomain(np.zeros(4), np.ones(4))),
    "influence": lambda: gen_bipartite_influence(4, 8, 16, seed=11).handle(),
    "sensor": lambda: gen_sensor(4, 3, seed=11).handle(),
    "summarization": lambda: gen_summarization(4, seed=11).handle(),
}


@pytest.mark.parametrize("family", sorted(SMOOTH_FAMILIES))
def test_declared_gradients_match_finite_differences(family):
    handle = SMOOTH_FAMILIES[family]()
    rng = np.random.default_rng(42)
    for _ in range(50):
        x = rng.uniform(0.05, 0.95, size=handle.dimension)
        assert check_gradient(handle, x, h=1e-5, rel_tol=1e-5).ok


@pytest.mark.parametrize("name", ["monotone_nqp", "nonmonotone_nqp", "influence",
                                  "revenue", "sensor", "summarization", "facility"])
def test_declared_flags_are_certified_by_the_property_suite(name):
    handle, box = named_instance(name, n=4, seed=0)
    if handle.submodular:
        assert check_submodular(handle, box, 200, seed=7).ok
    if handle.dr_submodular:
        assert check_dr(handle, box, 200, seed=7).ok
        assert check_coordinatewise_concave(handle, box, 200, seed=7).ok
    if handle.monotone:
        assert check_monotone(handle, box, 200, seed=7).ok


# (name, monotone, submodular, dr_submodular, differentiable) of each handle()
_DECLARED = {
    "influence": ("influence", True, True, True, True),
    "revenue": ("revenue", False, True, False, False),
    "sensor": ("sensor", True, True, True, True),
    "summarization": ("summarization", False, True, True, True),
    "facility": ("facility", True, True, False, False),
}


@pytest.mark.parametrize("family", sorted(_DECLARED))
def test_handle_declares_the_family_flags(family):
    h, _ = named_instance(family, n=3, seed=0)
    assert (h.name, h.monotone, h.submodular, h.dr_submodular,
            h.differentiable) == _DECLARED[family]
    assert h.dimension == 3 and (h.gradient is not None) == h.differentiable


def test_named_instance_unknown():
    with pytest.raises(ValueError):
        named_instance("nope")
