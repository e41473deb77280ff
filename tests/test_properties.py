import numpy as np
import pytest

from subcont import (CHECKERS, BoxDomain, ObjectiveHandle, QuadraticInstance,
                     check_coordinatewise_concave, check_directional_concave,
                     check_dr, check_gradient, check_hessian_offdiag,
                     check_monotone, check_submodular, check_weak_dr,
                     hessian_estimate)

from handles import scalar_handle

UNIT_BOX = BoxDomain([0.0, 0.0], [1.0, 1.0])


def _handle(value, grad=None, dim=2, **flags):
    return scalar_handle(dim, value, gradient=grad, **flags)


BILINEAR = _handle(lambda x: float(x[0] * x[1]), lambda x: np.array([x[1], x[0]]))
NEG_BILINEAR = _handle(lambda x: float(-x[0] * x[1]),
                       lambda x: np.array([-x[1], -x[0]]))
MODULAR = _handle(lambda x: float(2 * x[0] - x[1]), lambda x: np.array([2.0, -1.0]))
SEPARABLE = _handle(lambda x: float(np.sin(x[0]) + x[1] ** 3))


# -------------------------------------------------------------- submodular

def test_submodular_negative_bilinear_passes():
    assert check_submodular(NEG_BILINEAR, UNIT_BOX, 200, seed=0).ok


def test_submodular_bilinear_fails_with_witness():
    rep = check_submodular(BILINEAR, UNIT_BOX, 200, seed=0)
    assert rep.verdict == "fail" and rep.witness is not None
    x, y = rep.witness
    lhs = BILINEAR.value(x) + BILINEAR.value(y)
    rhs = BILINEAR.value(np.maximum(x, y)) + BILINEAR.value(np.minimum(x, y))
    assert rhs - lhs == pytest.approx(rep.worst_violation)


def test_submodular_separable_has_zero_violation():
    rep = check_submodular(SEPARABLE, UNIT_BOX, 300, seed=1)
    assert rep.ok and abs(rep.worst_violation) <= 1e-12


# ----------------------------------------------------------------- weak DR

def test_weak_dr_bilinear_fails():
    assert check_weak_dr(BILINEAR, UNIT_BOX, 200, seed=0).verdict == "fail"


def test_weak_dr_modular_passes_exactly():
    rep = check_weak_dr(MODULAR, UNIT_BOX, 200, seed=0)
    assert rep.ok and abs(rep.worst_violation) <= 1e-12


def test_weak_dr_negative_bilinear_passes():
    assert check_weak_dr(NEG_BILINEAR, UNIT_BOX, 200, seed=0).ok


# ---------------------------------------------------------------------- DR

def test_dr_concave_diagonal_quadratic_passes():
    h = QuadraticInstance([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0]).handle()
    assert check_dr(h, UNIT_BOX, 200, seed=0).ok


def test_dr_coordinatewise_convex_fails():
    square = _handle(lambda x: float(x[0] ** 2), dim=1)
    box1 = BoxDomain([0.0], [1.0])
    assert check_dr(square, box1, 200, seed=0).verdict == "fail"
    assert check_coordinatewise_concave(square, box1, 200, seed=0).verdict == "fail"


def test_dr_modular_passes():
    assert check_dr(MODULAR, UNIT_BOX, 200, seed=0).ok


def test_dr_implies_weak_dr_on_same_samples():
    rng = np.random.default_rng(7)
    for seed in range(20):
        M = rng.uniform(-1, 1, size=(3, 3))
        inst = QuadraticInstance((M + M.T) / 2, rng.uniform(-1, 1, 3))
        h = inst.handle()
        box = BoxDomain(np.zeros(3), np.ones(3))
        if check_dr(h, box, 300, seed=seed).ok:
            assert check_weak_dr(h, box, 300, seed=seed).ok


# ---------------------------------------------------- coordinatewise concave

def test_coordconcave_sqrt_passes():
    root = _handle(lambda x: float(np.sqrt(x[0] + 0.01)), dim=1)
    assert check_coordinatewise_concave(root, BoxDomain([0.0], [1.0]), 200, seed=0).ok


def test_coordconcave_linear_zero_violation():
    rep = check_coordinatewise_concave(MODULAR, UNIT_BOX, 200, seed=0)
    assert rep.ok and abs(rep.worst_violation) <= 1e-12


# ---------------------------------------------------------------- monotone

def test_monotone_examples():
    inc = _handle(lambda x: float(x[0] + 2 * x[1]))
    assert check_monotone(inc, UNIT_BOX, 200, seed=0).ok
    dec = _handle(lambda x: float(-x[0]))
    rep = check_monotone(dec, UNIT_BOX, 200, seed=0)
    assert rep.verdict == "fail" and rep.witness is not None


# ------------------------------------------------------ directional concave

def test_directional_concave_examples():
    dr_quad = QuadraticInstance([[-1.0, -0.5], [-0.5, -2.0]], [1.0, 1.0]).handle()
    rep = check_directional_concave(dr_quad, np.zeros(2), np.array([0.7, 0.3]))
    assert rep.ok

    square = _handle(lambda x: float(x[0] ** 2), dim=1)
    assert check_directional_concave(square, np.zeros(1), np.ones(1)).verdict == "fail"

    rep = check_directional_concave(MODULAR, np.zeros(2), np.ones(2))
    assert rep.ok and abs(rep.worst_violation) <= 1e-12


def _nan_at(row):
    """A modular objective whose batch form returns NaN on one given row."""
    def value_batch(X):
        vals = X.sum(axis=1)
        vals[row] = np.nan
        return vals
    return ObjectiveHandle(2, lambda x: float(np.sum(x)), value_batch=value_batch)


@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_sampled_checkers_reject_nan_violations(name):
    with pytest.raises(ValueError, match=rf"check_\w+: non-finite violation nan at trial 3\b"):
        CHECKERS[name](_nan_at(3), UNIT_BOX, 50, seed=0)


def test_directional_concave_rejects_nan_violations():
    # grid point 0 is the first endpoint of the first pair, so trial 0 is hit
    with pytest.raises(ValueError, match="check_directional_concave: non-finite "
                                         "violation nan at trial 0"):
        check_directional_concave(_nan_at(0), np.zeros(2), np.ones(2))


# ------------------------------------------------------------- hessian sign

def test_hessian_estimate_matches_quadratic():
    rng = np.random.default_rng(3)
    M = rng.uniform(-1, 1, size=(3, 3))
    inst = QuadraticInstance((M + M.T) / 2, rng.uniform(-1, 1, 3))
    est = hessian_estimate(inst.handle(), rng.uniform(0, 1, 3), h=1e-4)
    assert np.max(np.abs(est - inst.H)) <= 1e-4


def test_hessian_offdiag_examples():
    assert check_hessian_offdiag(BILINEAR, np.array([0.5, 0.5])).verdict == "fail"
    assert check_hessian_offdiag(NEG_BILINEAR, np.array([0.5, 0.5])).ok
    sep = _handle(lambda x: float(x[0] ** 2 + np.cos(x[1])))
    rep = check_hessian_offdiag(sep, np.array([0.5, 0.5]))
    assert rep.ok and abs(rep.worst_violation) <= 1e-6


def test_hessian_offdiag_boundary_guard():
    with pytest.raises(ValueError, match="boundary"):
        check_hessian_offdiag(BILINEAR, np.array([0.0, 0.5]), h=1e-4, domain=UNIT_BOX)


# ----------------------------------------------------------------- gradient

def test_check_gradient_quadratic_passes():
    rng = np.random.default_rng(5)
    M = rng.uniform(-1, 1, size=(3, 3))
    inst = QuadraticInstance((M + M.T) / 2, rng.uniform(-1, 1, 3))
    assert check_gradient(inst.handle(), rng.uniform(0, 1, 3)).ok


def test_check_gradient_corruption_is_caught_with_coordinate():
    def bad_grad(x):
        g = np.array([x[1], x[0]])
        g[1] += 1.0
        return g

    corrupted = _handle(lambda x: float(x[0] * x[1]), bad_grad)
    rep = check_gradient(corrupted, np.array([0.4, 0.6]))
    assert rep.verdict == "fail"
    assert rep.witness[0] == 1


def test_check_gradient_linear_exact():
    rep = check_gradient(MODULAR, np.array([0.3, 0.3]))
    assert rep.ok and rep.worst_violation <= 1e-10


def test_check_gradient_requires_gradient():
    with pytest.raises(ValueError):
        check_gradient(SEPARABLE, np.array([0.5, 0.5]))


# ------------------------------------------------------------- determinism

def test_reports_deterministic_given_seed():
    a = check_submodular(BILINEAR, UNIT_BOX, 100, seed=9)
    b = check_submodular(BILINEAR, UNIT_BOX, 100, seed=9)
    assert a.worst_violation == b.worst_violation
    assert np.array_equal(a.witness[0], b.witness[0])
    c = check_submodular(BILINEAR, UNIT_BOX, 100, seed=10)
    assert c.worst_violation != a.worst_violation


# ------------------------------------ equivalence spot checks (small scale)

def _random_quadratic(rng, n=4, diag_negative=True):
    mag = rng.uniform(0.2, 1.0, size=(n, n))
    sign = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    H = np.triu(mag * sign, 1)
    H = H + H.T
    diag = -rng.uniform(0.2, 1.0, size=n) if diag_negative \
        else rng.uniform(0.2, 1.0, size=n) * np.where(rng.random(n) < 0.5, -1, 1)
    np.fill_diagonal(H, diag)
    return QuadraticInstance(H, rng.uniform(-1, 1, size=n))


def test_submodularity_equals_weak_dr_on_random_quadratics():
    rng = np.random.default_rng(123)
    box = BoxDomain(np.zeros(4), np.ones(4))
    for seed in range(30):
        inst = _random_quadratic(rng)
        truth = inst.is_submodular
        h = inst.handle()
        assert check_submodular(h, box, 300, seed=seed).ok == truth
        assert check_weak_dr(h, box, 300, seed=seed).ok == truth


def test_dr_equals_submodular_plus_coordinatewise_concave():
    rng = np.random.default_rng(321)
    box = BoxDomain(np.zeros(4), np.ones(4))
    for seed in range(30):
        inst = _random_quadratic(rng, diag_negative=False)
        h = inst.handle()
        dr = check_dr(h, box, 300, seed=seed).ok
        sub = check_submodular(h, box, 300, seed=seed).ok
        cc = check_coordinatewise_concave(h, box, 300, seed=seed).ok
        assert dr == (sub and cc)


@pytest.mark.parametrize("name", sorted(CHECKERS))
@pytest.mark.parametrize("trials", [0, 2.5, True])
def test_checkers_name_a_bad_trial_count(name, trials):
    # a float or bool count must fail by name, not as a numpy TypeError
    with pytest.raises(ValueError, match=f"must be a positive int, got {trials!r}"):
        CHECKERS[name](BILINEAR, UNIT_BOX, trials)
