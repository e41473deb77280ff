import numpy as np
import pytest

from subcont import (BoxDomain, ObjectiveHandle, PolytopeDomain, QuadraticInstance,
                     SolverTrace, check_monotone, feasibility_residual,
                     finite_diff_gradient, grid_brute_force, maximize_1d, random_best_of,
                     random_cube_baseline)
from subcont.solvers import CONCAVE_MODE


def test_lattice_join_meet_ordering_and_identity():
    # the property checkers take the lattice join and meet as np.maximum and
    # np.minimum of two points
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        j, m = np.maximum(x, y), np.minimum(x, y)
        assert np.all(j >= x) and np.all(j >= y)
        assert np.all(m <= x) and np.all(m <= y)
        # each coordinate of join/meet copies one input, so the identity is exact
        assert np.array_equal(j + m, x + y)


def test_finite_diff_linear_is_exact():
    g = finite_diff_gradient(lambda v: v[0] + v[1], np.array([0.4, 1.7]), h=1e-5)
    assert np.max(np.abs(g - 1.0)) <= 1e-8


def test_finite_diff_bilinear():
    g = finite_diff_gradient(lambda v: v[0] * v[1], np.array([2.0, 3.0]), h=1e-5)
    assert np.max(np.abs(g - [3.0, 2.0])) <= 1e-6


def test_finite_diff_constant_is_zero():
    g = finite_diff_gradient(lambda v: 4.2, np.array([0.1, 0.2, 0.3]), h=1e-5)
    assert np.array_equal(g, np.zeros(3))


def test_finite_diff_matches_quadratic_gradient():
    rng = np.random.default_rng(1)
    M = rng.uniform(-1, 1, size=(4, 4))
    inst = QuadraticInstance((M + M.T) / 2, rng.uniform(-1, 1, size=4), 0.5)
    for _ in range(100):
        x = rng.uniform(-1, 1, size=4)
        fd = finite_diff_gradient(inst.handle(), x, h=1e-5)
        exact = inst.gradient(x)
        rel = np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))
        assert np.max(rel) <= 1e-5


def test_finite_diff_nonfinite_identifies_coordinate():
    def bad(v):
        return float("nan") if v[1] > 0.5 else float(v[0])

    with pytest.raises(ValueError, match="coordinate 1"):
        finite_diff_gradient(bad, np.array([0.0, 0.5]), h=0.1)


def test_box_validation():
    with pytest.raises(ValueError):
        BoxDomain([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        BoxDomain([0.0, np.inf], [1.0, 2.0])
    box = BoxDomain([0, 0], [1, 2])
    assert box.dimension == 2
    assert feasibility_residual(box, [1, 2]) == 0.0
    assert feasibility_residual(box, [1.1, 0]) == pytest.approx(0.1)


def test_polytope_validation():
    with pytest.raises(ValueError):
        PolytopeDomain([[-1.0, 0.0]], [1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        PolytopeDomain([[1.0, 0.0]], [-1.0], [1.0, 1.0])
    P = PolytopeDomain(np.zeros((0, 2)), np.zeros(0), [1.0, 1.0])
    assert P.num_rows == 0 and P.dimension == 2
    assert feasibility_residual(P.box(), [0.5, 0.5]) == 0.0


def test_objective_handle_flag_invariants():
    zero, zeros = (lambda x: 0.0), (lambda X: np.zeros(len(X)))
    with pytest.raises(ValueError):
        ObjectiveHandle(2, zero, zeros, differentiable=True)  # flag without gradient
    with pytest.raises(ValueError):
        ObjectiveHandle(2, zero, zeros, gradient=lambda x: x)  # gradient without flag
    with pytest.raises(ValueError):
        ObjectiveHandle(2, zero, zeros, dr_submodular=True, submodular=False)


def test_objective_handle_requires_value_batch():
    with pytest.raises(TypeError, match="value_batch"):
        ObjectiveHandle(2, lambda x: 0.0)
    with pytest.raises(TypeError, match="value_batch"):
        ObjectiveHandle(dimension=2, value=lambda x: 0.0, submodular=True)


def test_trace_invariants():
    tr = SolverTrace()
    tr.append(0, 0.0, 1.0, 0.0)
    tr.append(1, 0.5, 2.0, 0.0)
    with pytest.raises(ValueError):
        tr.append(1, 0.6, 2.0, 0.0)       # stalled iteration index
    with pytest.raises(ValueError):
        tr.append(2, 0.4, 2.0, 0.0)       # decreasing cumulative step
    with pytest.raises(ValueError):
        tr.append(2, 1.5, 2.0, 0.0)       # step beyond 1
    with pytest.raises(ValueError):
        tr.append(2, 0.9, 2.0, -1.0)      # negative residual
    tr.append(2, 1.0, 3.0, 0.0)
    assert tr.final_objective == 3.0
    assert len(tr) == 3


@pytest.mark.parametrize("kind", ["short", "long", "column"])
def test_every_batch_caller_names_a_bad_value_batch(kind):
    # k - 1 values, k + 1 values or a (k, 1) column must not be taken silently
    # or fail unlocated: every caller evaluates through eval_batch
    def value_batch(X):
        v = X.sum(axis=1)
        return {"short": v[:-1], "long": np.append(v, 0.0), "column": v[:, None]}[kind]

    f = ObjectiveHandle(3, lambda x: float(np.sum(x)), value_batch, name=kind)
    box = BoxDomain(np.zeros(3), np.ones(3))
    P = PolytopeDomain([[1.0, 1.0, 1.0]], [1.0], np.ones(3))
    calls = [lambda: grid_brute_force(f, box, 3),
             lambda: maximize_1d(f, np.zeros((2, 3)), 0, 0.0, 1.0, CONCAVE_MODE),
             lambda: random_best_of(f, P, 5, 0),
             lambda: random_cube_baseline(f, P, 5, 0),
             lambda: check_monotone(f, box, 5)]
    for call in calls:
        with pytest.raises(ValueError, match=rf"value_batch of '{kind}' gave shape "
                                             rf"\(\d+(, 1)?,?\) for \d+ rows"):
            call()
