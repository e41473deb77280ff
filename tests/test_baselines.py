import hashlib

import numpy as np
import pytest

from subcont import (BoxDomain, PolytopeDomain, QuadraticInstance,
                     feasibility_residual, gen_monotone_nqp, gen_nonmonotone_nqp, hit_and_run,
                     proj_grad_ascent, random_best_of, random_cube_baseline,
                     single_greedy)
from subcont.core import eval_batch
from subcont.solvers import QUADRATIC_MODE

from handles import scalar_handle

SIMPLEX = PolytopeDomain([[1.0, 1.0]], [1.0], [1.0, 1.0])


def _sum_handle():
    return QuadraticInstance(np.zeros((2, 2)), [1.0, 1.0]).handle(
        BoxDomain([0, 0], [1, 1]))


def test_random_best_of_single_sample():
    h = _sum_handle()
    x, v = random_best_of(h, SIMPLEX, 1, seed=0)
    assert v == pytest.approx(h.value(x))
    assert feasibility_residual(SIMPLEX, x) <= 1e-9


def test_random_best_of_prefix_maximum():
    h = _sum_handle()
    samples = hit_and_run(SIMPLEX, 64, seed=5)
    values = eval_batch(h, samples)
    prefix_best = -np.inf
    for k in (1, 4, 16, 64):
        _, v = random_best_of(h, SIMPLEX, k, seed=5)
        assert v == pytest.approx(values[:k].max())
        assert v >= prefix_best
        prefix_best = v


def test_random_best_of_respects_lp_bound():
    h = _sum_handle()
    for seed in range(5):
        _, v = random_best_of(h, SIMPLEX, 200, seed=seed)
        assert v <= 1.0 + 1e-9


def test_random_cube_all_feasible_and_deterministic():
    h = _sum_handle()
    x1, v1 = random_cube_baseline(h, SIMPLEX, 50, seed=2)
    x2, v2 = random_cube_baseline(h, SIMPLEX, 50, seed=2)
    assert np.array_equal(x1, x2) and v1 == v2
    assert feasibility_residual(SIMPLEX, x1) <= 1e-9


@pytest.mark.parametrize("k_s", [0, 2.5, -1, True])
def test_random_cube_names_a_bad_sample_count(k_s):
    with pytest.raises(ValueError, match=f"k_s must be a positive int, got {k_s}"):
        random_cube_baseline(_sum_handle(), SIMPLEX, k_s, seed=0)


def test_random_cube_shrink_never_helps_monotone():
    inst, P = gen_monotone_nqp(4, 2, seed=0)
    h = inst.handle(P.box())
    rng = np.random.default_rng(7)
    from subcont import ratio_shrink
    for _ in range(50):
        raw = rng.uniform(0, 1, size=4)
        assert h.value(ratio_shrink(P, raw)) <= h.value(np.minimum(raw, P.upper)) + 1e-12


# sha256 of best.tobytes() + value, recorded before random_cube shrank its
# samples in one call: a paper-scale polytope and an m = 0 box over the
# same objective
_CUBE_DIGESTS = [
    (False, "9d6806e1f20d3cb6a07b1b5f48c32c38ffd9e466d915d6db442926a65db41a57"),
    (True, "86c49bdba49c2004666a022b9e5d028b38cab081852ba55b413ebdd8242c104c"),
]


@pytest.mark.parametrize("box, digest", _CUBE_DIGESTS, ids=["nqp100x50", "box"])
def test_random_cube_best_is_pinned(box, digest):
    inst, P = gen_monotone_nqp(100, 50, 0)
    if box:
        P = PolytopeDomain(np.zeros((0, 100)), np.zeros(0), P.upper)
    x, v = random_cube_baseline(inst.handle(P.box()), P, 1000, 0)
    assert hashlib.sha256(x.tobytes() + np.float64(v).tobytes()).hexdigest() == digest


def test_proj_grad_zero_step_stays_home():
    h = _sum_handle()
    x, v, trace = proj_grad_ascent(h, SIMPLEX, 0.0, 5)
    assert np.array_equal(x, np.zeros(2))


def test_proj_grad_concave_separable_on_box():
    # maximizer of -(x1-.5)^2 - (x2-.5)^2 is the interior point (.5, .5)
    inst = QuadraticInstance(-2 * np.eye(2), [1.0, 1.0], -0.5)
    box = BoxDomain([0, 0], [1, 1])
    x, v, trace = proj_grad_ascent(inst.handle(box), box, 0.1, 200)
    assert np.max(np.abs(x - 0.5)) <= 1e-3


def test_proj_grad_iterates_feasible_on_polytope():
    inst, P = gen_monotone_nqp(3, 2, seed=1)
    x, v, trace = proj_grad_ascent(inst.handle(P.box()), P, 1e-3, 20)
    assert all(r.feasibility_residual <= 1e-8 for r in trace.records)


def test_single_greedy_modular():
    inst = QuadraticInstance(np.zeros((2, 2)), [2.0, -1.0])
    box = BoxDomain([0, 0], [1, 1])
    x, v = single_greedy(inst.handle(box), box, mode=QUADRATIC_MODE)
    assert np.array_equal(x, [1.0, 0.0]) and v == pytest.approx(2.0)


def test_single_greedy_monotone_returns_upper_corner():
    inst, P = gen_monotone_nqp(4, 2, seed=3)
    box = P.box()
    x, v = single_greedy(inst.handle(box), box, mode=QUADRATIC_MODE)
    assert np.array_equal(x, box.upper)


def test_single_greedy_constant_stays_at_lower_corner():
    const = scalar_handle(3, lambda x: 2.0, submodular=True)
    box = BoxDomain(np.zeros(3), np.ones(3))
    x, v = single_greedy(const, box, mode=QUADRATIC_MODE)
    assert np.array_equal(x, box.lower) and v == 2.0


def test_baselines_feasible_on_random_instances():
    for seed in range(3):
        inst, box = gen_nonmonotone_nqp(4, seed=seed)
        h = inst.handle(box)
        P = PolytopeDomain(np.zeros((0, 4)), np.zeros(0), box.upper)
        for x, _ in (random_best_of(h, P, 20, seed),
                     random_cube_baseline(h, P, 20, seed),
                     single_greedy(h, box, mode=QUADRATIC_MODE)):
            assert feasibility_residual(P, x) <= 1e-9


def test_proj_grad_rejects_a_scalar_gradient():
    # a scalar would broadcast over every coordinate of the step
    f = scalar_handle(2, lambda x: float(np.sum(x)), gradient=lambda x: 1.0,
                      differentiable=True)
    with pytest.raises(ValueError, match="dimension mismatch: expected 2, got 1"):
        proj_grad_ascent(f, BoxDomain([0, 0], [1, 1]), 0.1, 3)
