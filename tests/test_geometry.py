import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcont import (BoxDomain, LPSolution, PolytopeDomain, feasibility_residual,
                     gen_monotone_nqp, hit_and_run, linear_maximize,
                     project_polytope, ratio_shrink, reoptimize)

from lp_reference import (active_constraints, constraint_normals, enumerate_vertices,
                          nonbasic_constraints)

SIMPLEX = PolytopeDomain([[1.0, 1.0]], [1.0], [1.0, 1.0])


def _random_polytope(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, 4))
    A = rng.uniform(0.0, 1.0, size=(m, n))
    b = rng.uniform(0.3, 1.5, size=m)
    upper = rng.uniform(0.3, 1.5, size=n)
    return PolytopeDomain(A, b, upper)


# ------------------------------------------------------- feasibility residual

def test_contains_examples():
    # membership is a zero residual
    assert feasibility_residual(SIMPLEX, [0.5, 0.5]) == 0.0
    assert feasibility_residual(SIMPLEX, [1.0, 1.0]) > 0.0
    assert feasibility_residual(SIMPLEX, [0.0, 0.0]) == 0.0


def test_feasibility_residual():
    assert feasibility_residual(SIMPLEX, [0.5, 0.5]) == 0.0
    assert feasibility_residual(SIMPLEX, [1.0, 1.0]) == pytest.approx(1.0)
    assert feasibility_residual(SIMPLEX, [-0.25, 0.5]) == pytest.approx(0.25)
    assert feasibility_residual(SIMPLEX, [0.0, 1.5]) == pytest.approx(0.5)


@pytest.mark.parametrize("domain", [BoxDomain(np.zeros(3), np.ones(3)),
                                    PolytopeDomain(np.zeros((0, 3)), [], np.ones(3)),
                                    PolytopeDomain(np.ones((1, 3)), [2.0], np.ones(3))],
                         ids=["box", "rowless", "rows"])
@pytest.mark.parametrize("x", [[0.0, 0.0, 0.0], [0.0, 0.5, 1.0], [-0.0, 0.25, 0.0]])
def test_feasibility_residual_of_a_feasible_point_is_positive_zero(domain, x):
    # a zero coordinate gives -0.0 in -x; the trace CSVs print it as "-0"
    res = feasibility_residual(domain, x)
    assert res == 0.0 and math.copysign(1.0, res) == 1.0


def test_feasibility_residual_reads_a_box_as_a_polytope_without_rows():
    # same bits on [0, u] whichever type holds it, in and out of the box
    rng = np.random.default_rng(5)
    upper = rng.uniform(0.3, 1.5, size=4)
    box, P = BoxDomain(np.zeros(4), upper), PolytopeDomain([], [], upper)
    for _ in range(50):
        x = rng.normal(size=4)
        assert np.float64(feasibility_residual(box, x)).tobytes() == \
            np.float64(feasibility_residual(P, x)).tobytes()


def test_feasibility_residual_rejects_a_point_of_the_wrong_length():
    box = BoxDomain(np.zeros(4), np.ones(4))
    P = PolytopeDomain(np.ones((1, 4)), [1.0], np.ones(4))
    for domain in (box, P):
        with pytest.raises(ValueError, match="dimension mismatch: expected 4, got 1"):
            feasibility_residual(domain, [2.0])


# ---------------------------------------------------------------- LP oracle

def _assert_basis_vertex(P, sol):
    """The n nonbasic columns of sol.basis name constraints tight at sol.point
    to 1e-9, with normals of rank n: the basis itself proves a vertex."""
    n = P.dimension
    tight = nonbasic_constraints(P, sol)
    assert len(tight) == n
    assert set(tight) <= set(active_constraints(P, sol.point, 1e-9))
    assert np.linalg.matrix_rank(constraint_normals(P)[tight]) == n


def _assert_optimal_vertex(P, c, sol):
    """sol maximizes <c, x> over P, is feasible, is a vertex of its stored
    basis, and that basis certifies it for c: a resume prices no improving
    column and hands sol back."""
    best = max(float(c @ v) for v in enumerate_vertices(P))
    assert float(c @ sol.point) == pytest.approx(best, abs=1e-8)
    assert feasibility_residual(P, sol.point) <= 1e-9
    _assert_basis_vertex(P, sol)
    assert reoptimize(P, sol, c) is sol


def test_linear_maximize_examples():
    sol = linear_maximize(SIMPLEX, [2.0, 1.0])
    assert np.allclose(sol.point, [1.0, 0.0]) and sol.objective == pytest.approx(2.0)

    sol = linear_maximize(SIMPLEX, [0.0, 0.0])
    assert sol.objective == 0.0

    wide = PolytopeDomain([[1.0, 1.0]], [2.0], [1.0, 1.0])
    sol = linear_maximize(wide, [1.0, 1.0])
    assert np.allclose(sol.point, [1.0, 1.0]) and sol.objective == pytest.approx(2.0)


def test_linear_maximize_negative_costs_stay_home():
    sol = linear_maximize(SIMPLEX, [-1.0, -2.0])
    assert np.array_equal(sol.point, [0.0, 0.0])


def test_enumerate_vertices_examples():
    verts = {tuple(np.round(v, 9)) for v in enumerate_vertices(SIMPLEX)}
    assert verts == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}

    box_only = PolytopeDomain(np.zeros((0, 2)), np.zeros(0), [1.0, 2.0])
    corners = {tuple(v) for v in enumerate_vertices(box_only)}
    assert corners == {(0, 0), (1, 0), (0, 2), (1, 2)}

    pinned = PolytopeDomain([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [1.0, 1.0])
    verts = enumerate_vertices(pinned)
    assert len(verts) == 1 and np.array_equal(verts[0], [0.0, 0.0])


def test_enumerate_vertices_scales_row_tolerance_by_row_norm():
    # the feasible set is {0}; (0, 1e-5) violates row 2 by only 1e-10, which
    # an absolute 1e-9 tolerance would accept as a vertex
    tiny = PolytopeDomain([[0.0, 0.0], [0.0, 1e-5]], [0.0, 0.0], [0.0, 1e-5])
    verts = enumerate_vertices(tiny)
    assert len(verts) == 1 and np.array_equal(verts[0], [0.0, 0.0])
    assert linear_maximize(tiny, [1.0, 1.0]).objective == 0.0


def test_enumerate_vertices_guard():
    big = PolytopeDomain(np.zeros((0, 11)), np.zeros(0), np.ones(11))
    with pytest.raises(ValueError):
        enumerate_vertices(big)


def test_linear_maximize_matches_vertex_enumeration():
    rng = np.random.default_rng(0)
    for trial in range(60):
        P = _random_polytope(rng)
        c = rng.normal(size=P.dimension)
        _assert_optimal_vertex(P, c, linear_maximize(P, c))


def test_linear_maximize_returns_vertex():
    rng = np.random.default_rng(4)
    for trial in range(40):
        P = _random_polytope(rng)
        _assert_basis_vertex(P, linear_maximize(P, rng.normal(size=P.dimension)))


@pytest.mark.parametrize("A, b, upper, c, optimum", [
    # no rows: every entering variable moves straight to its upper bound
    (np.zeros((0, 2)), [], [1.0, 2.0], [1.0, 1.0], [1.0, 2.0]),
    # x0 flips to its bound, x1 enters at 0, then x0 backs off and x1
    # leaves the basis at its upper bound
    ([[2.0, 1.0]], [2.0], [1.0, 1.0], [3.0, 3.0], [0.5, 1.0]),
    # the b = 0 row makes the first pivot degenerate, so the next entering
    # variable is x0 (lowest index, Bland) rather than x2 (largest cost)
    ([[0.0, 1.0, 0.0]], [0.0], [1.0, 2.0, 2.0], [1.0, 3.0, 3.0], [1.0, 0.0, 2.0]),
])
def test_linear_maximize_bound_flips_and_degenerate_pivots(A, b, upper, c, optimum):
    P = PolytopeDomain(A, b, upper)
    c = np.array(c)
    sol = linear_maximize(P, c)
    assert np.allclose(sol.point, optimum, atol=1e-12)
    _assert_optimal_vertex(P, c, sol)


# a coarse dyadic grid: exact ties and degenerate vertices are common, and
# every vertex is a short rational, so enumerate_vertices' 1e-9 feasibility
# tolerance cannot admit a near-feasible non-vertex (tiny coefficients can)
_LEVELS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
_COSTS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def _degenerate_lp(draw):
    """A down-closed polytope and a cost vector built for degeneracy: rows
    with b = 0, duplicated rows, coordinates with upper = 0, no rows at all,
    and costs with zeros and ties."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    A = np.array(draw(st.lists(st.lists(_LEVELS, min_size=n, max_size=n),
                               min_size=m, max_size=m))).reshape(m, n)
    b = np.array(draw(st.lists(_LEVELS, min_size=m, max_size=m)))
    if m >= 2 and draw(st.booleans()):
        A[1], b[1] = A[0], b[0]
    upper = np.array(draw(st.lists(_LEVELS, min_size=n, max_size=n)))
    c = np.array(draw(st.lists(_COSTS, min_size=n, max_size=n)))
    return PolytopeDomain(A, b, upper), c


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_degenerate_lp())
def test_linear_maximize_matches_enumeration_on_degenerate_polytopes(lp):
    P, c = lp
    _assert_optimal_vertex(P, c, linear_maximize(P, c))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_degenerate_lp(), st.data())
def test_reoptimize_from_another_costs_basis_on_degenerate_polytopes(lp, data):
    # costs on the same coarse grid tie often, so the first cost's basis is
    # frequently kept as it is; otherwise the resume pivots from it
    P, c = lp
    c2 = np.array(data.draw(st.lists(_COSTS, min_size=P.dimension, max_size=P.dimension)))
    _assert_optimal_vertex(P, c2, reoptimize(P, linear_maximize(P, c), c2))


def test_reoptimize_under_perturbed_costs():
    # random polytopes are nondegenerate, so the basis of a vertex is unique:
    # a kept vertex is optimal, and a vertex left behind is strictly worse
    rng = np.random.default_rng(5)
    verdicts = []
    for trial in range(100):
        P = _random_polytope(rng)
        c = rng.normal(size=P.dimension)
        sol = linear_maximize(P, c)
        for scale in (1e-3, 0.1, 1.0):
            c2 = c + scale * rng.normal(size=P.dimension)
            warm = reoptimize(P, sol, c2)
            _assert_optimal_vertex(P, c2, warm)
            kept = warm is sol
            if not kept:
                best = max(float(c2 @ v) for v in enumerate_vertices(P))
                assert float(c2 @ sol.point) < best
            verdicts.append(kept)
    assert any(verdicts) and not all(verdicts)


def test_reoptimize_needs_a_stored_basis():
    c = np.array([2.0, 1.0])
    sol = linear_maximize(SIMPLEX, c)
    assert reoptimize(SIMPLEX, sol, c) is sol
    with pytest.raises(ValueError, match="carries its simplex basis"):
        reoptimize(SIMPLEX, LPSolution(sol.point, sol.objective), c)


def test_reoptimize_leaves_the_kept_solution_unchanged():
    inst, P = gen_monotone_nqp(30, 15, 0)
    c = inst.gradient(np.zeros(30))
    sol = linear_maximize(P, c)
    before = [sol.point.tobytes(), *(a.tobytes() for a in sol.basis)]
    c2 = c[::-1].copy()
    warm = reoptimize(P, sol, c2)
    assert warm is not sol   # the resume pivoted
    assert float(c2 @ warm.point) == pytest.approx(linear_maximize(P, c2).objective, rel=1e-12)
    assert [sol.point.tobytes(), *(a.tobytes() for a in sol.basis)] == before
    assert not any(np.shares_memory(a, b) for a, b in zip(sol.basis, warm.basis))


def test_linear_maximize_deterministic():
    rng = np.random.default_rng(8)
    P = _random_polytope(rng)
    c = rng.normal(size=P.dimension)
    a = linear_maximize(P, c)
    b = linear_maximize(P, c)
    assert np.array_equal(a.point, b.point)
    assert all(np.array_equal(u, v) for u, v in zip(a.basis, b.basis))


# --------------------------------------------------------------- projection

def test_project_examples():
    loose = PolytopeDomain([[1.0, 1.0]], [2.0], [1.0, 1.0])
    assert np.allclose(project_polytope(loose, [2.0, 0.0]), [1.0, 0.0])

    p = project_polytope(SIMPLEX, [1.0, 1.0])
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)

    # a feasible point is its own projection, bit for bit
    inside = np.array([0.25, 0.25])
    assert np.array_equal(project_polytope(SIMPLEX, inside), inside)


def test_project_variational_characterization():
    rng = np.random.default_rng(2)
    for trial in range(10):
        P = _random_polytope(rng)
        x = rng.uniform(-1, 2, size=P.dimension)
        p = project_polytope(P, x)
        # <x - p, q - p> <= tol for feasible q characterizes the projection
        for _ in range(100):
            q = ratio_shrink(P, rng.uniform(0, 1, size=P.dimension) * P.upper)
            assert float((x - p) @ (q - p)) <= 1e-6


def _assert_nearest(P, y, x, tol):
    """x is feasible and no vertex q of P has <y - x, q - x> > 0: the LP over
    P certifies x as the nearest point to y, up to tol."""
    g = y - x
    assert feasibility_residual(P, x) <= tol
    assert linear_maximize(P, g).objective - float(g @ x) <= tol * (1.0 + np.linalg.norm(g))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("step", [1e-4, 1e-3, 1e-2])
def test_project_first_proj_grad_point_at_paper_scale(seed, step):
    # the first step of projected gradient ascent from the origin on a
    # paper-scale instance; at step 1e-2 the point lies far outside P, where
    # an iterative projection can stop at a feasible point short of the nearest
    inst, P = gen_monotone_nqp(100, 50, seed)
    y = step * inst.gradient(np.zeros(100))
    x = project_polytope(P, y)
    _assert_nearest(P, y, x, 1e-9)
    assert x.tobytes() == project_polytope(P, y).tobytes()


def test_project_far_points_on_small_polytopes():
    rng = np.random.default_rng(13)
    for trial in range(200):
        P = _random_polytope(rng)
        y = rng.normal(size=P.dimension) * 10.0 ** rng.uniform(0.0, 5.0)
        x = project_polytope(P, y)
        _assert_nearest(P, y, x, 1e-8)
        if P.num_rows == 0:   # a box: the projection is the clip
            assert np.allclose(x, np.clip(y, 0.0, P.upper), rtol=0.0, atol=1e-9)


def test_project_onto_a_polytope_without_rows_is_the_clip_bit_for_bit():
    rng = np.random.default_rng(21)
    P = PolytopeDomain(np.zeros((0, 5)), [], rng.uniform(0.3, 1.5, size=5))
    for _ in range(50):
        y = rng.normal(size=5) * 10.0 ** rng.uniform(-3.0, 3.0)
        x = project_polytope(P, y)
        assert x.tobytes() == np.clip(y, 0.0, P.upper).tobytes()


def test_project_onto_a_box_is_the_clip_into_its_corners_bit_for_bit():
    # a box is a polytope without rows whose lower corner need not be 0
    rng = np.random.default_rng(22)
    lower = rng.uniform(-1.0, 0.5, size=5)
    box = BoxDomain(lower, lower + rng.uniform(0.3, 1.5, size=5))
    for _ in range(50):
        y = rng.normal(size=5) * 10.0 ** rng.uniform(-3.0, 3.0)
        assert project_polytope(box, y).tobytes() == \
            np.clip(y, box.lower, box.upper).tobytes()


def test_project_overwrites_the_passive_set_it_starts_from():
    inst, P = gen_monotone_nqp(30, 15, 0)
    y = 1e-2 * inst.gradient(np.zeros(30))
    passive = np.zeros(15 + 60, dtype=bool)
    cold = project_polytope(P, y, passive)
    assert cold.tobytes() == project_polytope(P, y).tobytes()
    assert passive.any()
    final = passive.copy()
    assert project_polytope(P, y, passive).tobytes() == cold.tobytes()
    assert np.array_equal(passive, final)
    box = BoxDomain(np.zeros(3), np.ones(3))   # no rows: a clip, the set untouched
    untouched = np.ones(6, dtype=bool)
    project_polytope(box, [2.0, -1.0, 0.5], untouched)
    assert untouched.all()


def test_project_from_a_start_whose_columns_all_drop_out_is_the_cold_answer():
    # the lower bounds of the coordinates with y_i > 0 all hold with slack at
    # y: least squares on their columns comes out negative on every one, so
    # the NNLS starts from u = 0 as a cold one does
    inst, P = gen_monotone_nqp(30, 15, 1)
    y = 1e-2 * inst.gradient(np.zeros(30))
    cold_set = np.zeros(15 + 60, dtype=bool)
    cold = project_polytope(P, y, cold_set)
    start = np.zeros(15 + 60, dtype=bool)
    start[15:45] = y > 0
    assert start.any()
    warm = project_polytope(P, y, start)
    assert warm.tobytes() == cold.tobytes()
    assert np.array_equal(start, cold_set)


def test_project_from_another_passive_set_agrees_with_the_cold_answer():
    # a duplicated row makes the NNLS solution non-unique, so a start may end
    # on another final set than the cold one; the nearest point is the same
    rng = np.random.default_rng(3)
    ended_elsewhere = 0
    for trial in range(200):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        A = rng.uniform(0.0, 1.0, size=(m, n))
        b = rng.uniform(0.3, 1.5, size=m)
        P = PolytopeDomain(np.vstack([A, A[:1]]), np.append(b, b[0]),
                           rng.uniform(0.3, 1.5, size=n))
        y = 3.0 * rng.normal(size=n)
        cold_set = np.zeros(m + 1 + 2 * n, dtype=bool)
        cold = project_polytope(P, y, cold_set)
        passive = rng.random(m + 1 + 2 * n) < 0.5
        warm = project_polytope(P, y, passive)
        if np.array_equal(passive, cold_set):
            assert warm.tobytes() == cold.tobytes()
        else:
            ended_elsewhere += 1
            assert np.abs(warm - cold).max() <= 1e-12 * max(1.0, np.abs(cold).max())
    assert ended_elsewhere > 0


# -------------------------------------------------------------- hit-and-run

def test_hit_and_run_feasible_and_deterministic():
    rng = np.random.default_rng(0)
    for trial in range(5):
        P = _random_polytope(rng)
        s1 = hit_and_run(P, 25, seed=trial)
        s2 = hit_and_run(P, 25, seed=trial)
        assert np.array_equal(s1, s2)
        assert all(feasibility_residual(P, row) <= 1e-9 for row in s1)


def test_hit_and_run_uniform_mean_on_interval():
    P = PolytopeDomain(np.zeros((0, 1)), np.zeros(0), [1.0])
    s = hit_and_run(P, 3000, seed=3)
    assert abs(s.mean() - 0.5) <= 0.05


def test_hit_and_run_uniform_moments_on_simplex():
    # uniform on {x >= 0, x1 + x2 <= 1} has coordinate mean 1/3
    s = hit_and_run(SIMPLEX, 4000, seed=11)
    assert np.max(np.abs(s.mean(axis=0) - 1.0 / 3.0)) <= 0.03
    assert all(feasibility_residual(SIMPLEX, row) <= 1e-9 for row in s)


def test_hit_and_run_prefix_across_blocks():
    # 5000 samples take 10100 steps; 9000 take 18100, which cross the A x
    # resync at step 16384.  The longer chain must start as the shorter one,
    # and the samples after the resync must stay feasible.
    P = PolytopeDomain([[1.0, 2.0]], [1.5], [1.0, 1.0])
    short = hit_and_run(P, 5000, seed=7)
    long_run = hit_and_run(P, 9000, seed=7)
    assert short.tobytes() == long_run[:5000].tobytes()
    assert all(feasibility_residual(P, row) <= 1e-9 for row in long_run)


# sha256 of samples.tobytes(), recorded before the chain kept its state as
# one vector [x, Ax, -x] in preallocated chunk buffers: the rewrite must leave
# every sample bit for bit as it was.  Each chunk's A d comes from one BLAS
# matrix product, so the digests hold for one BLAS build; the n = 100 one,
# with its 100-term sums, is the one most likely to move on another.
_HAR_DIGESTS = [
    (lambda: gen_monotone_nqp(100, 50, 0)[1], 50, 0,
     "ca7d801894f76b528e8c05dbd312361c9531bd3c5c38d23bd929ae1fca74cc41"),
    (lambda: PolytopeDomain([[1.0, 1.0, 0.5]], [1.0], [1.0, 0.0, 2.0]), 10, 0,
     "2dfba633817046c7f559ed4b93076048435f7e1a90f14eb8035c04b9ebae2537"),
    (lambda: PolytopeDomain(np.zeros((0, 1)), np.zeros(0), [1.0]), 100, 0,
     "dac15d9059bae76d3c4af6859b31871167726416189098af20c5f717d291e198"),
    (lambda: PolytopeDomain([[1.0, 2.0]], [1.5], [1.0, 1.0]), 9000, 7,
     "f2d7e642a720de6b0cb4c7130d67916c490cf0a8c085d7df27e654faa4e66242"),
    # the shape of the polytope_sweep budget cell (n = 20, one row), 21000
    # steps across the resync; recorded before both chord ends came from one
    # reduction
    (lambda: PolytopeDomain(np.random.default_rng(3).uniform(0.5, 1.5, size=(1, 20)),
                            [5.0], np.ones(20)), 1000, 1,
     "0967d16760a05eb439256ee5409b2ab34046e82bb5dd1bb38b4687ea6bcc554a"),
]


@pytest.mark.parametrize("make, k, seed, digest", _HAR_DIGESTS,
                         ids=["nqp100x50", "retry", "interval", "resync", "budget"])
def test_hit_and_run_samples_are_pinned(make, k, seed, digest):
    samples = hit_and_run(make(), k, seed)
    assert hashlib.sha256(samples.tobytes()).hexdigest() == digest


def test_hit_and_run_rejects_bad_k():
    with pytest.raises(ValueError):
        hit_and_run(SIMPLEX, 0, seed=0)
    with pytest.raises(ValueError, match="sample count k must be a positive int, got 2.5"):
        hit_and_run(SIMPLEX, 2.5, seed=0)
    with pytest.raises(ValueError, match="sample count k must be a positive int, got True"):
        hit_and_run(SIMPLEX, True, seed=0)


def test_hit_and_run_on_pinned_polytope_stays_at_origin():
    # rows with b = 0 pin every coordinate; the feasible set is just {0} and
    # the lazy chain samples it without erroring
    pinned = PolytopeDomain([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [1.0, 1.0])
    s = hit_and_run(pinned, 10, seed=0)
    assert np.array_equal(s, np.zeros((10, 2)))


def _har_peak(P, k):
    tracemalloc.start()
    try:
        hit_and_run(P, k, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hit_and_run_peak_memory_is_one_chunk_of_draws():
    # the chunk buffers (draws, denominators, pads) are allocated once per
    # chain, 256 steps deep; drawing 16384 steps at once peaked at about
    # 22 MiB here (n = 100, m = 50), fresh buffers for every chunk at 3.4 MiB.
    # The doubled denominators and their one pad, 2(2n + m) entries a row,
    # take it from 1.98 to 2.58 MiB at k = 200
    P = gen_monotone_nqp(100, 50, 0)[1]
    small, large = _har_peak(P, 200), _har_peak(P, 2000)
    assert small < 3 * 2 ** 20
    # ten times the chain adds only the larger samples array: no step or
    # chunk allocates memory that outlives it
    assert large - small <= 2000 * 100 * 8 + 2 ** 19


# ------------------------------------------------------------- ratio shrink

def test_ratio_shrink_examples():
    assert np.allclose(ratio_shrink(SIMPLEX, [2.0, 2.0]), [0.5, 0.5])
    feasible = np.array([0.25, 0.5])
    assert np.array_equal(ratio_shrink(SIMPLEX, feasible), feasible)
    assert np.array_equal(ratio_shrink(SIMPLEX, [0.0, 0.0]), [0.0, 0.0])
    # one point in, one point out; a stack of one stays a stack
    box = PolytopeDomain(np.zeros((0, 1)), np.zeros(0), [1.0])
    assert ratio_shrink(box, 3.0).shape == (1,)
    assert np.array_equal(ratio_shrink(SIMPLEX, [[2.0, 2.0]]), [[0.5, 0.5]])
    assert ratio_shrink(SIMPLEX, np.empty((0, 2))).shape == (0, 2)


def test_ratio_shrink_rejects_negative():
    with pytest.raises(ValueError):
        ratio_shrink(SIMPLEX, [-0.1, 0.5])


def _shrink_rows(P, X):
    return np.array([ratio_shrink(P, row) for row in X]).reshape(X.shape)


def test_ratio_shrink_stack_matches_rows_bit_for_bit():
    rng = np.random.default_rng(21)
    polytopes = [_random_polytope(rng) for _ in range(40)]
    polytopes += [PolytopeDomain(np.zeros((0, n)), np.zeros(0), rng.uniform(0.3, 1.5, n))
                  for n in (1, 3, 100)]
    polytopes.append(gen_monotone_nqp(100, 50, 0)[1])
    for P in polytopes:
        X = rng.uniform(0, 3, size=(30, P.dimension)) * P.upper
        X[0] = 0.0
        X[1] = ratio_shrink(P, X[1]) * 0.5   # already feasible
        shrunk = ratio_shrink(P, X)
        assert shrunk.shape == X.shape
        assert shrunk.tobytes() == _shrink_rows(P, X).tobytes()
        assert np.array_equal(shrunk[1], X[1]) and np.array_equal(shrunk[0], X[0])
        assert all(feasibility_residual(P, row) <= 1e-9 for row in shrunk)


@pytest.mark.parametrize("row", [0, 2, 4])
def test_ratio_shrink_stack_rejects_a_negative_entry_in_any_row(row):
    X = np.full((5, 2), 0.25)
    X[row, 1] = -1e-300
    with pytest.raises(ValueError, match="nonnegative"):
        ratio_shrink(SIMPLEX, X)


@pytest.mark.parametrize("X", [np.ones((3, 3)), np.ones((2, 2, 2)), [[0.5, np.nan]]])
def test_ratio_shrink_stack_rejects_a_bad_stack(X):
    with pytest.raises(ValueError, match="stack|non-finite"):
        ratio_shrink(SIMPLEX, X)


def test_ratio_shrink_always_feasible():
    rng = np.random.default_rng(5)
    for trial in range(50):
        P = _random_polytope(rng)
        x = rng.uniform(0, 3, size=P.dimension)
        assert feasibility_residual(P, ratio_shrink(P, x)) <= 1e-9
