import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import subcont
from subcont import (BoxDomain, ExperimentConfig, ObjectiveHandle, PolytopeDomain,
                     QuadraticInstance, gen_nonmonotone_nqp, grid_brute_force,
                     load_bipartite_tsv, proj_grad_ascent, read_trace_csv, run_experiment)
from subcont.harness import TRACE_HEADER, _build_instance, _write_json
from subcont.solvers import QUADRATIC_MODE, REVENUE_MODE
from subcont.zoo import BipartiteInfluenceInstance, RevenueInstance


# ------------------------------------------------------------------ TSV loader

def _write(tmp_path, text, name="edges.tsv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_influence_tsv(tmp_path):
    p = _write(tmp_path, "# kind=influence\nchan_a\tcust_1\t0.5\n")
    inst = load_bipartite_tsv(p)
    assert isinstance(inst, BipartiteInfluenceInstance)
    assert inst.n_channels == 1 and inst.n_customers == 1
    assert inst.value([1.0]) == pytest.approx(0.5)
    assert inst.meta["source_index"] == {"chan_a": 0}


def test_load_revenue_tsv(tmp_path):
    p = _write(tmp_path, "# kind=revenue\ns\tt\t1.0\ns\ts\t1.0\nt\tt\t1.0\n")
    inst = load_bipartite_tsv(p)
    assert isinstance(inst, RevenueInstance)
    assert inst.value([0.0, 1.0]) == pytest.approx(1.0)


def test_load_tsv_no_edges(tmp_path):
    p = _write(tmp_path, "# kind=influence\n")
    with pytest.raises(ValueError, match="no edges"):
        load_bipartite_tsv(p)


def test_load_tsv_duplicate_edge(tmp_path):
    p = _write(tmp_path, "# kind=influence\na\tb\t0.5\na\tb\t0.4\n")
    with pytest.raises(ValueError, match=r"duplicate edge \(a, b\)"):
        load_bipartite_tsv(p)
    p2 = _write(tmp_path, "# kind=revenue\na\tb\t0.5\nb\ta\t0.4\n", "rev.tsv")
    with pytest.raises(ValueError, match="duplicate edge"):
        load_bipartite_tsv(p2)


def test_load_tsv_weight_out_of_range(tmp_path):
    p = _write(tmp_path, "# kind=influence\na\tb\t1.5\n")
    with pytest.raises(ValueError, match=r"\(a, b\)"):
        load_bipartite_tsv(p)


def test_load_tsv_malformed_line_numbered(tmp_path):
    p = _write(tmp_path, "# kind=influence\na\tb\t0.5\nbroken line\n")
    with pytest.raises(ValueError, match=":3"):
        load_bipartite_tsv(p)
    p2 = _write(tmp_path, "# kind=influence\na\tb\tnotafloat\n", "nf.tsv")
    with pytest.raises(ValueError, match=":2"):
        load_bipartite_tsv(p2)


@pytest.mark.parametrize("kind, lines, message", [
    ("influence", ["a\tb\t1.5"], r":2: influence weight of edge \(a, b\) must lie in \(0, 1\)"),
    ("influence", ["a\tb\t0.5", "a\tb\t0.4"], r":3: duplicate edge \(a, b\)"),
    ("revenue", ["a\tb\t-1"], r":2: revenue weight of edge \(a, b\) must be nonnegative"),
    ("revenue", ["a\tb\t0.5", "b\ta\t0.4"], r":3: duplicate edge \(b, a\)"),
    ("revenue", ["a\ta\t0.5", "a\ta\t0.4"], r":3: duplicate self-loop \(a, a\)"),
])
def test_load_tsv_reports_the_first_bad_line_in_file_order(tmp_path, kind, lines, message):
    # a range or duplicate error comes before a malformed line further down
    p = _write(tmp_path, "\n".join([f"# kind={kind}", *lines, "broken line"]) + "\n")
    with pytest.raises(ValueError, match=message):
        load_bipartite_tsv(p)


def test_load_revenue_tsv_balances_gamma_with_a_located_error(tmp_path):
    # gamma starts at 1; f(0) + f(upper) >= 0 needs 0.125 - 2 gamma >= 0
    p = _write(tmp_path, "# kind=revenue\ns\tt\t1.0\ns\ts\t0.125\n")
    inst = load_bipartite_tsv(p)
    assert inst.meta["gamma_halvings"] == 4 and inst.gamma == 0.0625
    # no self-activation: gamma cannot shrink fast enough against a huge box
    p2 = _write(tmp_path, "# kind=revenue\ns\tt\t1.0\n", "unbalanced.tsv")
    with pytest.raises(ValueError, match=r"unbalanced\.tsv: cannot balance"):
        load_bipartite_tsv(p2, u_scale=1e70)


def test_load_tsv_missing_header(tmp_path):
    p = _write(tmp_path, "a\tb\t0.5\n")
    with pytest.raises(ValueError, match="header"):
        load_bipartite_tsv(p)


# ------------------------------------------------------------------ grid oracle

def test_grid_examples():
    # -(x1-.5)^2 - (x2-.5)^2 expanded: peak value 0 at the grid midpoint...
    # shifted by +0.25 here so the expected optimum is 0.25 at (0.5, 0.5)
    bowl = QuadraticInstance(-2 * np.eye(2), [1.0, 1.0], -0.25)
    box = BoxDomain([0, 0], [1, 1])
    x, v = grid_brute_force(bowl.handle(box), box, 3)
    assert np.array_equal(x, [0.5, 0.5]) and v == pytest.approx(0.25)

    lin = QuadraticInstance(np.zeros((1, 1)), [1.0])
    x, v = grid_brute_force(lin.handle(), BoxDomain([0.0], [1.0]), 7)
    assert x[0] == 1.0 and v == 1.0

    P = PolytopeDomain([[1.0, 1.0]], [1.0], [1.0, 1.0])
    h = QuadraticInstance(np.zeros((2, 2)), [1.0, 1.0]).handle()
    x, v = grid_brute_force(h, P, 11)
    assert v == pytest.approx(1.0)
    assert abs(x.sum() - 1.0) <= 1e-12


def test_grid_guard():
    h = QuadraticInstance(np.zeros((7, 7)), np.zeros(7)).handle()
    with pytest.raises(ValueError):
        grid_brute_force(h, BoxDomain(np.zeros(7), np.ones(7)), 3)
    h2 = QuadraticInstance(np.zeros((6, 6)), np.zeros(6)).handle()
    with pytest.raises(ValueError):
        grid_brute_force(h2, BoxDomain(np.zeros(6), np.ones(6)), 101)


@pytest.mark.parametrize("n, points", [(7, 2), (4, 101)])
def test_grid_guard_messages(tmp_path, n, points):
    # the oracle and the config state one limit, each naming its own count
    h = QuadraticInstance(np.zeros((n, n)), np.zeros(n)).handle()
    with pytest.raises(ValueError) as exc:
        grid_brute_force(h, BoxDomain(np.zeros(n), np.ones(n)), points)
    assert str(exc.value) == "grid oracle guard: needs n <= 6 and points_per_dim^n <= 1e8"
    cfg = ExperimentConfig(experiment="nonmonotone_nqp", n=n, grid_oracle=True,
                           grid_points=points, output_dir=str(tmp_path))
    with pytest.raises(ValueError) as exc:
        cfg.validate()
    assert str(exc.value) == "grid oracle guard: needs n <= 6 and grid_points^n <= 1e8"


def test_grid_never_exceeds_truth():
    inst = QuadraticInstance(np.array([[-2.0]]), [0.9])  # max at 0.45, value 0.2025
    box = BoxDomain([0.0], [1.0])
    for ppd in (2, 3, 10, 11):
        _, v = grid_brute_force(inst.handle(), box, ppd)
        assert v <= 0.2025 + 1e-12


def _reference_grid_scan(f, lo, hi, ppd, P=None):
    """Every grid point in row-major order, evaluated in one batch; the first
    maximiser among the feasible points wins."""
    axes = [np.linspace(lo[i], hi[i], ppd) for i in range(len(lo))]
    X = np.array(list(itertools.product(*axes)))
    if P is not None:
        X = X[np.all(X @ P.A.T <= P.b + 1e-12, axis=1)]
    vals = f.value_batch(X)
    i = int(np.argmax(vals))
    return X[i], float(vals[i])


def _grid_cases(n):
    rng = np.random.default_rng(100 + n)
    M = rng.uniform(-1, 1, size=(n, n))
    f = QuadraticInstance((M + M.T) / 2, rng.uniform(-1, 1, n)).handle()
    lo = rng.uniform(-1.0, 0.5, n)
    yield f, BoxDomain(lo, lo + rng.uniform(0.5, 2.0, n)), lo
    upper = rng.uniform(0.5, 2.0, n)
    # the first row caps x_1 below a third of its range, so every block whose
    # leading coordinate lies above that is wholly infeasible
    A = np.vstack([np.eye(1, n), rng.uniform(0, 1, size=(2, n))])
    b = np.concatenate([[0.3 * upper[0]], rng.uniform(0.5, 1.5, 2)])
    yield f, PolytopeDomain(A, b, upper), np.zeros(n)
    # no row binds (b >= A @ upper): every block is evaluated in place
    A = rng.uniform(0, 1, size=(2, n))
    yield f, PolytopeDomain(A, A @ upper + rng.uniform(0.0, 0.5, 2), upper), np.zeros(n)
    # a cap on the coordinate sum: blocks near the origin are wholly
    # feasible, the rest partly or not at all
    yield f, PolytopeDomain(np.ones((1, n)), [0.6 * upper.sum()], upper), np.zeros(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_grid_matches_row_major_reference_scan(n):
    rows = []
    in_place = []

    def counted(X):
        rows.append(X.shape[0])
        in_place.append(not X.flags.owndata)
        return f.value_batch(X)

    for case, (f, domain, lo) in enumerate(_grid_cases(n)):
        P = domain if isinstance(domain, PolytopeDomain) else None
        g = ObjectiveHandle(n, f.value, value_batch=counted)
        paths = set()
        for ppd in range(1, 8):
            want_x, want_v = _reference_grid_scan(f, lo, domain.upper, ppd, P)
            # sizes between whole runs give blocks of several runs whose
            # last block of each run group is partial
            chunks = {1, 7, ppd ** n + 5} | {ppd ** k for k in range(n + 1)} | \
                {2 * ppd ** k + 1 for k in range(n)} | {3 * ppd ** k - 1 for k in range(n)}
            for chunk in chunks:
                rows.clear()
                in_place.clear()
                x, v = grid_brute_force(g, domain, ppd, chunk=chunk)
                assert np.array_equal(x, want_x), (ppd, chunk)
                assert abs(v - want_v) <= 1e-12, (ppd, chunk)
                assert max(rows) <= chunk, (ppd, chunk)
                paths.update(in_place)
                if case in (0, 2):   # the box, and the polytope where no row binds
                    assert sum(rows) == ppd ** n
                    assert all(in_place), (ppd, chunk)
        if case == 3 and n > 1:
            assert paths == {True, False}   # both in-place and compressed blocks


def test_grid_constant_objective_returns_lower_corner():
    f = QuadraticInstance(np.zeros((3, 3)), np.zeros(3), 2.0).handle()
    box = BoxDomain([-1.0, 0.5, 2.0], [1.0, 1.5, 3.0])
    for chunk in (1, 7, 25, 200_000):
        x, v = grid_brute_force(f, box, 5, chunk=chunk)
        assert np.array_equal(x, box.lower) and v == 2.0


@pytest.mark.parametrize("n", [1, 3])
def test_grid_reads_a_box_as_a_polytope_without_rows(n):
    # the same point and value, bit for bit, whichever type holds [0, u]
    rng = np.random.default_rng(40 + n)
    M = rng.uniform(-1, 1, size=(n, n))
    f = QuadraticInstance((M + M.T) / 2, rng.uniform(-1, 1, n)).handle()
    upper = rng.uniform(0.5, 2.0, n)
    for chunk in (1, 7, 2 ** 14):
        x_box, v_box = grid_brute_force(f, BoxDomain(np.zeros(n), upper), 9, chunk=chunk)
        x_P, v_P = grid_brute_force(f, PolytopeDomain([], [], upper), 9, chunk=chunk)
        assert x_box.tobytes() == x_P.tobytes()
        assert np.float64(v_box).tobytes() == np.float64(v_P).tobytes()


def test_grid_rejects_nonpositive_chunk():
    f = QuadraticInstance(np.zeros((2, 2)), np.zeros(2)).handle()
    for chunk in (0, -3):
        with pytest.raises(ValueError, match="chunk"):
            grid_brute_force(f, BoxDomain([0, 0], [1, 1]), 3, chunk=chunk)


def test_grid_rejects_non_integer_sizes_by_name():
    f = QuadraticInstance(np.zeros((2, 2)), np.zeros(2)).handle()
    box = BoxDomain([0, 0], [1, 1])
    with pytest.raises(ValueError, match="points_per_dim must be a positive int, got 2.5"):
        grid_brute_force(f, box, 2.5)
    with pytest.raises(ValueError, match="points_per_dim must be a positive int, got 0"):
        grid_brute_force(f, box, 0)
    with pytest.raises(ValueError, match="chunk must be a positive int, got 2.5"):
        grid_brute_force(f, box, 3, chunk=2.5)
    with pytest.raises(ValueError, match="points_per_dim must be a positive int, got True"):
        grid_brute_force(f, box, True)


def _peaks(X):
    # 1 where x_2 is odd and x_3 == 2, else 0: on the grid 0..5 every run of
    # the trailing axis has its maximum at x_3 = 2, and equal maxima lie in
    # runs x_2 = 1, 3, 5 under every value of x_1
    return ((X[:, 1] % 2 == 1) & (X[:, 2] == 2)).astype(float)


@pytest.mark.parametrize("chunk", [6, 12, 18, 36, 216])
def test_grid_ties_across_runs_and_blocks_keep_the_earliest(chunk):
    # chunk 6: one run per block; 12 and 18: two and three runs per block, so
    # equal maxima sit in two runs of one block and in several blocks; 36: a
    # block per value of x_1; 216: the whole grid in one block
    f = ObjectiveHandle(3, lambda x: float(_peaks(np.atleast_2d(x))[0]), value_batch=_peaks)
    box = BoxDomain([0, 0, 0], [5, 5, 5])
    x, v = grid_brute_force(f, box, 6, chunk=chunk)
    assert np.array_equal(x, [0, 1, 2]) and v == 1.0


def test_grid_default_blocks_are_whole_runs_within_2_14_rows():
    rows = []

    def first_coordinate(X):
        rows.append(X.shape[0])
        return X[:, 0]

    f = ObjectiveHandle(4, lambda x: float(x[0]), value_batch=first_coordinate)
    box = BoxDomain(np.zeros(4), np.ones(4))
    # runs of 21^3 and 51^2 rows; a block takes as many whole runs as fit
    for points, run in ((21, 21 ** 3), (51, 51 ** 2)):
        rows.clear()
        x, v = grid_brute_force(f, box, points)
        assert sum(rows) == points ** 4 and max(rows) <= 2 ** 14
        assert max(rows) > 2 ** 14 - run, points
        assert np.array_equal(x, [1, 0, 0, 0]) and v == 1.0


def _grid_peak(f, box, points):
    tracemalloc.start()
    try:
        grid_brute_force(f, box, points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_peak_memory_is_one_block_of_runs():
    # the peak is one block of at most 2**14 rows and its value_batch
    # temporaries, not a block of the whole trailing grid (13.4 MiB for one
    # 194,481-row block of the 21^4 grid)
    inst, box = gen_nonmonotone_nqp(4, 0)
    for points in (21, 51):
        assert _grid_peak(inst.handle(box), box, points) <= 4 * 2 ** 20, points


# --------------------------------------------------------------- experiments

def _tiny_cfg(tmp_path, **kw):
    base = dict(experiment="nonmonotone_nqp", n=3, seeds=[0, 1], K=5,
                sweep=[1.0], methods=["double_greedy", "random_cube"],
                k_s=20, output_dir=str(tmp_path / "out"))
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_outputs(tmp_path):
    cfg = _tiny_cfg(tmp_path, grid_oracle=True, grid_points=11)
    records = run_experiment(cfg)
    out = Path(cfg.output_dir)
    assert (out / "manifest.json").exists()
    assert (out / "summary.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["methods"]) == {"double_greedy", "random_cube"}
    assert "oracle" in summary
    # summary final values equal the last trace rows
    for rec in records:
        rows = read_trace_csv(rec.trace_path)
        assert rows[-1][2] == rec.final_value
        sv = f"{rec.sweep_value:g}"
        assert rec.final_value in summary["methods"][rec.method][sv]["final_values"]
    # with the oracle enabled, every greedy run clears a third of the optimum
    for rec in records:
        if rec.method == "double_greedy":
            f_star = summary["oracle"][f"{rec.sweep_value:g}"][str(rec.instance_seed)]
            assert rec.final_value >= f_star / 3.0 - 1e-9


def test_trace_csv_header_exact(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    records = run_experiment(cfg)
    first_line = Path(records[0].trace_path).read_text().splitlines()[0]
    assert first_line == TRACE_HEADER == "iteration,t,objective,feasibility_residual"


def test_rerun_reproduces_byte_identical_csvs(tmp_path):
    cfg1 = _tiny_cfg(tmp_path / "a")
    cfg2 = _tiny_cfg(tmp_path / "b")
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    assert len(r1) == len(r2)
    for a, b in zip(r1, r2):
        assert Path(a.trace_path).read_bytes() == Path(b.trace_path).read_bytes()
    s1 = (Path(cfg1.output_dir) / "summary.json").read_bytes()
    s2 = (Path(cfg2.output_dir) / "summary.json").read_bytes()
    assert s1 == s2


# One tiny sweep per experiment, with every method that runs on it and the
# grid oracle on: the sha256 of its trace CSVs (in name order, each with its
# name) and summary.json.  Recorded before the method and experiment tables
# replaced the per-method dispatch, which was to change no output.  The two
# polytope digests were re-pinned when a zero feasibility residual stopped
# printing as "-0", the only byte change in their traces.
_SWEEP_DIGESTS = {
    "monotone_nqp": (dict(n=3, m=2), ["frank_wolfe", "random", "random_cube", "proj_grad"],
                     "09834b297644647262c6cb9be8c4dcfeff30fd7cbf1e5ce487efecc766c98d61"),
    "budget_allocation": (dict(n=3), ["frank_wolfe", "random", "random_cube", "proj_grad"],
                          "8b9dda4e529cac31ee9531a789dc6461f9870277d52ef76822a540b914053722"),
    "nonmonotone_nqp": (dict(n=4), ["double_greedy", "single_greedy", "random", "random_cube",
                                    "proj_grad"],
                        "b4fdfb6e97543db352d6b176f73301f456908418c8c351d66ebab5de19162abe"),
    "revenue": (dict(n=4), ["double_greedy", "single_greedy", "random", "random_cube"],
                "7bc8e0ea3c3109ef824e7c8a6185b0518e846c82c2d29b15b16d7fb4c2811552"),
}


@pytest.mark.parametrize("experiment", sorted(_SWEEP_DIGESTS))
def test_tiny_sweep_outputs_are_pinned(tmp_path, experiment):
    size, methods, expected = _SWEEP_DIGESTS[experiment]
    out = tmp_path / experiment
    run_experiment(ExperimentConfig(experiment=experiment, seeds=[0, 1], sweep=[0.5, 1.0],
                                    K=5, k_s=20, steps=[1e-2, 1e-1], methods=methods,
                                    grid_oracle=True, grid_points=11, output_dir=str(out),
                                    **size))
    h = hashlib.sha256()
    for p in sorted((out / "traces").glob("*.csv")) + [out / "summary.json"]:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    assert h.hexdigest() == expected


def test_failed_run_marks_manifest_and_keeps_outputs(tmp_path, monkeypatch):
    cfg = _tiny_cfg(tmp_path)
    import subcont.harness as hz

    real = hz._run_method
    calls = {"n": 0}

    def flaky(method, ctx, cfg_, seed):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise RuntimeError("synthetic failure")
        return real(method, ctx, cfg_, seed)

    monkeypatch.setattr(hz, "_run_method", flaky)
    with pytest.raises(RuntimeError, match="synthetic failure"):
        run_experiment(cfg)
    out = Path(cfg.output_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "synthetic failure" in manifest["error"]
    assert list((out / "traces").glob("*.csv"))   # partial outputs retained


def test_write_json_rejects_nan(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        _write_json(path, {"final_value": float("nan")})
    assert not path.exists()
    _write_json(path, {"final_value": 1.5})
    assert json.loads(path.read_text()) == {"final_value": 1.5}


def test_manifest_lands_before_any_result_file(tmp_path, monkeypatch):
    cfg = _tiny_cfg(tmp_path)
    import subcont.harness as hz

    def explode(method, ctx, cfg_, seed):
        raise RuntimeError("dies before producing anything")

    monkeypatch.setattr(hz, "_run_method", explode)
    with pytest.raises(RuntimeError):
        run_experiment(cfg)
    out = Path(cfg.output_dir)
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert not list((out / "traces").glob("*.csv"))
    assert not (out / "summary.json").exists()


def test_monotone_experiment_ordering(tmp_path):
    cfg = ExperimentConfig(experiment="monotone_nqp", n=3, m=1, seeds=[0, 1],
                           K=10, sweep=[0.5, 1.0], k_s=50,
                           methods=["frank_wolfe", "random", "random_cube"],
                           output_dir=str(tmp_path / "mono"))
    run_experiment(cfg)
    summary = json.loads((Path(cfg.output_dir) / "summary.json").read_text())
    for sv in ("0.5", "1"):
        fw = summary["methods"]["frank_wolfe"][sv]["mean"]
        assert fw >= summary["methods"]["random"][sv]["mean"]
        assert fw >= summary["methods"]["random_cube"][sv]["mean"]


def test_budget_and_revenue_experiments_run(tmp_path):
    cfg = ExperimentConfig(experiment="budget_allocation", n=4, seeds=[0], K=5,
                           sweep=[1.0], k_s=10, methods=["frank_wolfe", "random_cube"],
                           output_dir=str(tmp_path / "budget"))
    assert run_experiment(cfg)
    cfg = ExperimentConfig(experiment="revenue", n=5, seeds=[0], K=5, sweep=[1.0],
                           k_s=10, output_dir=str(tmp_path / "rev"))
    records = run_experiment(cfg)
    methods = {r.method for r in records}
    assert methods == {"double_greedy", "random_cube", "single_greedy"}


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="monotone_nqp", seeds=[]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="monotone_nqp", methods=["warp_drive"]).validate()
    with pytest.raises(ValueError, match="at least one method"):
        ExperimentConfig(experiment="revenue", methods=[]).validate()
    with pytest.raises(ValueError, match="positive int, got 2.5"):
        ExperimentConfig(experiment="monotone_nqp", K=2.5).validate()
    # k_s sizes the hit-and-run sample array: a float must fail here, before
    # any method of the sweep runs
    with pytest.raises(ValueError, match="k_s must be a positive int, got 2.5"):
        ExperimentConfig(experiment="monotone_nqp", k_s=2.5).validate()
    with pytest.raises(ValueError, match="k_s must be a positive int, got 0"):
        ExperimentConfig(experiment="monotone_nqp", k_s=0).validate()
    with pytest.raises(ValueError, match="choose from"):
        ExperimentConfig(experiment="property_check").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nonmonotone_nqp", n=9, grid_oracle=True).validate()
    with pytest.raises(ValueError, match="box-constrained"):
        ExperimentConfig(experiment="monotone_nqp", methods=["double_greedy"]).validate()


@pytest.mark.parametrize("experiment, mode", [
    ("monotone_nqp", None), ("budget_allocation", None),
    ("nonmonotone_nqp", QUADRATIC_MODE), ("revenue", REVENUE_MODE)])
def test_a_cell_carries_its_experiment_s_1d_mode(experiment, mode):
    # a box experiment's cell is a polytope without rows; no box method runs
    # on the others, which have no 1-D mode
    ctx = _build_instance(ExperimentConfig(experiment=experiment, n=3), 0, 1.0)
    assert ctx["mode"] == mode
    assert (mode is None) == bool(ctx["polytope"].num_rows)


@pytest.mark.parametrize("field, value", [("n", 2.5), ("n", 0), ("m", 1.5), ("m", 0),
                                          ("grid_points", 2.5), ("grid_points", 0),
                                          ("n", True), ("m", True), ("grid_points", True),
                                          ("K", True), ("k_s", True)])
def test_validate_names_a_bad_size(tmp_path, field, value):
    # a float or bool size must fail in validate, by name, before any output
    # is written, not later as an unlocated TypeError in the instance builder
    # or, for k_s, in np.empty
    for experiment in ("monotone_nqp", "nonmonotone_nqp"):
        cfg = _tiny_cfg(tmp_path, experiment=experiment, methods=["random_cube"],
                        grid_oracle=True, **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be a positive int, got {value}"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()


def test_validate_rejects_output_name_collisions(tmp_path):
    """Two cells or methods that print alike would share a trace file and a
    summary key, so the later run would silently overwrite the earlier one."""
    cases = [
        (dict(seeds=[0, 0]), "seeds 0 and 0"),
        (dict(sweep=[1.0000001, 1.0000002]), "1.0000001 and 1.0000002 share .* '1'"),
        (dict(methods=["random_cube", "random_cube"]), "'random_cube' and 'random_cube'"),
        (dict(methods=["proj_grad"], steps=[1e-4, 1.0000001e-4]),
         "'proj_grad_step0.0001' and 'proj_grad_step0.0001'"),
    ]
    for kw, message in cases:
        cfg = _tiny_cfg(tmp_path, **kw)
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg)
        assert not Path(cfg.output_dir).exists()


def test_validate_rejects_bad_proj_grad_steps(tmp_path):
    bad = [
        (dict(methods=["double_greedy", "proj_grad_stepfoo"]),
         "unknown method 'proj_grad_stepfoo'"),
        (dict(methods=["proj_grad_step0.01"]), "unknown method"),
        (dict(methods=["proj_grad_step0"]), "unknown method"),
        (dict(methods=["proj_grad_stepnan"]), "unknown method"),
        (dict(methods=["proj_grad_step"]), "unknown method"),
        (dict(methods=["frank_wolfe_step0.1"]), "unknown method"),
        (dict(methods=["proj_grad"], steps=[-0.5]), "finite and positive"),
        (dict(methods=["proj_grad"], steps=[float("inf")]), "finite and positive"),
        (dict(methods=None, steps=[]), "at least one step"),
    ]
    for kw, message in bad:
        cfg = _tiny_cfg(tmp_path, **kw)
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg)
        assert not Path(cfg.output_dir).exists()
    # without proj_grad an empty step list is fine, and each step runs named by it
    _tiny_cfg(tmp_path, steps=[]).validate()
    records = run_experiment(_tiny_cfg(tmp_path, methods=["proj_grad"], steps=[0.01]))
    assert [r.method for r in records] == ["proj_grad_step0.01"] * 2


def test_proj_grad_runs_the_configured_step_unrounded(tmp_path):
    # the run's name prints the step to six digits; the run itself must use
    # the step as configured
    step = 0.0012345678
    cfg = _tiny_cfg(tmp_path, methods=["proj_grad"], steps=[step], seeds=[0])
    (record,) = run_experiment(cfg)
    assert record.method == "proj_grad_step0.00123457"
    inst, box = gen_nonmonotone_nqp(3, 0, u_scale=1.0)
    _, trace = proj_grad_ascent(inst.handle(box), box, step, cfg.K)
    assert record.final_value == trace.final_objective


def test_proj_grad_runs_at_paper_scale(tmp_path):
    # the default monotone_nqp methods include proj_grad, so one projection
    # that fails at n=100, m=50 ends the whole run
    cfg = ExperimentConfig(experiment="monotone_nqp", n=100, m=50, K=1, seeds=[0, 1],
                           sweep=[1.0], methods=["proj_grad"], steps=[0.01],
                           output_dir=str(tmp_path / "out"))
    records = run_experiment(cfg)
    assert [r.instance_seed for r in records] == [0, 1]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    for r in records:
        rows = read_trace_csv(r.trace_path)
        assert rows[-1][2] > rows[0][2] and rows[-1][3] <= 1e-9


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_validate_names_a_bad_seed(tmp_path, seed):
    # a seed must fail in validate, by value, before the manifest is written
    cfg = _tiny_cfg(tmp_path, seeds=[0, seed])
    with pytest.raises(ValueError, match=f"seed {seed!r} must be a non-negative int"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_read_trace_csv_errors_are_located(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text("")
    with pytest.raises(ValueError, match=f"{p}:1: .*empty file"):
        read_trace_csv(p)
    p.write_text(f"{TRACE_HEADER}\n0,0,1.5,0\n1,0.5,2.5\n")
    with pytest.raises(ValueError, match=f"{p}:3: .*'1,0.5,2.5'"):
        read_trace_csv(p)
    p.write_text(f"{TRACE_HEADER}\n0,zero,1.5,0\n")
    with pytest.raises(ValueError, match=f"{p}:2: "):
        read_trace_csv(p)
    p.write_text(f"{TRACE_HEADER}\n0,0,1.5,0\n")
    assert read_trace_csv(p) == [(0, 0.0, 1.5, 0.0)]


@pytest.mark.parametrize("experiment, data, message", [
    ("monotone_nqp", "edges.tsv", "monotone_nqp reads no data file, got '.*edges.tsv'"),
    ("nonmonotone_nqp", "edges.tsv", "nonmonotone_nqp reads no data file"),
    ("budget_allocation", "missing.tsv", "data_path '.*missing.tsv' is not a file"),
    ("revenue", ".", "data_path '.*' is not a file"),
])
def test_validate_names_a_data_path_it_cannot_use(tmp_path, experiment, data, message):
    # a generated experiment would ignore the file, and a missing one would end
    # the sweep with an unlocated FileNotFoundError after the manifest
    _write(tmp_path, "# kind=influence\na\tb\t0.5\n")
    cfg = _tiny_cfg(tmp_path, experiment=experiment, methods=["random_cube"],
                    data_path=str(tmp_path / data))
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_data_path_experiment(tmp_path):
    data = tmp_path / "inf.tsv"
    lines = ["# kind=influence"]
    for s in range(3):
        for t in range(4):
            lines.append(f"s{s}\tc{t}\t0.{s + 2}{t + 1}")
    data.write_text("\n".join(lines) + "\n")
    cfg = ExperimentConfig(experiment="budget_allocation", seeds=[0], K=5,
                           sweep=[1.0], k_s=10, data_path=str(data),
                           methods=["frank_wolfe"], output_dir=str(tmp_path / "fd"))
    records = run_experiment(cfg)
    assert records[0].final_value > 0


@pytest.mark.parametrize("experiment, methods, kind, grid, message", [
    # the guard applies to the file's 8 channels, not to cfg.n = 3
    ("budget_allocation", ["frank_wolfe"], "influence", True,
     r"edges.tsv: the file gives n = 8; grid oracle guard"),
    ("revenue", ["single_greedy"], "influence", False,
     r"edges.tsv: revenue needs a '# kind=revenue' edge list, got '# kind=influence'"),
    ("budget_allocation", ["frank_wolfe"], "revenue", False,
     r"edges.tsv: budget_allocation needs a '# kind=influence' edge list, "
     r"got '# kind=revenue'"),
])
def test_validate_checks_the_data_file_before_the_manifest(tmp_path, experiment, methods,
                                                           kind, grid, message):
    edges = "".join(f"s{s}\tc{s % 3}\t0.5\n" for s in range(8))
    path = _write(tmp_path, f"# kind={kind}\n{edges}")
    cfg = _tiny_cfg(tmp_path, experiment=experiment, methods=methods, data_path=str(path),
                    grid_oracle=grid)
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_manifest_records_the_environment_and_records_cpu_time(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = _tiny_cfg(tmp_path)
    run_experiment(cfg)
    out = Path(cfg.output_dir)
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    assert env["scipy"] == scipy
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["threads"]["MKL_NUM_THREADS"] is None
    assert env["git_sha"] is None or re.fullmatch("[0-9a-f]{40}", env["git_sha"])
    records = json.loads((out / "results.json").read_text())["records"]
    assert len(records) == 4 and all(r["cpu_time"] >= 0.0 for r in records)


def test_provenance_has_no_git_sha_outside_a_checkout(tmp_path):
    shutil.copytree(Path(subcont.__file__).parent, tmp_path / "subcont")
    done = subprocess.run(
        [sys.executable, "-c",
         "from subcont.harness import _provenance; print(_provenance()['git_sha'])"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "None"
