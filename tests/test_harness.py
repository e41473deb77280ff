import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from subcont import (BoxDomain, ExperimentConfig, ObjectiveHandle, PolytopeDomain,
                     QuadraticInstance, grid_brute_force, load_bipartite_tsv,
                     read_trace_csv, run_experiment)
from subcont.harness import TRACE_HEADER, _write_json
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


def test_load_revenue_tsv_balances_gamma_with_a_located_error(tmp_path):
    p = _write(tmp_path, "# kind=revenue\ns\tt\t1.0\ns\ts\t0.5\n")
    inst = load_bipartite_tsv(p, gamma=4.0)
    assert inst.meta["gamma_halvings"] == 4 and inst.gamma == 0.25
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_grid_matches_row_major_reference_scan(n):
    rows = []

    def counted(X):
        rows.append(X.shape[0])
        return f.value_batch(X)

    for f, domain, lo in _grid_cases(n):
        P = domain if isinstance(domain, PolytopeDomain) else None
        g = ObjectiveHandle(n, f.value, value_batch=counted)
        for ppd in range(1, 8):
            want_x, want_v = _reference_grid_scan(f, lo, domain.upper, ppd, P)
            for chunk in {1, 7, ppd ** n + 5} | {ppd ** k for k in range(n + 1)}:
                rows.clear()
                x, v = grid_brute_force(g, domain, ppd, chunk=chunk)
                assert np.array_equal(x, want_x), (ppd, chunk)
                assert abs(v - want_v) <= 1e-12, (ppd, chunk)
                assert max(rows) <= chunk, (ppd, chunk)
                if P is None:
                    assert sum(rows) == ppd ** n


def test_grid_constant_objective_returns_lower_corner():
    f = QuadraticInstance(np.zeros((3, 3)), np.zeros(3), 2.0).handle()
    box = BoxDomain([-1.0, 0.5, 2.0], [1.0, 1.5, 3.0])
    for chunk in (1, 7, 25, 200_000):
        x, v = grid_brute_force(f, box, 5, chunk=chunk)
        assert np.array_equal(x, box.lower) and v == 2.0


def test_grid_rejects_nonpositive_chunk():
    f = QuadraticInstance(np.zeros((2, 2)), np.zeros(2)).handle()
    for chunk in (0, -3):
        with pytest.raises(ValueError, match="chunk"):
            grid_brute_force(f, BoxDomain([0, 0], [1, 1]), 3, chunk=chunk)


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


def test_property_check_experiment(tmp_path):
    cfg = ExperimentConfig(experiment="property_check", function="bilinear",
                           prop="weak-dr", trials=200, seeds=[1],
                           output_dir=str(tmp_path / "pc"))
    records = run_experiment(cfg)
    payload = json.loads((Path(cfg.output_dir) / "property_report.json").read_text())
    assert payload["report"]["verdict"] == "fail"
    assert payload["report"]["witness"] is not None
    assert records[0].method == "property:weak-dr"


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
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="property_check", function="bilinear",
                         prop="nope").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nonmonotone_nqp", n=9, grid_oracle=True).validate()
    with pytest.raises(ValueError, match="box-constrained"):
        ExperimentConfig(experiment="monotone_nqp", methods=["double_greedy"]).validate()


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
