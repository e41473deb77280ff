"""The benchmark under ``bench/`` instruments the package from outside: its
tracer swaps module attributes for wrappers by name, such as
``baselines.eval_batch``, ``solvers.linear_maximize`` and
``harness._run_method``.  One tiny traced experiment here makes a renamed
attribute or a changed signature fail with the unit tests, not only when the
benchmark runs."""
from pathlib import Path

from subcont import ExperimentConfig, PolytopeDomain, baselines, core, geometry, run_experiment
from subcont.harness import _expand_methods

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_tracer_patches_and_counts_the_package(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Recorder

    rec = Recorder(True)
    cfg = ExperimentConfig(experiment="monotone_nqp", n=3, m=1, K=5, k_s=10,
                           methods=["frank_wolfe", "random", "random_cube", "proj_grad"],
                           output_dir=str(tmp_path))
    with rec.installed():
        run_experiment(cfg)
    calls, counts = rec.spans.calls, rec.spans.counts
    assert calls["geometry.har"] > 0
    assert calls["geometry.lp"] > 0
    assert calls["geometry.proj"] > 0
    # the chain's fixed schedule: burn-in 50 n, then k samples n steps apart
    assert counts["har_steps"] == calls["geometry.har"] * (50 * 3 + 10 * 3)
    assert baselines.eval_batch is core.eval_batch   # the originals are back


def test_tracer_captures_every_expanded_method_of_every_cell(tmp_path, monkeypatch):
    # the benchmark counts operations as _expand_methods(cfg) per cell and
    # captures them through _run_method(method, ctx, cfg, seed)
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Recorder

    rec = Recorder(True)
    cfg = ExperimentConfig(experiment="nonmonotone_nqp", n=3, seeds=[0, 1], sweep=[0.5, 1.0],
                           K=5, k_s=10, methods=["double_greedy", "proj_grad", "random_cube"],
                           steps=[1e-3, 1e-2], output_dir=str(tmp_path))
    with rec.installed():
        run_experiment(cfg)
    cells: dict[int, list] = {}
    for r in rec.records:
        cells.setdefault(id(r["ctx"]), []).append(r)
    expected = _expand_methods(cfg)
    assert expected == ["double_greedy", "proj_grad_step0.001", "proj_grad_step0.01",
                        "random_cube"]
    assert len(cells) == 4
    for cell in cells.values():
        assert [r["method"] for r in cell] == expected
        assert [r["trace"].meta.get("step") for r in cell] == [None, 1e-3, 1e-2, None]


def test_tracer_counts_the_steps_the_chain_makes(monkeypatch):
    # every step finds one chord; a degenerate one flips the direction and
    # finds a second, so steps = chord calls - flips
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Recorder, layer_metrics

    calls = {"chord": 0, "flip": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(geometry, "_chord", counted("chord", geometry._chord))
    monkeypatch.setattr(geometry, "_flip_inward", counted("flip", geometry._flip_inward))
    P = PolytopeDomain([[1.0, 1.0, 0.5]], [1.0], [1.0, 0.0, 2.0])   # x_1 pinned: retries
    rec = Recorder(True)
    with rec.installed():
        baselines.hit_and_run(P, 10, 0)
    assert calls["flip"] > 0
    steps = layer_metrics(rec.spans, 1)["geometry.har_steps"][0]
    assert steps == calls["chord"] - calls["flip"]
