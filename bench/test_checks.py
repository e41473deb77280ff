"""Each output check rejects a planted fault; nothing under src/ changes.

    python3 -m pytest bench/test_checks.py

The faults are planted by swapping a package function for a faulty one for
the length of a test (pytest's monkeypatch), then running a small sweep
through the same round and check code the benchmark uses.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import subcont  # noqa: E402
from subcont import (ExperimentConfig, FWConfig, LPSolution, QuadraticInstance,  # noqa: E402
                     frank_wolfe_variant, gen_monotone_nqp)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Recorder  # noqa: E402

SEED = 7


def _small_sweep(tmp_path, methods):
    """A monotone quadratic on 6 variables and 3 rows, one budget."""
    inst, P = gen_monotone_nqp(6, 3, SEED)
    cfg = ExperimentConfig(experiment="monotone_nqp", n=6, m=3, K=20, k_s=50, seeds=[SEED],
                           sweep=[1.0], methods=methods, output_dir=str(tmp_path))
    return {"configs": [cfg], "instances": {("QuadraticInstance", SEED): inst},
            "rows": {SEED: (P.A, 1.0)}}


def _sweep_problems(w):
    rec = Recorder(tracing=False)
    with rec.installed():
        records = workloads._sweep_round(w, rec)
    assert len(records) == workloads._sweep_ops(w)
    return workloads._check_sweep(w, records)


def test_clean_sweep_passes(tmp_path):
    assert _sweep_problems(_small_sweep(tmp_path, ["frank_wolfe", "random", "random_cube"])) == []


def _lp_problems_of_fw_run():
    inst, P = gen_monotone_nqp(5, 2, SEED)
    rec = Recorder(tracing=True)
    frank_wolfe_variant(inst.handle(P.box()), P, FWConfig(K=30), oracle=rec.lp_oracle())
    assert rec.lp_samples
    return run._lp_problems(rec)


def test_lp_check_passes_the_real_oracle():
    assert _lp_problems_of_fw_run() == []


def test_lp_check_rejects_a_shifted_answer(monkeypatch):
    real = subcont.geometry.linear_maximize

    def shifted(P, c):
        sol = real(P, c)
        return LPSolution(sol.point, sol.objective + 1e-6 * (1.0 + abs(sol.objective)),
                          sol.basis)

    monkeypatch.setattr(subcont.geometry, "linear_maximize", shifted)
    problems = _lp_problems_of_fw_run()
    assert problems and all("HiGHS finds" in p for p in problems)


def test_feasibility_check_rejects_a_point_outside(tmp_path, monkeypatch):
    # the returned point moved to 1e-7 past its tightest row: past the check's
    # 1e-9, inside the harness's own 1e-6 guard
    real = subcont.harness.random_cube_baseline

    def outside(f, P, k_s, seed):
        x, _ = real(f, P, k_s, seed)
        i = int(np.argmax(P.A @ x - P.b))
        x = x + (P.b[i] - P.A[i] @ x + 1e-7) * P.A[i] / (P.A[i] @ P.A[i])
        return x, f.value(x)

    monkeypatch.setattr(subcont.harness, "random_cube_baseline", outside)
    problems = _sweep_problems(_small_sweep(tmp_path, ["random_cube"]))
    assert problems and any("violates a row constraint" in p for p in problems)


def test_value_check_rejects_a_misscaled_objective(tmp_path, monkeypatch):
    real = QuadraticInstance.value
    monkeypatch.setattr(QuadraticInstance, "value",
                        lambda self, x: real(self, x) * (1.0 + 1e-7))
    problems = _sweep_problems(_small_sweep(tmp_path, ["frank_wolfe"]))
    assert problems and all("the formula gives" in p for p in problems)


@pytest.mark.parametrize("prop", ["submodular", "coordconcave"])
def test_verdict_check_rejects_a_blind_checker(monkeypatch, prop):
    w = workloads.build_desk(SEED, Path("unused"))
    w.update(fw=w["fw"][:1], dg=w["dg"][:1])
    real = subcont.CHECKERS[prop]

    def blind(*args, **kwargs):
        report = real(*args, **kwargs)
        report.verdict = "pass"
        return report

    monkeypatch.setitem(subcont.CHECKERS, prop, blind)
    records = workloads._desk_round(w, Recorder(tracing=False))
    problems = workloads._check_desk(w, records)
    assert f"{prop}:supermodular_quadratic: checker says pass, expected fail" in problems


def test_dg_trace_check_rejects_a_dip():
    ok = np.array([1.0, 2.0, 3.0])
    assert workloads.checks.dg_trace_problem(ok, ok, 3.0, 1.0, 1.0) is None
    assert "decreases" in workloads.checks.dg_trace_problem(
        np.array([1.0, 0.5, 3.0]), ok, 3.0, 1.0, 1.0)
