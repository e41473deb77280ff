import json

import pytest

from subcont import ExperimentConfig, PropertyReport
from subcont import cli
from subcont.cli import main
from subcont.properties import DEFAULT_TOL


def test_cli_run_experiment(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--experiment", "nonmonotone_nqp", "--n", "3",
                 "--seeds", "2", "--K", "5", "--sweep", "1.0",
                 "--methods", "double_greedy,random_cube", "--ks", "10",
                 "--out", str(out)])
    assert code == 0
    assert (out / "manifest.json").exists()
    assert (out / "summary.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [0, 1]


def test_cli_check_pass_and_fail(capsys):
    code = main(["check", "--function", "nonmonotone_nqp", "--property",
                 "submodular", "--trials", "200", "--seed", "0"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["report"]["verdict"] == "pass"

    code = main(["check", "--function", "bilinear", "--property", "submodular",
                 "--trials", "200", "--seed", "0"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["report"]["verdict"] == "fail"
    assert payload["report"]["witness"] is not None


def test_cli_check_tsv_path(tmp_path, capsys):
    data = tmp_path / "edges.tsv"
    data.write_text("# kind=influence\na\tb\t0.5\na\tc\t0.25\n")
    code = main(["check", "--function", str(data), "--property", "monotone",
                 "--trials", "100", "--seed", "0"])
    assert code == 0


def test_cli_oracle(capsys):
    code = main(["oracle", "--function", "nonmonotone_nqp", "--n", "3",
                 "--grid", "11", "--seed", "0"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["x_star"]) == 3
    assert payload["f_star"] >= 0.0


def test_cli_seed_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SUBCONT_SEED", "7")
    out = tmp_path / "env"
    code = main(["run", "--experiment", "nonmonotone_nqp", "--n", "3",
                 "--seeds", "2", "--K", "5", "--sweep", "1.0",
                 "--methods", "double_greedy", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [7, 8]


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_cli_names_a_bad_seed_variable(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("SUBCONT_SEED", value)
    code = main(["run", "--experiment", "nonmonotone_nqp", "--n", "3",
                 "--out", str(tmp_path / "bad")])
    assert code == 1
    assert f"error: SUBCONT_SEED must be an int, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_cli_error_exit_code(tmp_path, capsys):
    # property certificates run through `subcont check`, not as an experiment
    for name in ("warp", "property_check"):
        code = main(["run", "--experiment", name, "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: unknown experiment '{name}'; choose from ['monotone_nqp'" in err


def test_cli_rejects_a_negative_seed_base(tmp_path, capsys):
    out = tmp_path / "neg"
    code = main(["run", "--experiment", "nonmonotone_nqp", "--n", "3",
                 "--seed-base", "-3", "--out", str(out)])
    assert code == 1
    assert "error: seed -3 must be a non-negative int" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, message", [
    ("monotone_nqp", "error: monotone_nqp reads no data file, got 'nope.tsv'"),
    ("budget_allocation", "error: data_path 'nope.tsv' is not a file"),
])
def test_cli_rejects_a_data_file_it_cannot_use(tmp_path, capsys, experiment, message):
    out = tmp_path / "data"
    code = main(["run", "--experiment", experiment, "--n", "3", "--data", "nope.tsv",
                 "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_without_flags_builds_the_default_config(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SUBCONT_SEED", raising=False)
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or [])
    out = str(tmp_path / "defaults")
    assert main(["run", "--experiment", "monotone_nqp", "--out", out]) == 0
    assert seen == [ExperimentConfig(experiment="monotone_nqp", output_dir=out)]


def test_cli_run_passes_each_flag_to_its_config_field(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SUBCONT_SEED", raising=False)
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or [])
    out = str(tmp_path / "flags")
    assert main(["run", "--experiment", "budget_allocation", "--n", "5", "--m", "3",
                 "--K", "7", "--seeds", "2", "--seed-base", "4", "--ks", "11",
                 "--steps", "0.5,2", "--sweep", "1,3", "--methods", "frank_wolfe,random",
                 "--grid-oracle", "--grid", "9", "--data", "e.tsv", "--out", out]) == 0
    assert seen == [ExperimentConfig(
        experiment="budget_allocation", n=5, m=3, K=7, seeds=[4, 5], k_s=11,
        steps=[0.5, 2.0], sweep=[1.0, 3.0], methods=["frank_wolfe", "random"],
        grid_oracle=True, grid_points=9, data_path="e.tsv", output_dir=out)]


def test_cli_check_defaults_to_the_checkers_tolerance(monkeypatch, capsys):
    seen = []

    def spy(f, box, trials, tol, seed):
        seen.append(tol)
        return PropertyReport("pass", trials, 0.0, None, tol)
    monkeypatch.setitem(cli.CHECKERS, "monotone", spy)
    assert main(["check", "--function", "nonmonotone_nqp", "--property", "monotone"]) == 0
    assert seen == [DEFAULT_TOL]


@pytest.mark.parametrize("flag, value", [("--steps", "1,x"), ("--sweep", "0.5,,y")])
def test_cli_run_rejects_a_malformed_list(tmp_path, capsys, flag, value):
    out = tmp_path / "bad"
    code = main(["run", "--experiment", "nonmonotone_nqp", flag, value, "--out", str(out)])
    assert code == 1
    assert "error: could not convert string to float" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["check", "--function", "facility", "--property", "submodular", "--trials", "50"],
    ["oracle", "--function", "facility", "--n", "2", "--grid", "5"],
])
def test_cli_reads_a_family_name_past_a_directory_of_that_name(tmp_path, monkeypatch,
                                                               capsys, args):
    # only a file is read as an edge list; a directory named like the family is not
    monkeypatch.chdir(tmp_path)
    (tmp_path / "facility").mkdir()
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["function"] == "facility"
