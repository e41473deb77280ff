import json

import pytest

from subcont.cli import main


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
