"""End-to-end checks of the curvop command line (subprocess level)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import curvop
from curvop import cli

CLI = [sys.executable, "-c", "import curvop.cli, sys; sys.exit(curvop.cli.main())"]


def run_cli(*args, env_extra=None, expect=0):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return proc


def check_envelope(path):
    """Output files carry the full envelope; stdout carries bare results."""
    env = json.loads(path.read_text())
    assert set(env) == {"tool", "version", "seed", "config", "results"}
    assert env["tool"] == "curvop"
    assert env["version"] == curvop.__version__
    return env


def test_version_flag():
    proc = run_cli("--version")
    assert curvop.__version__ in proc.stdout


def test_model_writes_loadable_tensor_file(tmp_path):
    out = tmp_path / "cp2.json"
    proc = run_cli("model", "--model", "cp2", "--output", str(out), "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["dim"] == 4
    assert doc["convention"] == "R1212-positive-sphere"
    t = curvop.load_tensor(str(out))
    assert np.array_equal(t.array, curvop.cp2_explicit().array)


def test_model_then_analyze_pipeline(tmp_path):
    tensor_file = tmp_path / "sphere.json"
    report_file = tmp_path / "analysis.json"
    run_cli("model", "--model", "sphere:n=4,k=1", "--output", str(tensor_file))
    proc = run_cli(
        "analyze", str(tensor_file), "--trials", "5", "--seed", "4",
        "--output", str(report_file), "--format", "json",
    )
    results = json.loads(proc.stdout)
    assert results["dim"] == 4
    eigs = np.array(results["eigenvalues"])
    assert np.abs(eigs - 1.0).max() < 1e-12
    assert results["isotropicMin"] == pytest.approx(4.0, abs=1e-9)
    envelope = check_envelope(report_file)
    assert envelope["seed"] == 4
    assert envelope["results"] == results


def test_analyze_model_spec_text_output():
    proc = run_cli("analyze", "--model", "cp2", "--trials", "5")
    assert "alphaStar" in proc.stdout
    assert "ricci min" in proc.stdout
    # text mode is not JSON
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout)


def test_analyze_seed_flag_and_env_agree():
    a = run_cli("analyze", "--model", "random:n=5,seed=2", "--trials", "4",
                "--seed", "9", "--format", "json")
    b = run_cli("analyze", "--model", "random:n=5,seed=2", "--trials", "4",
                "--format", "json", env_extra={"CURV_SEED": "9"})
    assert json.loads(a.stdout) == json.loads(b.stdout)
    # the explicit flag wins over the environment
    c = run_cli("analyze", "--model", "random:n=5,seed=2", "--trials", "4",
                "--seed", "9", "--format", "json", env_extra={"CURV_SEED": "3"})
    assert json.loads(c.stdout) == json.loads(a.stdout)


def test_unparsable_seed_environment_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("CURV_SEED", "abc")
    assert cli.main(["analyze", "--model", "cp2", "--trials", "2"]) == 2
    assert "CURV_SEED" in capsys.readouterr().err
    # an explicit --seed does not need the environment
    assert cli.main(["analyze", "--model", "cp2", "--trials", "2", "--seed", "1"]) == 0


def test_verify_reports_residuals():
    proc = run_cli("verify", "--dim", "4", "--trials", "10", "--format", "json")
    results = json.loads(proc.stdout)
    assert results["pass"] is True
    assert results["casesChecked"] == 10
    assert results["suites"]["pic"] < 1e-10
    assert results["suites"]["ric"] < 1e-10
    assert results["maxResidual"] == max(results["suites"].values())


def test_verify_accepts_extra_model_case():
    proc = run_cli("verify", "--model", "cp2", "--dim", "4", "--trials", "3",
                   "--format", "json")
    results = json.loads(proc.stdout)
    assert results["casesChecked"] == 4  # the cp2 case plus three random ones
    assert results["pass"] is True


@pytest.mark.parametrize("args, message", [
    (("--dim", "2", "--trials", "3"), "dimension >= 3"),
    (("--dim", "4", "--trials", "0"), "--trials must be >= 1"),
    (("--dim", "4", "--trials", "-2"), "--trials must be >= 1"),
    (("--model", "cp2", "--trials", "-2"), "--trials must be >= 0"),
    (("--model", "flat:n=2", "--trials", "0"), "dimension >= 3"),
])
def test_verify_rejects_runs_that_check_nothing(args, message):
    proc = run_cli("verify", *args, expect=2)
    assert message in proc.stderr
    assert "PASS" not in proc.stdout


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_rejects_unusable_tolerances(tol):
    proc = run_cli("verify", "--dim", "4", "--trials", "1", f"--tol-identity={tol}", expect=2)
    assert "--tol-identity must be finite and positive" in proc.stderr
    assert "PASS" not in proc.stdout


def test_verify_checks_a_lone_tensor_with_zero_trials():
    proc = run_cli("verify", "--model", "cp2", "--trials", "0", "--format", "json")
    assert json.loads(proc.stdout)["casesChecked"] == 1


def test_search_consistent_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "search", "--dim", "4", "--hyp", "k4a0.5strict", "--concl", "ric",
        "--trials", "5", "--seed", "3", "--output", str(out), "--format", "json",
    )
    results = json.loads(proc.stdout)
    assert results["verdict"] == "consistent"
    assert results["trialsPassing"] == 5
    envelope = check_envelope(out)
    assert envelope["seed"] == 3
    assert envelope["results"]["verdict"] == "consistent"


def test_search_counterexample_exits_one(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "search", "--dim", "4", "--hyp", "k9a0strict", "--concl", "ric",
        "--trials", "3", "--seed", "123", "--output", str(out), "--format", "json",
        expect=1,
    )
    results = json.loads(proc.stdout)
    assert results["verdict"] == "counterexample"
    envelope = check_envelope(out)
    entry = envelope["results"]["counterexamples"][0]
    assert entry["tensorFile"] == "report.counterexample0.json"
    saved = curvop.load_tensor(str(tmp_path / entry["tensorFile"]))
    assert curvop.ricci_min(saved) == pytest.approx(entry["conclusionValue"], abs=1e-9)


def test_json_stdout_is_the_written_results(tmp_path, capsys):
    runs = [
        ("search", "--dim", "4", "--hyp", "k9a0strict", "--concl", "pic", "--trials", "30",
         "--seed", "123", "--pic-trials", "3"),
        ("probe", "--base", "cp2", "--direction", "flat:n=4", "--steps", "2",
         "--iso-trials", "4"),
    ]
    for i, args in enumerate(runs):
        out = tmp_path / f"run{i}.json"
        cli.main([*args, "--format", "json", "--output", str(out)])
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(out.read_text())["results"]
        for cex in printed.get("counterexamples", []):
            assert (tmp_path / cex["tensorFile"]).is_file()
    assert len(list(tmp_path.glob("run0.counterexample*.json"))) > 0


def test_probe_boundary_ok_exit_zero(tmp_path):
    out = tmp_path / "probe.json"
    proc = run_cli(
        "probe", "--base", "cp2", "--direction", "flat:n=4",
        "--steps", "2", "--iso-trials", "4", "--output", str(out), "--format", "json",
    )
    results = json.loads(proc.stdout)
    assert results["boundaryOk"] is True
    assert len(results["rows"]) == 2
    envelope = check_envelope(out)
    assert envelope["results"] == results


def test_probe_text_renders_table():
    proc = run_cli("probe", "--base", "cp2", "--direction", "flat:n=4",
                   "--steps", "2", "--iso-trials", "4")
    assert "alphaStar" in proc.stdout
    assert "boundary" in proc.stdout
    assert "[ok]" in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("model", "--model", "torus:n=4"),
        ("model", "--model", "sphere:n=0"),
        ("analyze", "/nonexistent/tensor.json"),
        ("search", "--dim", "4", "--hyp", "nonsense", "--concl", "ric"),
        ("probe", "--base", "cp2", "--direction", "flat:n=5", "--steps", "2"),
    ],
)
def test_invalid_input_exits_two(args):
    proc = run_cli(*args, expect=2)
    assert proc.stderr.strip()  # a diagnostic goes to stderr


def test_analyze_rejects_malformed_tensor_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    run_cli("analyze", str(bad), expect=2)
    bad.write_text(json.dumps({"dim": 4}))
    run_cli("analyze", str(bad), expect=2)


@pytest.mark.parametrize("dim, entries", [
    (True, []),
    (4, [{"i": 1.5, "j": 2, "k": 1, "l": 2, "v": 1.0}]),
    (4, [{"i": "1", "j": 2, "k": 1, "l": 2, "v": 1.0}]),
    (4, [{"i": True, "j": 2, "k": 1, "l": 2, "v": 1.0}]),
], ids=["dim-true", "index-1.5", "index-str", "index-true"])
def test_analyze_rejects_non_integer_dim_and_indices(dim, entries, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": dim, "entries": entries}))
    assert cli.main(["analyze", str(bad), "--trials", "2"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"dim": 4, "entries": [{"i": 1, "j": 2, "k": 1, "l": 2, "v": "1.5"}]},
    {"dim": 4, "entries": [{"i": 1, "j": 2, "k": 1, "l": 2, "v": True}]},
    {"dim": 100000, "entries": []},
], ids=["value-str", "value-true", "dim-100000"])
def test_analyze_rejects_non_numeric_values_and_oversized_dim(doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(bad), "--trials", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_rejects_both_file_and_model(tmp_path):
    f = tmp_path / "t.json"
    run_cli("model", "--model", "flat:n=4", "--output", str(f))
    run_cli("analyze", str(f), "--model", "cp2", expect=2)


def test_capped_searches_show_in_text_output(capped_descent, capsys):
    assert cli.main(["search", "--dim", "4", "--hyp", "k4a0.5strict", "--concl", "pic",
                     "--trials", "3", "--pic-trials", "2"]) == 0
    assert "3 isotropic searches capped" in capsys.readouterr().out
    cli.main(["probe", "--base", "product:(sphere:n=4,k=1)x(flat:n=1)",
              "--direction", "random:n=5,seed=1", "--steps", "2", "--iso-trials", "4"])
    table = capsys.readouterr().out
    assert table.count("(search capped)") == 2
