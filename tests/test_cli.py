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


def run_cli(*args, expect=0):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=300)
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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_take_their_mode_from_the_umask(umask, mode, tmp_path):
    # a tensor file and an envelope get the mode a plain open() gives them,
    # not the 0600 of the temporary file they are renamed from
    runs = [("model", "--model", "cp2"),
            ("search", "--dim", "4", "--hyp", "k9a0strict", "--concl", "ric", "--trials", "2")]
    for i, args in enumerate(runs):
        out = tmp_path / f"out{i}.json"
        proc = subprocess.run(CLI + [*args, "--output", str(out)], capture_output=True,
                              timeout=300, preexec_fn=lambda: os.umask(umask))
        assert proc.returncode == i, proc.stderr  # the weak search exits 1
        assert out.stat().st_mode & 0o777 == mode


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


@pytest.mark.parametrize("argv", [
    ["search", "--dim", "4", "--hyp", "k4a0.5strict", "--concl", "ric", "--trials", "2"],
    ["analyze", "--model", "cp2", "--trials", "2"],
    ["verify", "--trials", "2"],
    ["probe", "--base", "cp2", "--direction", "flat:n=4", "--steps", "2", "--iso-trials", "2"],
])
def test_negative_seed_exits_two(argv, capsys):
    assert cli.main(argv + ["--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_negative_model_seed_exits_two(capsys):
    assert cli.main(["model", "--model", "random:n=4,seed=-2"]) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


def test_conclusion_is_pic_or_ric(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--dim", "4", "--hyp", "k4a0.5strict", "--concl", "k4a0.5strict"])
    assert exc.value.code == 2
    assert "--concl" in capsys.readouterr().err


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


def test_failing_verify_exits_one_and_still_writes_its_envelope(tmp_path, capsys):
    # a bound no rounding residual meets: the check fails, it is not a usage error
    argv = ["verify", "--dim", "4", "--trials", "2", "--tol-identity", "1e-30"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
    out = tmp_path / "verify.json"
    assert cli.main([*argv, "--format", "json", "--output", str(out)]) == 1
    printed = json.loads(capsys.readouterr().out)
    assert printed["pass"] is False
    assert check_envelope(out)["results"] == printed


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
    assert curvop.ricci_min(curvop.from_dict(entry["tensor"])) == entry["conclusionValue"]
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_failed_output_write_leaves_no_counterexample_files(tmp_path, capsys):
    # the envelope path is a directory, so its one rename fails
    out = tmp_path / "d"
    out.mkdir()
    assert cli.main(["search", "--dim", "4", "--hyp", "k9a0strict", "--concl", "ric",
                     "--trials", "3", "--seed", "1", "--output", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["d"]


def test_a_rewritten_output_leaves_only_its_envelope(tmp_path):
    # the counterexample tensors live in the envelope, so a 2-trial run over
    # a 5-trial one leaves one file naming two counterexamples
    search = ("search", "--dim", "4", "--hyp", "k9a0strict", "--concl", "ric", "--seed", "1",
              "--output", str(tmp_path / "w.json"))
    assert cli.main([*search, "--trials", "5"]) == 1
    assert cli.main([*search, "--trials", "2"]) == 1
    entries = check_envelope(tmp_path / "w.json")["results"]["counterexamples"]
    assert [c["trial"] for c in entries] == [0, 1]
    assert all(c["tensor"]["dim"] == 4 for c in entries)
    assert [p.name for p in tmp_path.iterdir()] == ["w.json"]


def test_json_stdout_is_the_written_results(tmp_path, capsys):
    runs = [
        ("search", "--dim", "4", "--hyp", "k9a0strict", "--concl", "pic", "--trials", "30",
         "--seed", "123", "--pic-trials", "3"),
        ("probe", "--base", "cp2", "--direction", "flat:n=4", "--steps", "2",
         "--iso-trials", "4"),
        ("analyze", "--model", "cp2", "--trials", "4"),
        ("verify", "--dim", "5", "--trials", "3", "--model", "cp2"),
    ]
    for i, args in enumerate(runs):
        out = tmp_path / f"run{i}.json"
        cli.main([*args, "--format", "json", "--output", str(out)])
        written = capsys.readouterr().out
        # the same run without --output prints the same bytes
        cli.main([*args, "--format", "json"])
        assert capsys.readouterr().out == written
        printed = json.loads(written)
        assert printed == json.loads(out.read_text())["results"]
        for cex in printed.get("counterexamples", []):
            assert curvop.from_dict(cex["tensor"]).dim == 4
    assert json.loads((tmp_path / "run0.json").read_text())["results"]["counterexamples"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"run{i}.json" for i in range(len(runs))]


def test_envelopes_state_the_seed_and_the_normalised_config_as_run(tmp_path, capsys):
    # config is the subcommand's arguments as run, names in their normalised form
    runs = [
        (("search", "--dim", "4", "--hyp", "k4a0.50strict", "--concl", "ric", "--trials", "3",
          "--seed", "7"),
         7, {"n": 4, "hypothesis": "k4a0.5strict", "conclusion": "ric", "trials": 3, "picTrials": 5}),
        (("probe", "--base", "product:(sphere:n=4,k=1)x(flat:n=1)", "--direction", "sphere:n=5,k=1",
          "--steps", "2", "--iso-trials", "4", "--seed", "2"),
         2, {"base": "product:(sphere:n=4,k=1.0)x(flat:n=1)", "direction": "sphere:n=5,k=1.0",
             "steps": 2, "isoTrials": 4}),
        (("analyze", "--model", "cp2", "--trials", "4", "--seed", "5"), 5, {"trials": 4}),
        (("verify", "--dim", "5", "--trials", "3", "--seed", "9"),
         9, {"dim": 5, "trials": 3, "tolIdentity": 1e-08}),
    ]
    for i, (args, seed, config) in enumerate(runs):
        out = tmp_path / f"run{i}.json"
        assert cli.main([*args, "--output", str(out)]) == 0
        envelope = check_envelope(out)
        assert (envelope["seed"], envelope["config"]) == (seed, config)
    capsys.readouterr()


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


def test_probe_in_dimension_two_names_the_dimension():
    proc = run_cli("probe", "--base", "flat:n=2", "--direction", "sphere:n=2", "--steps", "2", expect=2)
    assert "need dimension >= 3, got 2" in proc.stderr


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


@pytest.mark.parametrize("model", ["flat:n=3", "flat:n=4"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_analyze_needs_a_positive_trial_count_in_every_dimension(model, trials, tmp_path, capsys):
    out = tmp_path / "analysis.json"
    assert cli.main(["analyze", "--model", model, "--trials", trials, "--output", str(out)]) == 2
    assert f"trials must be an integer in [1, inf], got {trials}" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_rejects_both_file_and_model(tmp_path):
    f = tmp_path / "t.json"
    run_cli("model", "--model", "flat:n=4", "--output", str(f))
    run_cli("analyze", str(f), "--model", "cp2", expect=2)


def test_capped_searches_show_in_text_output(capped_descent, capsys):
    assert cli.main(["search", "--dim", "5", "--hyp", "k4a0.5strict", "--concl", "pic",
                     "--trials", "3", "--pic-trials", "2"]) == 0
    assert "3 isotropic searches capped" in capsys.readouterr().out
    cli.main(["probe", "--base", "product:(sphere:n=4,k=1)x(flat:n=1)",
              "--direction", "random:n=5,seed=1", "--steps", "2", "--iso-trials", "4"])
    table = capsys.readouterr().out
    assert table.count("(search capped)") == 2
