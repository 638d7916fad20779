"""Command-line interface: parsing, artifacts, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hartree_singular.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve-params


def test_solve_params_json(capsys):
    code, out, err = run(capsys, "solve-params", "--mu", "2.5", "--p", "2", "--q", "2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["kind"] == "solve-params"
    assert doc["s"] == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert doc["amplitude"] == pytest.approx(0.1531076580302631, rel=1e-12)
    assert doc["symmetry_window"] is True
    assert doc["alternate_s"] == pytest.approx(2.5, rel=1e-14)
    assert "diagnostic" in doc["alternate_s_note"]


def test_solve_params_reruns_byte_identical(capsys):
    args = ("solve-params", "--mu", "2.5", "--p", "2.0", "--q", "2.0")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_solve_params_rejection_artifact(capsys):
    code, out, err = run(capsys, "solve-params", "--mu", "0.5", "--p", "1", "--q", "1")
    assert code == 1
    assert "rejected" in err
    doc = json.loads(out)
    assert doc["kind"] == "rejection" and doc["valid"] is False
    assert len(doc["violations"]) >= 2
    assert any("0 < s < N-2" in v for v in doc["violations"])


def test_solve_params_pretty(capsys):
    code, out, _ = run(capsys, "solve-params", "--mu", "2.5", "--p", "2", "--q", "2",
                       "--pretty")
    assert code == 0
    assert "decay exponent" in out and "amplitude" in out


def test_solve_params_csv(capsys):
    code, out, _ = run(capsys, "solve-params", "--mu", "2.5", "--p", "2", "--q", "2",
                       "--format", "csv")
    assert code == 0
    keys = [line.split(",")[0] for line in out.splitlines()]
    assert "s" in keys and "amplitude" in keys


# ---------------------------------------------------------------------------
# usage errors -> 64


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "solve-params", "--mu", "2.5", "--p", "2")
    assert code == 64 and "--q" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "no-such-thing")
    assert code == 64 and err != ""


def test_no_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == 64 and "subcommand" in err


def test_malformed_number(capsys):
    code, _, err = run(capsys, "solve-params", "--mu", "abc", "--p", "2", "--q", "2")
    assert code == 64 and "abc" in err


def test_mutually_exclusive_verify_flags(capsys):
    code, _, err = run(capsys, "verify", "--mu", "2.5", "--p", "2", "--q", "1.5",
                       "--use-alternate-s", "--decay", "0.9")
    assert code == 64 and "mutually exclusive" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_family_mode(capsys):
    code, out, _ = run(capsys, "verify", "--mu", "2.5", "--p", "2", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "verify-report" and doc["mode"] == "family"
    assert doc["worst_deviation"] < 1e-5
    assert doc["radii"] == [0.5, 1.0, 2.0]


def test_verify_alternate_mode_fails_loudly(capsys):
    code, out, _ = run(capsys, "verify", "--mu", "2.5", "--p", "2", "--q", "1.5",
                       "--use-alternate-s")
    assert code == 0  # the report is produced; the numbers show the failure
    doc = json.loads(out)
    assert doc["mode"] == "diagnostic"
    assert doc["decay"] == pytest.approx(5.0 / 3.0, rel=1e-14)
    assert doc["amplitude"] == 1.0
    assert doc["worst_deviation"] > 0.1
    assert all(math.isinf(e) for e in doc["quadrature_error"])


def test_verify_rejects_bad_family(capsys):
    code, out, _ = run(capsys, "verify", "--mu", "0.5", "--p", "1", "--q", "1")
    assert code == 1
    assert json.loads(out)["kind"] == "rejection"


# ---------------------------------------------------------------------------
# riesz


def test_riesz_closed_form(capsys):
    code, out, _ = run(capsys, "riesz", "--alpha", "2", "--exponent", "2.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["output"]["coefficient"] == pytest.approx(4.0, rel=1e-12)
    assert doc["output"]["exponent"] == pytest.approx(0.5, rel=1e-14)


def test_riesz_numeric_matches_closed_form(capsys):
    code, out, _ = run(capsys, "riesz", "--alpha", "2", "--exponent", "2.5",
                       "--numeric", "--radii", "0.5,1,2")
    assert code == 0
    doc = json.loads(out)
    vals = doc["numeric"]["values"]
    closed = doc["numeric"]["closed_form"]
    assert vals == pytest.approx(closed, rel=1e-7)


def test_riesz_out_of_window_is_domain_error(capsys):
    code, _, err = run(capsys, "riesz", "--alpha", "2", "--exponent", "1.5")
    assert code == 1 and "domain error" in err


def test_riesz_unconverged_quadrature_exits_2(capsys):
    code, _, err = run(capsys, "riesz", "--alpha", "0.5", "--exponent", "2.5",
                       "--numeric", "--rel-tol", "1e-15", "--abs-tol", "1e-300",
                       "--max-panels", "16")
    assert code == 2 and "computation failed" in err


# ---------------------------------------------------------------------------
# moving-plane


def test_moving_plane_direct_decay(capsys):
    code, out, _ = run(capsys, "moving-plane", "--decay", "0.5", "--num", "17")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "moving-plane-report"
    assert doc["dim_in_scope"] is True
    assert all(s == 0.0 for s in doc["sup_w_plus"])
    # every plane passes, so the estimate is the last sampled plane
    assert doc["lambda0_estimate"] == doc["lambdas"][-1] == pytest.approx(-0.125)
    assert doc["monotonicity_min"] > 0.0


def test_moving_plane_rejects_bad_tolerance(capsys):
    for bad in ("--tol=nan", "--tol=-1", "--tol=inf"):
        code, out, err = run(capsys, "moving-plane", "--decay", "0.5", "--num", "17", bad)
        assert code == 1 and "domain error" in err, bad
        assert out == ""


def test_threads_is_not_an_option(capsys, tmp_path):
    code, _, err = run(capsys, "moving-plane", "--decay", "0.5", "--num", "9",
                       "--threads", "2")
    assert code == 64 and "--threads" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"threads": 2}')
    code, _, err = run(capsys, "moving-plane", "--decay", "0.5", "--num", "9",
                       "--config", str(cfg))
    assert code == 64 and "threads" in err


def test_moving_plane_family_triple(capsys):
    code, out, _ = run(capsys, "moving-plane", "--mu", "2.5", "--p", "2", "--q", "2",
                       "--num", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["decay"] == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert doc["amplitude"] == pytest.approx(0.1531076580302631, rel=1e-12)


def test_moving_plane_two_dimensional_smoke(capsys):
    code, out, _ = run(capsys, "moving-plane", "--dim", "2", "--decay", "0.5",
                       "--num", "17", "--pretty")
    assert code == 0
    assert "outside the symmetry statements" in out


def test_moving_plane_requires_decay_or_triple(capsys):
    code, _, err = run(capsys, "moving-plane", "--num", "9")
    assert code == 64 and "--decay" in err


def test_moving_plane_custom_center_and_lambdas(capsys):
    code, out, _ = run(capsys, "moving-plane", "--decay", "0.5", "--num", "17",
                       "--centers", "0,0.5,0;0,-0.5,0", "--lambdas=-1.0,-0.5,-0.25")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambdas"] == [-1.0, -0.5, -0.25]
    assert all(s == 0.0 for s in doc["sup_w_plus"])


# ---------------------------------------------------------------------------
# hls / critical-exponents


def test_hls_conjugate(capsys):
    code, out, _ = run(capsys, "hls", "--t", "1.5", "--mu", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == pytest.approx(1.5, rel=1e-12)


def test_hls_domain_error(capsys):
    code, _, err = run(capsys, "hls", "--t", "1", "--mu", "2")
    assert code == 1 and "domain error" in err


def test_critical_exponents(capsys):
    code, out, _ = run(capsys, "critical-exponents", "--mu", "2.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == pytest.approx(7.0 / 6.0, rel=1e-14)
    assert doc["upper"] == pytest.approx(3.5, rel=1e-14)


# ---------------------------------------------------------------------------
# output files, config files, precedence


def test_output_file_gets_machine_format(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "solve-params", "--mu", "2.5", "--p", "2", "--q", "2",
                       "--output", str(target))
    assert code == 0
    assert out == ""  # nothing on stdout without --pretty
    doc = json.loads(target.read_text())
    assert doc["kind"] == "solve-params"


def test_output_file_with_pretty_table_on_stdout(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "solve-params", "--mu", "2.5", "--p", "2", "--q", "2",
                       "--output", str(target), "--pretty")
    assert code == 0
    assert "decay exponent" in out
    assert json.loads(target.read_text())["kind"] == "solve-params"


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mu": 2.5, "p": 2.0, "q": 2.0}')
    code, out, _ = run(capsys, "solve-params", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["s"] == pytest.approx(5.0 / 6.0, rel=1e-14)


def test_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mu": 2.5, "p": 2.0, "q": 2.0}')
    code, out, _ = run(capsys, "solve-params", "--config", str(cfg), "--mu", "2.7")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == 2.7
    assert doc["s"] == pytest.approx(2.3 / 3.0, rel=1e-14)


def test_config_unknown_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}')
    code, _, err = run(capsys, "solve-params", "--config", str(cfg),
                       "--mu", "2.5", "--p", "2", "--q", "2")
    assert code == 64 and "bogus" in err


def test_config_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, "solve-params", "--config", str(tmp_path / "nope.json"),
                       "--mu", "2.5", "--p", "2", "--q", "2")
    assert code == 64 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve-params", "--config", str(bad),
                       "--mu", "2.5", "--p", "2", "--q", "2")
    assert code == 64 and "valid JSON" in err
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    code, _, err = run(capsys, "solve-params", "--config", str(arr),
                       "--mu", "2.5", "--p", "2", "--q", "2")
    assert code == 64 and "JSON object" in err


def test_config_can_set_format(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"format": "csv", "mu": 2.5, "p": 2.0, "q": 2.0}')
    code, out, _ = run(capsys, "solve-params", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert any(line.startswith("s,") for line in out.splitlines())


# ---------------------------------------------------------------------------
# console-script entry point


def _write_console_script(directory, name):
    """Write the launcher an installer generates for ``[project.scripts]`` *name*.

    The entry is read from this repository's ``pyproject.toml``, so the test
    exercises the declared entry point, not whatever script an earlier install
    left on ``PATH``.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, attr = entry.split(":")
    script = directory / name
    script.write_text(f"#!{sys.executable}\nimport sys\n"
                      f"from {module} import {attr}\nsys.exit({attr}())\n")
    script.chmod(0o755)


def test_console_script_runs(tmp_path):
    _write_console_script(tmp_path, "hartree-singular")
    env = dict(os.environ,
               PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]))
    proc = subprocess.run(
        ["hartree-singular", "solve-params", "--mu", "2.5", "--p", "2", "--q", "2"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["s"] == pytest.approx(5.0 / 6.0, rel=1e-14)


def test_module_invocation_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hartree_singular.cli", "critical-exponents",
         "--mu", "2.0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["upper"] == pytest.approx(4.0)
