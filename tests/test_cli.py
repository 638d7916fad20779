"""Command-line interface: parsing, artifacts, exit codes."""

import functools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hartree_singular import (
    ModelParams,
    PowerLawTerm,
    QuadratureConfig,
    RadialProfile,
    alternate_decay_exponent,
    angular_kernel,
    critical_exponents,
    hls_conjugate,
    log_grid,
    riesz_power,
    riesz_radial,
    sample_field,
    solve_params,
    sweep_lambda0,
    verify_solution,
)
from hartree_singular.cli import main
from hartree_singular.serialize import dumps, fmt


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
    # p - q + 1 = 0: the variant decay is undefined and printed as null
    code, out, err = run(capsys, "solve-params", "--mu", "2.5", "--p", "1.5", "--q", "2.5")
    assert code == 0 and err == ""
    assert json.loads(out)["alternate_s"] is None


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


def test_non_finite_integer_flag(capsys, tmp_path):
    for argv in (("critical-exponents", "--dim", "nan", "--mu", "2.5"),
                 ("critical-exponents", "--dim", "inf", "--mu", "2.5"),
                 ("moving-plane", "--decay", "0.5", "--num", "inf"),
                 ("verify", "--mu", "2.5", "--p", "2", "--q", "2", "--grid-num", "nan")):
        code, out, err = run(capsys, *argv)
        assert code == 64 and "expects an integer" in err, argv
        assert out == ""
    for value in ("NaN", "Infinity", "1e400", '"nan"'):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"dim": {value}, "mu": 2.5}}')
        code, _, err = run(capsys, "critical-exponents", "--config", str(cfg))
        assert code == 64 and "--dim expects an integer" in err, value


def test_mutually_exclusive_verify_flags(capsys):
    code, _, err = run(capsys, "verify", "--mu", "2.5", "--p", "2", "--q", "1.5",
                       "--use-alternate-s", "--decay", "0.9")
    assert code == 64 and "mutually exclusive" in err


# every failure path: (argv, exit code, start of stderr); stdout stays empty
# except for the rejection artifact of a ValidationError
_MU = "mu must satisfy 0 < mu < N=3, got mu="
_ALPHA = "alpha must satisfy 0 < alpha < N=3, got alpha="
_FAILURES = [
    (("solve-params", "--mu", "3.5", "--p", "2", "--q", "2"), 1, "domain error: " + _MU),
    (("solve-params", "--mu", "0.5", "--p", "1", "--q", "1"), 1, "parameter set rejected: "),
    (("verify", "--mu", "0", "--p", "2", "--q", "2"), 1, "domain error: " + _MU),
    (("verify", "--mu", "3.5", "--p", "2", "--q", "2", "--decay", "0.5"), 1,
     "domain error: " + _MU),
    (("verify", "--mu", "2.5", "--p", "2", "--q", "nan", "--decay", "0.5"), 1,
     "domain error: q must be finite, got q=nan"),
    (("verify", "--mu", "2.5", "--p", "2", "--q", "2", "--decay", "200"), 1,
     "domain error: profile values must be finite"),
    (("verify", "--mu", "2.5", "--p", "2", "--q", "1e300", "--decay", "0.5"), 1,
     "domain error: lhs and rhs must be finite and rhs nonzero at every radius"),
    (("verify", "--mu", "2.5", "--p", "2", "--q", "2", "--radii", "2,1"), 1,
     "domain error: evaluation radii must be >= 2 strictly increasing positive values"),
    (("riesz", "--alpha", "3.5", "--exponent", "2.2"), 1, "domain error: " + _ALPHA),
    (("riesz", "--alpha", "nan", "--exponent", "2.2", "--numeric"), 1,
     "domain error: " + _ALPHA),
    (("moving-plane", "--mu", "3.5", "--p", "2", "--q", "2"), 1, "domain error: " + _MU),
    (("moving-plane", "--decay", "0.5", "--num", "9", "--lambdas=-inf"), 1,
     "domain error: plane lambda=-inf is not a multiple of h/2"),
    (("hls", "--t", "1.5", "--mu", "inf"), 1, "domain error: " + _MU),
    (("critical-exponents", "--mu", "-1"), 1, "domain error: " + _MU),
    (("riesz", "--alpha", "1.5", "--exponent", "2.2", "--numeric", "--radii", "1e-300,1"), 1,
     "domain error: (r/2)^N underflows at N=3 for the smallest radius r = 1e-300"),
    (("riesz", "--numeric", "--dim", "4", "--alpha", "0.12", "--exponent", "3.5"), 1,
     "domain error: alpha=0.12 is below the near-diagonal window alpha >= 0.1300 at N=4"),
    (("verify", "--dim", "4", "--mu", "3.9", "--p", "2", "--q", "2"), 1,
     "domain error: alpha=0.10000000000000009 is below the near-diagonal window alpha >= 0.1300 "
     "at N=4 (mu = N - alpha <= 3.8700)"),
    # at N = 3 delta = r e^(-t) underflowed past t = 745 and both exited 2, with warnings
    (("riesz", "--dim", "3", "--alpha", "0.05", "--exponent", "1.0", "--numeric"), 1,
     "domain error: alpha=0.05 is below the near-diagonal window at N=3 for the smallest "
     "radius r = 0.5"),
    (("verify", "--dim", "3", "--mu", "2.95", "--p", "2", "--q", "2"), 1,
     "domain error: alpha=0.04999999999999982 is below the near-diagonal window at N=3"),
    # the kernel alone is finite there, but f rho^2 K of r^-2.5 overflowed: exit 2, with warnings
    (("riesz", "--numeric", "--alpha", "0.4", "--exponent", "2.5", "--radii", "1e-100,1"), 1,
     "domain error: alpha=0.4 is below the near-diagonal window at N=3 for the smallest "
     "radius r = 1e-100: "),
    (("riesz", "--alpha", "1.5", "--exponent", "2.2", "--numeric", "--max-panels", "16",
      "--rel-tol", "1e-15"), 2, "computation failed: "),
    (("solve-params", "--mu", "2.5", "--p", "2"), 64, "missing required value --q"),
    (("riesz", "--alpha", "1.5", "--exponent", "2.2", "--numeric", "--abs-tol", "1e-12"), 64,
     "hartree-singular: unrecognized arguments: --abs-tol 1e-12"),
]


@pytest.mark.parametrize("argv, code, stderr", _FAILURES,
                         ids=[" ".join(argv) for argv, _, _ in _FAILURES])
def test_failure_paths_exit_with_their_code(capsys, argv, code, stderr):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert err.startswith(stderr) and err.endswith("\n") and "Traceback" not in err
    if err.startswith("parameter set rejected"):
        assert json.loads(out)["kind"] == "rejection"
    else:
        assert out == ""


# inside the window, where a run once failed: at N = 3 within 1e-8 of mu = 2,
# where the near kernel's difference of powers cancelled, each exited 2
_INTERIOR = [
    ("verify", "--dim", "3", "--mu", "2.000000001", "--p", "2", "--q", "2"),
    ("riesz", "--alpha", "1.000000001", "--exponent", "2", "--numeric"),
    ("riesz", "--alpha", "0.999999999", "--exponent", "2", "--numeric"),
]


@pytest.mark.parametrize("argv", _INTERIOR, ids=[" ".join(argv) for argv in _INTERIOR])
def test_window_interior_paths_exit_zero(capsys, argv):
    got, out, err = run(capsys, *argv)
    assert (got, err) == (0, "")
    doc = json.loads(out)
    if doc["kind"] == "verify-report":
        assert doc["worst_deviation"] <= 1e-13
    else:
        num = doc["numeric"]
        for value, closed, bar in zip(num["values"], num["closed_form"], num["point_errors"]):
            assert abs(value / closed - 1.0) <= bar


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


def test_verify_decay_within_gamma_margin_reports(capsys):
    # s*p = 3 - 5e-10 sits within GAMMA_MARGIN of N; the inner tail of the
    # potential is fitted instead of mapped, and the report comes out
    code, out, err = run(capsys, "verify", "--mu", "2.5", "--p", "2", "--q", "2",
                         "--decay", "1.49999999975")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["mode"] == "diagnostic"
    assert all(math.isfinite(x) for x in doc["ratio"])


def test_verify_amplitude_override_is_diagnostic(capsys):
    # an amplitude off the family is not the family solution, whatever the decay
    code, out, _ = run(capsys, "verify", "--mu", "2.5", "--p", "2", "--q", "2",
                       "--amplitude", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "diagnostic"
    assert doc["amplitude"] == 2.0
    assert doc["decay"] == pytest.approx(5.0 / 6.0, rel=1e-14)


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


def test_riesz_non_finite_radius_is_domain_error(capsys):
    code, out, err = run(capsys, "riesz", "--alpha", "1", "--exponent", "1.5", "--numeric",
                         "--radii", "0.5,inf")
    assert code == 1 and "domain error" in err
    assert out == ""


def test_riesz_unconverged_quadrature_exits_2(capsys):
    code, _, err = run(capsys, "riesz", "--alpha", "0.5", "--exponent", "2.5",
                       "--numeric", "--rel-tol", "1e-15", "--max-panels", "16")
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


def test_moving_plane_rejects_empty_center_list(capsys, tmp_path):
    # no centers means no solution to sweep; a verdict about the zero field is not a result
    code, out, err = run(capsys, *_PLANE, "--centers", "")
    assert code == 64 and "--centers" in err
    assert out == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"centers": []}')
    code, out, err = run(capsys, *_PLANE, "--config", str(cfg))
    assert code == 64 and "--centers" in err
    assert out == ""
    # ... and a point of the wrong dimension is no center either
    code, out, err = run(capsys, *_PLANE, "--centers", "0,0")
    assert code == 64 and "not 3-dimensional" in err
    assert out == ""


def test_moving_plane_rejects_bad_tolerance(capsys):
    for bad in ("--tol=nan", "--tol=-1", "--tol=inf"):
        code, out, err = run(capsys, "moving-plane", "--decay", "0.5", "--num", "17", bad)
        assert code == 1 and "domain error" in err, bad
        assert out == ""


def test_moving_plane_rejects_bad_field_inputs(capsys):
    for bad in ("--exclusion-radius=inf", "--exclusion-radius=-1", "--extent=inf"):
        code, out, err = run(capsys, "moving-plane", "--decay", "0.5", "--num", "17", bad)
        assert code == 1 and "domain error" in err, bad
        assert out == ""


def test_moving_plane_rejects_unreachable_centres_and_extents(capsys):
    # a non-finite centre or overflowing squared distances must end in one
    # domain error line, not a quiet verdict or a numpy warning and a traceback
    for bad in ("--centers=0,inf,0", "--extent=1e200"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "moving-plane", "--decay", "0.5", "--num", "9", bad)
        assert code == 1 and out == "", bad
        assert err.startswith("domain error") and err.count("\n") == 1, bad


def test_moving_plane_rejects_exclusion_balls_covering_the_grid(capsys):
    code, out, err = run(capsys, "moving-plane", "--decay", "0.5", "--num", "9",
                         "--exclusion-radius", "10")
    assert code == 1 and out == ""
    assert err.startswith("domain error") and "exclusion ball" in err


def test_moving_plane_huge_extent_gets_num_planes(capsys):
    code, out, _ = run(capsys, "moving-plane", "--decay", "0.5", "--num", "9",
                       "--extent", "1e20")
    assert code == 0
    assert len(json.loads(out)["lambdas"]) == 8


def test_threads_is_not_an_option(capsys, tmp_path):
    code, _, err = run(capsys, "moving-plane", "--decay", "0.5", "--num", "9",
                       "--threads", "2")
    assert code == 64 and "--threads" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"threads": 2}')
    code, _, err = run(capsys, "moving-plane", "--decay", "0.5", "--num", "9",
                       "--config", str(cfg))
    assert code == 64 and "threads" in err


def test_abs_tol_is_not_a_config_key(capsys, tmp_path):
    # quadrature stops at rel_tol or the rounding floor: no absolute tolerance
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"abs_tol": 1e-12}')
    code, out, err = run(capsys, "riesz", "--alpha", "1.5", "--exponent", "2.2", "--numeric",
                         "--config", str(cfg))
    assert code == 64 and "abs_tol" in err
    assert out == ""
    with pytest.raises(TypeError):
        QuadratureConfig(abs_tol=1e-12)


def test_angular_nodes_is_not_an_option(capsys, tmp_path):
    # the angular rule is fixed: point_errors has no angular term to report
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"angular_nodes": 8}')
    for argv in (["verify", "--mu", "2.5", "--p", "2", "--q", "2"],
                 ["riesz", "--alpha", "1.5", "--exponent", "2.2", "--numeric"]):
        code, _, err = run(capsys, *argv, "--angular-nodes", "8")
        assert code == 64 and "--angular-nodes" in err
        code, _, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 64 and "angular_nodes" in err
    with pytest.raises(TypeError):
        QuadratureConfig(angular_nodes=64)
    with pytest.raises(TypeError):
        angular_kernel(1.0, 0.5, 4, 2.0, nodes=64)


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
# machine output bytes: every subcommand, json and csv, against documents
# built here from the library calls with the key order and headers spelled out


def _csv_rows(header, *cols):
    lines = [header]
    lines.extend(",".join(fmt(c[i]) for c in cols) for i in range(len(cols[0])))
    return "\n".join(lines) + "\n"


def _expected_solve_params():
    prm = solve_params(3, 2.5, 2.0, 2.0)
    alt = alternate_decay_exponent(3, 2.5, 2.0, 2.0)
    doc = {"kind": "solve-params", "dim": 3, "mu": 2.5, "p": 2.0, "q": 2.0,
           "s": prm.s, "amplitude": prm.amplitude, "sp": prm.sp, "sq1": prm.sq1,
           "symmetry_window": True, "alternate_s": alt,
           "alternate_s_note": "diagnostic variant with q entering by -q; does not "
                               "satisfy the equation when p != q"}
    csv = ("key,value\nkind,solve-params\ndim,3\nmu,2.5\np,2\nq,2\n"
           f"s,{fmt(prm.s)}\namplitude,{fmt(prm.amplitude)}\nsp,{fmt(prm.sp)}\n"
           f"sq1,{fmt(prm.sq1)}\nsymmetry_window,true\nalternate_s,{fmt(alt)}\n"
           f"alternate_s_note,{doc['alternate_s_note']}\n")
    return doc, csv


def _expected_verify(dim=3, mu=2.5, q=2.0, alternate=False):
    if alternate:  # --use-alternate-s: the variant decay at amplitude 1
        decay = alternate_decay_exponent(dim, mu, 2.0, q)
        prm = ModelParams(dim=dim, mu=mu, p=2.0, q=q, s=decay, amplitude=1.0)
    else:
        prm = solve_params(dim, mu, 2.0, q)
    rep = verify_solution(prm, np.array([0.5, 1.0, 2.0]), None,
                          grid=log_grid(1e-3, 1e3, 400))
    doc = {"kind": "verify-report", "mode": "diagnostic" if alternate else "family",
           "dim": dim, "mu": mu, "p": 2.0, "q": q, "decay": rep.decay,
           "amplitude": rep.amplitude,
           "radii": rep.radii, "lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio,
           "quadrature_error": rep.quadrature_error,
           "worst_deviation": rep.worst_deviation}
    csv = _csv_rows("r,lhs,rhs,ratio,quadrature_error", rep.radii, rep.lhs, rep.rhs,
                    rep.ratio, rep.quadrature_error)
    return doc, csv


def _expected_riesz():
    term = riesz_power(1.3, 2.1, 3)
    doc = {"kind": "riesz-power", "dim": 3, "alpha": 1.3,
           "input": {"coefficient": 1.0, "exponent": 2.1},
           "output": {"coefficient": term.coefficient, "exponent": term.exponent}}
    csv = ("key,value\nkind,riesz-power\ndim,3\nalpha,1.3\ninput_coefficient,1\n"
           f"input_exponent,{fmt(2.1)}\noutput_coefficient,{fmt(term.coefficient)}\n"
           f"output_exponent,{fmt(term.exponent)}\n")
    return doc, csv


def _expected_riesz_numeric(dim=3, alpha=2.0, exponent=2.5):
    radii = np.array([0.5, 1.0, 2.0])
    term = riesz_power(alpha, exponent, dim)
    src = RadialProfile.from_power(PowerLawTerm(1.0, exponent), log_grid(1e-3, 1e3, 400))
    pot = riesz_radial(src, alpha, dim, cfg=None, at=radii)
    closed = term(radii)
    doc = {"kind": "riesz-power", "dim": dim, "alpha": alpha,
           "input": {"coefficient": 1.0, "exponent": exponent},
           "output": {"coefficient": term.coefficient, "exponent": term.exponent},
           "numeric": {"radii": radii, "values": pot.values,
                       "point_errors": pot.point_errors, "closed_form": closed}}
    csv = _csv_rows("r,value,error,closed_form", radii, pot.values, pot.point_errors,
                    closed)
    return doc, csv


def _expected_moving_plane(dim=3):
    field = sample_field(PowerLawTerm(1.0, 0.5), [[0.0] * dim], dim=dim,
                         extent=2.0, num=17)
    rep = sweep_lambda0(field)
    doc = {"kind": "moving-plane-report", "dim": dim, "num": 17, "extent": 2.0,
           "decay": 0.5, "amplitude": 1.0, "centers": [[0.0] * dim],
           "tol": rep.tol, "dim_in_scope": dim >= 3, "lambdas": rep.lambdas,
           "sup_w_plus": rep.sup_w_plus, "lambda0_estimate": rep.lambda0_estimate,
           "reverse_sup_w_plus": rep.reverse_sup_w_plus,
           "reverse_lambda0_estimate": rep.reverse_lambda0_estimate,
           "monotonicity_min": rep.monotonicity_min}
    csv = _csv_rows("lambda,sup_w_plus,reverse_sup_w_plus", rep.lambdas,
                    rep.sup_w_plus, rep.reverse_sup_w_plus)
    return doc, csv


def _expected_hls():
    r = hls_conjugate(1.5, 2.0, 3).r
    doc = {"kind": "hls-conjugate", "dim": 3, "mu": 2.0, "t": 1.5, "r": r}
    return doc, f"key,value\nkind,hls-conjugate\ndim,3\nmu,2\nt,1.5\nr,{fmt(r)}\n"


def _expected_critical():
    lo, hi = critical_exponents(3, 2.5)
    doc = {"kind": "critical-exponents", "dim": 3, "mu": 2.5, "lower": lo, "upper": hi}
    csv = (f"key,value\nkind,critical-exponents\ndim,3\nmu,2.5\nlower,{fmt(lo)}\n"
           f"upper,{fmt(hi)}\n")
    return doc, csv


_BYTE_CASES = {
    "solve-params": (("solve-params", "--mu", "2.5", "--p", "2", "--q", "2"),
                     _expected_solve_params),
    "verify": (("verify", "--mu", "2.5", "--p", "2", "--q", "2"), _expected_verify),
    "verify-n5": (("verify", "--dim", "5", "--mu", "3.5", "--p", "2", "--q", "2"),
                  functools.partial(_expected_verify, 5, 3.5)),
    "riesz": (("riesz", "--alpha", "1.3", "--exponent", "2.1"), _expected_riesz),
    "riesz-numeric": (("riesz", "--alpha", "2", "--exponent", "2.5", "--numeric",
                       "--radii", "0.5,1,2"), _expected_riesz_numeric),
    "riesz-numeric-n4": (("riesz", "--dim", "4", "--alpha", "1.5", "--exponent", "2.9",
                          "--numeric", "--radii", "0.5,1,2"),
                         functools.partial(_expected_riesz_numeric, 4, 1.5, 2.9)),
    "moving-plane": (("moving-plane", "--decay", "0.5", "--num", "17"),
                     _expected_moving_plane),
    "hls": (("hls", "--t", "1.5", "--mu", "2"), _expected_hls),
    "critical-exponents": (("critical-exponents", "--mu", "2.5"), _expected_critical),
}


@pytest.mark.parametrize("case", sorted(_BYTE_CASES))
def test_machine_output_bytes(capsys, case):
    argv, expected = _BYTE_CASES[case]
    doc, csv = expected()
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == dumps(doc) + "\n"
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    assert out == csv


# ---------------------------------------------------------------------------
# --pretty bytes: every human table, against text built here from the
# documents above, with each column's width and format spelled out


def _pretty(head, rows, *foot):
    return "\n".join([head, *rows, *foot]) + "\n"


def _pretty_solve_params():
    doc, _ = _expected_solve_params()
    return _pretty(
        "dim = 3, mu = 2.5, p = 2, q = 2", [
            f"decay exponent s   = {doc['s']:.12g}",
            f"amplitude A        = {doc['amplitude']:.12g}",
            f"s*p = {doc['sp']:.12g}   s*(q-1) = {doc['sq1']:.12g}",
            "symmetry window (N-2 < mu < N): yes",
        ],
        f"variant decay (diagnostic only): {doc['alternate_s']:.12g}")


def _pretty_verify(q=2.0, alternate=False):
    doc, _ = _expected_verify(q=q, alternate=alternate)
    rows = [f"{r:>10.4g} {lhs:>16.8g} {rhs:>16.8g} {ratio:>16.10g} {err:>10.2e}"
            for r, lhs, rhs, ratio, err in zip(doc["radii"], doc["lhs"], doc["rhs"],
                                               doc["ratio"], doc["quadrature_error"])]
    return _pretty(
        f"{'r':>10} {'lhs':>16} {'rhs':>16} {'ratio':>16} {'quad err':>10}", rows,
        f"worst |ratio - 1| = {doc['worst_deviation']:.3e}  ({doc['mode']} mode, "
        f"s = {doc['decay']:.10g}, A = {doc['amplitude']:.10g})")


def _pretty_riesz():
    doc, _ = _expected_riesz()
    out = doc["output"]
    return (f"I_1.3[1 r^-2.1] = {out['coefficient']:.12g} r^-{out['exponent']:.12g}"
            "   (dim 3)\n")


def _pretty_riesz_numeric(dim=3, alpha=2.0, exponent=2.5):
    doc, _ = _expected_riesz_numeric(dim, alpha, exponent)
    out, num = doc["output"], doc["numeric"]
    rows = [f"{r:>10.4g} {value:>16.10g} {closed:>16.10g} {err:>10.2e}"
            for r, value, closed, err in zip(num["radii"], num["values"],
                                             num["closed_form"], num["point_errors"])]
    return _pretty(
        f"I_{alpha:g}[1 r^-{exponent:g}] = {out['coefficient']:.12g} "
        f"r^-{out['exponent']:.12g}   (dim {dim})",
        [f"{'r':>10} {'numeric':>16} {'closed':>16} {'est err':>10}", *rows])


def _pretty_moving_plane(dim=3):
    doc, _ = _expected_moving_plane(dim)
    rows = [f"{lam:>10.4g} {sup:>14.4e} {rev:>14.4e}"
            for lam, sup, rev in zip(doc["lambdas"], doc["sup_w_plus"],
                                     doc["reverse_sup_w_plus"])]
    note = () if dim >= 3 else ("note: dimension below 3 is outside the symmetry statements",)
    return _pretty(
        f"{'lambda':>10} {'sup w+':>14} {'reverse sup w+':>14}", rows,
        f"lambda0 estimate: {doc['lambda0_estimate']} "
        f"(reverse {doc['reverse_lambda0_estimate']}), "
        f"monotonicity min {doc['monotonicity_min']:.4e}", *note)


def _pretty_hls():
    doc, _ = _expected_hls()
    return (f"1/t + 1/r + mu/N = 2 with t = 1.5, mu = 2, N = 3: "
            f"r = {doc['r']:.12g}\n")


def _pretty_critical():
    doc, _ = _expected_critical()
    return (f"admissible window for dim 3, mu = 2.5: ((2N-mu)/N, (2N-mu)/(N-2)) = "
            f"({doc['lower']:.12g}, {doc['upper']:.12g})\n")


_PRETTY_CASES = {
    "solve-params": (_BYTE_CASES["solve-params"][0], _pretty_solve_params),
    "verify": (_BYTE_CASES["verify"][0], _pretty_verify),
    "verify-alternate": (("verify", "--mu", "2.5", "--p", "2", "--q", "1.5",
                          "--use-alternate-s"),
                         functools.partial(_pretty_verify, 1.5, True)),
    "riesz": (_BYTE_CASES["riesz"][0], _pretty_riesz),
    "riesz-numeric": (_BYTE_CASES["riesz-numeric"][0], _pretty_riesz_numeric),
    "riesz-numeric-n4": (_BYTE_CASES["riesz-numeric-n4"][0],
                         functools.partial(_pretty_riesz_numeric, 4, 1.5, 2.9)),
    "moving-plane": (_BYTE_CASES["moving-plane"][0], _pretty_moving_plane),
    "moving-plane-2d": (("moving-plane", "--dim", "2", "--decay", "0.5", "--num", "17"),
                        functools.partial(_pretty_moving_plane, 2)),
    "hls": (_BYTE_CASES["hls"][0], _pretty_hls),
    "critical-exponents": (_BYTE_CASES["critical-exponents"][0], _pretty_critical),
}


@pytest.mark.parametrize("case", sorted(_PRETTY_CASES))
def test_pretty_output_bytes(capsys, case):
    argv, expected = _PRETTY_CASES[case]
    code, out, err = run(capsys, *argv, "--pretty")
    assert code == 0 and err == ""
    assert out == expected()


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


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, "solve-params", "--mu", "2.5", "--p", "2",
                             "--q", "2", "--output", str(target), "--pretty")
        assert code == 64 and "cannot write output file" in err, target
        assert out == ""


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


def test_bad_format_is_rejected_even_when_a_later_one_is_good(capsys):
    code, out, err = run(capsys, "critical-exponents", "--mu", "2.5",
                         "--format", "xml", "--format", "csv")
    assert code == 64 and "--format" in err and "xml" in err
    assert out == ""


_RIESZ_NUMERIC = ("riesz", "--alpha", "1", "--exponent", "1.5", "--numeric")
_PLANE = ("moving-plane", "--decay", "0.5", "--num", "9")
_CRITICAL = ("critical-exponents", "--mu", "2.5")


@pytest.mark.parametrize("argv, key, value", [
    (_RIESZ_NUMERIC, "radii", 0.5),
    (_RIESZ_NUMERIC, "radii", [True, 2]),
    (_PLANE, "centers", 5),
    (_PLANE, "centers", [["a", 0, 0]]),
    (("riesz", "--alpha", "1", "--exponent", "1.5"), "numeric", "false"),
    (_CRITICAL, "pretty", "no"),
    (_CRITICAL, "output", True),
    (_CRITICAL, "dim", True),
])
def test_config_value_of_wrong_type_is_usage_error(capfd, tmp_path, argv, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code = main([*argv, "--config", str(cfg)])
    os.fstat(1)  # a value that reached open() as a file descriptor would close stdout
    out, err = capfd.readouterr()
    assert code == 64 and "--" + key in err
    assert out == ""


@pytest.mark.parametrize("argv, flag, text, value", [
    (_PLANE, "extent", "1.5", 1.5),  # number
    (_PLANE, "extent", "1.5", "1.5"),
    (("moving-plane", "--decay", "0.5"), "num", "9", 9),  # integer
    (("moving-plane", "--decay", "0.5"), "num", "9", "9.0"),
    (_PLANE, "lambdas", "-1,-0.5", [-1, -0.5]),  # number list
    (_PLANE, "lambdas", "-1,-0.5", "-1,-0.5"),
    (_PLANE, "centers", "0,0.5,0;0,-0.5,0", [[0, 0.5, 0], [0, -0.5, 0]]),  # points
    (_PLANE, "centers", "0,0.5,0;0,-0.5,0", "0,0.5,0;0,-0.5,0"),
    (_PLANE, "pretty", None, True),  # switch
    (_PLANE, "format", "csv", "csv"),  # text
])
def test_flag_kinds_read_argv_and_config_alike(capsys, tmp_path, argv, flag, text, value):
    option = "--" + flag if text is None else f"--{flag}={text}"
    code, out, err = run(capsys, *argv, option)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: value}))
    assert (code, out, err) == run(capsys, *argv, "--config", str(cfg))
    assert code == 0 and out != ""


# ---------------------------------------------------------------------------
# console-script entry point


def _project():
    """The ``[project]`` table of this repository's ``pyproject.toml``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _write_console_script(directory, name):
    """Write the launcher an installer generates for ``[project.scripts]`` *name*.

    The entry is read from this repository's ``pyproject.toml``, so the test
    exercises the declared entry point, not whatever script an earlier install
    left on ``PATH``.
    """
    module, attr = _project()["scripts"][name].split(":")
    script = directory / name
    script.write_text(f"#!{sys.executable}\nimport sys\n"
                      f"from {module} import {attr}\nsys.exit({attr}())\n")
    script.chmod(0o755)


def test_scipy_is_a_test_dependency_only():
    project = _project()
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


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


def test_readme_examples_run(capsys):
    # each hartree-singular line of the README's sh blocks, as a module run,
    # exits 0 with numpy warnings as errors, and its library example runs
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```(sh|python)\n(.*?)```", text, re.S)
    commands = [shlex.split(line)[1:] for kind, body in blocks if kind == "sh"
                for line in body.splitlines() if line.startswith("hartree-singular ")]
    examples = [body for kind, body in blocks if kind == "python"]
    assert len(commands) == 7 and len(examples) == 1
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "hartree_singular.cli", *argv],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, (argv, proc.stderr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(examples[0], {})
    assert len(capsys.readouterr().out.splitlines()) == 4


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
import hartree_singular.cli
loaded = sorted(k for k in sys.modules if k.partition(".")[0] == "scipy")
sys.modules["scipy"] = None  # from here on any scipy import raises ImportError
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hartree_singular.cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"loaded": loaded, "runs": runs}))
"""

# one run of each of the six subcommands, and of riesz both closed and numeric
_LIGHT_COMMANDS = (
    ["critical-exponents", "--mu", "2.5"],
    ["hls", "--t", "1.5", "--mu", "2"],
    ["solve-params", "--mu", "2.5", "--p", "2", "--q", "2"],
    ["riesz", "--alpha", "1.5", "--exponent", "2.2"],
    ["moving-plane", "--decay", "0.5", "--num", "17"],
    ["verify", "--mu", "2.5", "--p", "2", "--q", "2"],
    ["riesz", "--alpha", "1.5", "--exponent", "2.2", "--numeric"],
)


def test_light_subcommands_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, about 15 ms of a cold CLI run
    script = ("import contextlib, io, json, sys\nimport hartree_singular.cli\n"
              "codes = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        codes.append(hartree_singular.cli.main(argv))\n"
              "print(json.dumps([codes, 'numpy.ma' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(_LIGHT_COMMANDS)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(_LIGHT_COMMANDS), False]


def test_light_subcommands_run_without_scipy(capsys):
    # the Gauss rules are built in numpy, so neither importing the package nor
    # running any subcommand may touch scipy, in any output form
    commands = [argv + form for argv in _LIGHT_COMMANDS
                for form in ([], ["--pretty"], ["--format", "csv"])]
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["loaded"] == []
    for argv, got in zip(commands, doc["runs"]):
        assert got == [0, *run(capsys, *argv)[1:]], argv


_NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # from here on any numpy import raises ImportError
import hartree_singular.cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hartree_singular.cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def test_algebra_subcommands_run_without_numpy(capsys):
    # the three algebra subcommands and closed-form riesz are scalar arithmetic:
    # they import no numpy, in any output form, and a rejection document and a
    # usage error also go through without it
    commands = [argv + form for argv in _LIGHT_COMMANDS[:4]
                for form in ([], ["--pretty"], ["--format", "csv"])]
    commands += [["solve-params", "--mu", "0.5", "--p", "1", "--q", "1"],
                 ["solve-params", "--mu", "2.5", "--p", "2"]]
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [code for code, _, _ in runs] == [0] * 12 + [1, 64]
    for argv, got in zip(commands, runs):
        assert got == list(run(capsys, *argv)), argv
