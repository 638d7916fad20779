"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS line with the
measured figures, and enforces both the tolerance and the runtime budget.
"""

import math
import time

import numpy as np
import pytest

from hartree_singular import (
    DEFAULT_CONFIG,
    ModelParams,
    PowerLawTerm,
    RadialProfile,
    ValidationError,
    alternate_decay_exponent,
    critical_exponents,
    fixed_point_iterate,
    hls_conjugate,
    laplacian_power,
    log_grid,
    riesz_power,
    riesz_radial,
    sample_field,
    solve_params,
    sweep_lambda0,
    verify_solution,
)

BASE = solve_params(3, 2.5, 2.0, 2.0)


def _report(k, detail, elapsed, limit):
    print(f"[criterion {k}] PASS {detail} ({elapsed:.2f} s, limit {limit:g} s)")
    assert elapsed < limit, f"criterion {k} exceeded its {limit} s budget: {elapsed:.2f} s"


def test_criterion_1_gamma_laplacian_duality():
    # gamma(N-s-2)/gamma(N-s) * s(N-2-s) = 1 for 200 random (s, N), 0<s<N-2
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        s = float(rng.uniform(1e-3, n - 2.0 - 1e-3))
        c_lap = laplacian_power(s, n).coefficient
        c_inv = riesz_power(2.0, s + 2.0, n).coefficient
        worst = max(worst, abs(c_lap * c_inv - 1.0))
    assert worst <= 1e-10, worst
    _report(1, f"duality identity, max |err| = {worst:.2e} over 200 draws",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_quadrature_matches_closed_form():
    # riesz_radial on sampled r^-a vs riesz_power, 20 random (alpha, a), N = 3
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    at = np.geomspace(0.1, 10.0, 5)
    grid = log_grid()
    worst = 0.0
    for _ in range(20):
        alpha = float(rng.uniform(0.15, 2.8))
        a = float(rng.uniform(alpha + 0.1, 2.92))
        closed = riesz_power(alpha, a, 3)
        prof = RadialProfile.from_power(PowerLawTerm(1.0, a), grid)
        got = riesz_radial(prof, alpha, 3, at=at)
        err = float(np.max(np.abs(got.values / closed(at) - 1.0)))
        assert err <= 1e-6, (alpha, a, err)
        worst = max(worst, err)
    _report(2, f"20 random (alpha, a) within 1e-6, worst rel err = {worst:.2e}",
            time.perf_counter() - t0, 30.0)


def test_criterion_3_residual_identity_and_sweep():
    # base point within 1e-5, every accepted neighbor within 1e-4
    t0 = time.perf_counter()
    radii = (0.5, 1.0, 2.0)
    base = verify_solution(BASE, radii=radii)
    assert base.worst_deviation <= 1e-5, base.worst_deviation
    accepted = 0
    rejected = 0
    worst = 0.0
    for mu in (2.3, 2.5, 2.7):
        for p in (1.8, 2.0, 2.2):
            for q in (1.8, 2.0, 2.2):
                try:
                    params = solve_params(3, mu, p, q)
                except ValidationError:
                    rejected += 1
                    continue
                accepted += 1
                dev = verify_solution(params, radii=radii).worst_deviation
                assert dev <= 1e-4, (mu, p, q, dev)
                worst = max(worst, dev)
    assert accepted + rejected == 27
    assert accepted == 26  # only (2.3, 1.8, 1.8) violates 0 < s < N-2
    _report(3, f"base dev {base.worst_deviation:.2e} (tol 1e-5); "
               f"{accepted} accepted neighbors worst dev {worst:.2e} (tol 1e-4)",
            time.perf_counter() - t0, 120.0)


def test_criterion_4_statement_formula_fails_visibly():
    # decay from the (N-mu+2)/(p-q+1) variant is not a solution at p != q
    t0 = time.perf_counter()
    alt = alternate_decay_exponent(3, 2.5, 2.0, 1.5)
    params = ModelParams(dim=3, mu=2.5, p=2.0, q=1.5, s=alt, amplitude=1.0)
    report = verify_solution(params, radii=(0.5, 1.0, 2.0))
    deviations = np.abs(report.ratio - 1.0)
    assert np.max(deviations) > 0.1, deviations
    variation = float(np.ptp(report.ratio))
    assert variation > 1e-3, report.ratio
    _report(4, f"variant s = {alt:.6g}: max |ratio-1| = {np.max(deviations):.3f} "
               f"> 0.1 and ratio varies by {variation:.3e} across radii",
            time.perf_counter() - t0, 60.0)


def test_criterion_5_amplitude_scaling_law():
    # A -> cA multiplies lhs/rhs by c^(1-p-q)
    t0 = time.perf_counter()
    radii = (0.5, 1.0, 2.0)
    base = verify_solution(BASE, radii=radii)
    expo = 1.0 - BASE.p - BASE.q
    worst = 0.0
    for c in (0.5, 1.1, 2.0):
        scaled = verify_solution(BASE, radii=radii, amplitude=c * BASE.amplitude)
        err = float(np.max(np.abs(scaled.ratio / (base.ratio * c ** expo) - 1.0)))
        assert err <= 1e-6, (c, err)
        worst = max(worst, err)
    _report(5, f"ratio scales as c^(1-p-q) for c in {{0.5, 1.1, 2}}, "
               f"worst rel err = {worst:.2e}",
            time.perf_counter() - t0, 60.0)


def test_criterion_6_moving_plane_suite():
    # 65^3 grid over [-2, 2]^3, exact solution field, Gamma = {0}
    t0 = time.perf_counter()
    profile = PowerLawTerm(BASE.amplitude, BASE.s)
    field = sample_field(profile, [(0.0, 0.0, 0.0)], dim=3, extent=2.0, num=65)
    h = field.h
    assert h == pytest.approx(1.0 / 16.0)
    report = sweep_lambda0(field)
    assert np.all(report.lambdas < 0.0)
    assert np.all(report.sup_w_plus == 0.0)  # exact node zeros, every plane
    assert np.all(report.reverse_sup_w_plus == 0.0)
    assert report.lambda0_estimate == report.lambdas[-1]
    assert report.monotonicity_min > 0.0  # strict x1-monotonicity up to -2h
    assert report.dim_in_scope is True

    delta = 0.5
    shifted = sample_field(profile, [(-delta, 0.0, 0.0)], dim=3, extent=2.0,
                           num=65, check_centers=False)
    shifted_report = sweep_lambda0(shifted)
    assert shifted_report.lambda0_estimate is not None
    assert abs(shifted_report.lambda0_estimate - (-delta)) <= 2.0 * h
    _report(6, f"all {report.lambdas.size} planes exactly zero, lambda0 = "
               f"{report.lambda0_estimate:g}, monotonicity min = "
               f"{report.monotonicity_min:.3e}, shifted balance at "
               f"{shifted_report.lambda0_estimate:g} (target {-delta:g} +/- {2 * h:g})",
            time.perf_counter() - t0, 60.0)


def test_criterion_7_hls_and_critical_exponent_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    worst_inv = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        mu = float(rng.uniform(0.1, n - 0.1))
        t_max = n / (n - mu)
        t = 1.0 + (t_max - 1.0) * float(rng.uniform(0.05, 0.95))
        pair = hls_conjugate(t, mu, n)
        back = hls_conjugate(pair.r, mu, n)
        worst_inv = max(worst_inv, abs(back.r - t) / t)
    assert worst_inv <= 1e-12, worst_inv
    worst_crit = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        mu = float(rng.uniform(0.1, n - 0.1))
        lo, hi = critical_exponents(n, mu)
        worst_crit = max(
            worst_crit,
            abs(lo - (2.0 * n - mu) / n),
            abs(hi - (2.0 * n - mu) / (n - 2.0)),
        )
        assert 1.0 < lo < hi
    assert worst_crit <= 1e-12, worst_crit
    _report(7, f"involution max rel err {worst_inv:.2e} over 100 draws; "
               f"exponent formulas max |err| {worst_crit:.2e} over 50 draws",
            time.perf_counter() - t0, 1.0)


def test_criterion_8_fixed_point_stationarity():
    t0 = time.perf_counter()
    bound = 50.0 * DEFAULT_CONFIG.rel_tol
    _, history = fixed_point_iterate(BASE, steps=5)
    assert len(history) == 5
    assert all(step < bound for step in history), history
    _report(8, f"5 Picard steps from the exact solution, max per-step change "
               f"{max(history):.2e} < {bound:.1e}",
            time.perf_counter() - t0, 120.0)
