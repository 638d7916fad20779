"""Residual verification and fixed-point iteration around the explicit family."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hartree_singular import (
    DEFAULT_CONFIG,
    DomainError,
    IterationError,
    ModelParams,
    PowerLawTerm,
    RadialProfile,
    alternate_decay_exponent,
    fixed_point_iterate,
    log_grid,
    solve_params,
    source_profile,
    verify_solution,
)
from hartree_singular import verifier


BASE = solve_params(3, 2.5, 2.0, 2.0)


# ---------------------------------------------------------------------------
# source_profile


def test_source_profile_tails_inside_window():
    f = source_profile(BASE)
    # sp = 5/3 lies in (N - mu, N) = (0.5, 3): both tails present
    assert f.tail_inner is not None and f.tail_outer is not None
    assert f.tail_inner.exponent == pytest.approx(BASE.sp, rel=1e-14)
    assert f.tail_inner.coefficient == pytest.approx(BASE.amplitude ** BASE.p, rel=1e-14)
    r = np.array([0.3, 1.0, 4.0])
    assert f(r) == pytest.approx(BASE.amplitude ** 2 * r ** (-BASE.sp), rel=1e-12)


def test_source_profile_truncates_divergent_side():
    # a decay pushing sp above N drops the inner tail
    f = source_profile(replace(BASE, s=1.6))  # sp = 3.2 > 3
    assert f.tail_inner is None and f.tail_outer is not None
    # a decay pushing sp below N - mu drops the outer tail
    f2 = source_profile(replace(BASE, s=0.2))  # sp = 0.4 < 0.5
    assert f2.tail_inner is not None and f2.tail_outer is None


def test_source_profile_rejects_bad_overrides():
    with pytest.raises(DomainError):
        source_profile(replace(BASE, amplitude=0.0))
    with pytest.raises(DomainError):
        source_profile(replace(BASE, amplitude=-1.0))
    with pytest.raises(DomainError):
        source_profile(replace(BASE, s=math.nan))
    # the overrides pass the same ModelParams checks in verify_solution
    for override in ({"decay": math.inf}, {"amplitude": math.nan}):
        with pytest.raises(DomainError, match="must"):
            verify_solution(BASE, **override)


def test_source_profile_takes_no_overrides():
    # verify_solution is the one place that applies decay and amplitude overrides
    for override in ({"decay": 1.6}, {"amplitude": 2.0}):
        with pytest.raises(TypeError):
            source_profile(BASE, **override)


# ---------------------------------------------------------------------------
# verify_solution on the explicit family


def test_verify_base_point_is_a_solution():
    report = verify_solution(BASE, radii=(0.5, 1.0, 2.0))
    assert report.worst_deviation < 1e-5
    assert np.all(report.quadrature_error < 1e-6 * np.abs(report.rhs))
    assert report.decay == pytest.approx(BASE.s)
    assert report.amplitude == pytest.approx(BASE.amplitude)


def test_verify_second_family_point():
    params = solve_params(4, 3.0, 2.0, 2.0)
    report = verify_solution(params, radii=(0.5, 1.0, 2.0))
    assert report.worst_deviation < 1e-5


def test_verify_report_fields_consistent():
    report = verify_solution(BASE, radii=(0.5, 1.0, 2.0))
    assert report.ratio == pytest.approx(report.lhs / report.rhs, rel=1e-15)
    want_lhs = BASE.amplitude * BASE.s * (3 - 2 - BASE.s) * report.radii ** -(BASE.s + 2)
    assert report.lhs == pytest.approx(want_lhs, rel=1e-14)


def test_verify_amplitude_scaling_law():
    base = verify_solution(BASE, radii=(0.5, 1.0, 2.0))
    expo = 1.0 - BASE.p - BASE.q
    for c in (0.5, 1.1, 2.0):
        scaled = verify_solution(BASE, radii=(0.5, 1.0, 2.0),
                                 amplitude=c * BASE.amplitude)
        assert scaled.ratio == pytest.approx(base.ratio * c ** expo, rel=1e-6), c


def test_verify_decay_override_tilts_ratio():
    # u = A r^-(s + eps) makes lhs/rhs proportional to r^(eps (p+q-1))
    eps = 0.1
    report = verify_solution(BASE, radii=(0.5, 1.0, 2.0), decay=BASE.s + eps)
    slope = eps * (BASE.p + BASE.q - 1.0)
    assert report.ratio[2] / report.ratio[1] == pytest.approx(2.0 ** slope, rel=1e-4)
    assert report.ratio[1] / report.ratio[0] == pytest.approx(2.0 ** slope, rel=1e-4)


def test_verify_alternate_decay_is_not_a_solution():
    # the diagnostic variant replaces q -> -q in the exponent balance; at
    # p != q it misses the equation by an r-dependent factor. The quadruple
    # itself sits outside the accepted family (s = 1 hits the 0 < s < N-2
    # boundary), so the report is built through the raw-parameter path.
    alt = alternate_decay_exponent(3, 2.5, 2.0, 1.5)
    assert alt == pytest.approx(5.0 / 3.0, rel=1e-14)
    params = ModelParams(dim=3, mu=2.5, p=2.0, q=1.5, s=alt, amplitude=1.0)
    report = verify_solution(params, radii=(0.5, 1.0, 2.0))
    dev = np.abs(report.ratio - 1.0)
    assert np.max(dev) > 0.1
    spread = np.max(report.ratio) - np.min(report.ratio)
    assert spread > 1e-3 * max(1.0, np.max(np.abs(report.ratio)))
    # sp = 10/3 > N: the origin mass is cut off, and the report says so
    assert np.all(np.isinf(report.quadrature_error))


def test_verify_validation_errors():
    with pytest.raises(DomainError):
        verify_solution(BASE, radii=(1.0,))
    with pytest.raises(DomainError):
        verify_solution(BASE, radii=(2.0, 1.0))
    with pytest.raises(DomainError):
        verify_solution(BASE, radii=(1.0, 1.0))
    with pytest.raises(DomainError):
        verify_solution(BASE, radii=(1e-6, 1.0))  # below the working grid
    with pytest.raises(DomainError):
        verify_solution(BASE, radii=(1.0, 1e6))  # above the working grid
    small = log_grid(0.2, 5.0, 80)
    with pytest.raises(DomainError):
        verify_solution(BASE, radii=(0.5, 1.0, 4.9999), grid=small[:-1])


def test_verify_overflow_is_a_domain_error_without_warnings():
    # r^-400 overflows on the grid; r^-(s q) with q = 1e300 gives rhs = [inf, x, 0]
    # and, at A = 2, A^q = inf and inf * 0 = NaN
    huge_q = ModelParams(dim=3, mu=2.5, p=2.0, q=1e300, s=0.5, amplitude=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="profile values must be finite"):
            verify_solution(BASE, decay=200.0)
        for amplitude in (1.0, 2.0):
            with pytest.raises(DomainError, match="lhs and rhs must be finite"):
                verify_solution(huge_q, amplitude=amplitude)


# ---------------------------------------------------------------------------
# fixed-point iteration


def test_fixed_point_zero_steps():
    u, history = fixed_point_iterate(BASE, steps=0)
    assert history == []
    assert u.tail_outer.exponent == pytest.approx(BASE.s, rel=1e-14)


def test_fixed_point_exact_solution_is_stationary():
    u, history = fixed_point_iterate(BASE, steps=2)
    assert len(history) == 2
    assert all(h < 1e-6 for h in history), history
    r = np.array([0.5, 1.0, 2.0])
    assert u(r) == pytest.approx(BASE.amplitude * r ** -BASE.s, rel=1e-6)


def test_fixed_point_iteration_error_carries_step():
    # decay 0.7 s passes the entry gates but the first image has an outer
    # source exponent <= 2, which the inverse Laplacian rejects mid-loop
    bad = RadialProfile.from_power(
        PowerLawTerm(BASE.amplitude, 0.7 * BASE.s), log_grid())
    with pytest.raises(IterationError) as exc:
        fixed_point_iterate(BASE, init=bad, steps=3)
    assert exc.value.step == 0
    assert "step 0" in str(exc.value)


def test_fixed_point_iteration_stops_when_an_iterate_loses_positivity(monkeypatch):
    # an image with a zero sample fails the positivity check at the top of
    # the next step, before its powers are taken; the error carries that step
    newton = verifier.inverse_laplacian_radial

    def zero_at_one_radius(g, dim):
        v = newton(g, dim)
        values = v.values.copy()
        values[200] = 0.0
        return RadialProfile(v.radii, values, v.tail_inner, v.tail_outer)

    monkeypatch.setattr(verifier, "inverse_laplacian_radial", zero_at_one_radius)
    with pytest.raises(IterationError) as exc:
        fixed_point_iterate(BASE, steps=3)
    assert exc.value.step == 1
    assert str(exc.value) == "step 1: iterate lost positivity"


def test_fixed_point_entry_gates():
    no_tails = RadialProfile(log_grid(), np.ones(400))
    with pytest.raises(DomainError):
        fixed_point_iterate(BASE, init=no_tails, steps=1)
    # p * a_in = 3.2 >= N = 3: source not integrable at the origin
    steep = RadialProfile.from_power(PowerLawTerm(1.0, 1.6), log_grid())
    with pytest.raises(DomainError):
        fixed_point_iterate(BASE, init=steep, steps=1)
    # p * a_out = 0.4 <= alpha = 0.5: source integral diverges at infinity
    shallow = RadialProfile.from_power(PowerLawTerm(1.0, 0.2), log_grid())
    with pytest.raises(DomainError):
        fixed_point_iterate(BASE, init=shallow, steps=1)
    negative = RadialProfile.from_power(PowerLawTerm(1.0, BASE.s), log_grid())
    negative = negative.scale(-1.0)
    with pytest.raises(DomainError):
        fixed_point_iterate(BASE, init=negative, steps=1)


def test_fixed_point_parameter_validation():
    for steps in (-1, 2.5, math.inf, math.nan, True, False):
        with pytest.raises(DomainError):
            fixed_point_iterate(BASE, steps=steps)
    # the change window [0.1, 10] must hold some grid radius of the init
    far = RadialProfile.from_power(PowerLawTerm(BASE.amplitude, BASE.s),
                                   log_grid(5e4, 9e4, 40))
    with pytest.raises(DomainError, match=r"window \(0\.1, 10\.0\) contains no grid radii"):
        fixed_point_iterate(BASE, init=far, steps=1)
    # the window, the damping and the Riesz config are not parameters
    for extra in ({"window": (0.1, 10.0)}, {"damping": 0.5}, {"cfg": DEFAULT_CONFIG}):
        with pytest.raises(TypeError):
            fixed_point_iterate(BASE, steps=1, **extra)
