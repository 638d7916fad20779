"""Gamma function and Riesz normalization constant."""

import math

import numpy as np
import pytest

from hartree_singular import DomainError, gamma, riesz_gamma, sphere_area

# Frozen oracle values.
#   gamma(0.5) = sqrt(pi)
#   gamma(4.5) = 3.5 * 2.5 * 1.5 * 0.5 * sqrt(pi)   (recurrence from 0.5)
SQRT_PI = 1.7724538509055159
GAMMA_4_5 = 11.631728396567448


def test_integer_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-15)
    assert gamma(2.0) == pytest.approx(1.0, rel=1e-15)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-15)


def test_half_integer_values():
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-15)
    assert gamma(4.5) == pytest.approx(GAMMA_4_5, rel=1e-14)
    # independent recomputation of the frozen value
    assert GAMMA_4_5 == pytest.approx(3.5 * 2.5 * 1.5 * 0.5 * math.sqrt(math.pi),
                                      rel=1e-15)


def test_recurrence_property():
    rng = np.random.default_rng(20240811)
    for z in rng.uniform(0.05, 40.0, size=200):
        assert gamma(z + 1.0) == pytest.approx(z * gamma(z), rel=1e-12)


def test_duplication_property():
    # gamma(z) gamma(z + 1/2) = 2^(1-2z) sqrt(pi) gamma(2z)
    rng = np.random.default_rng(7)
    for z in rng.uniform(0.05, 10.0, size=100):
        lhs = gamma(z) * gamma(z + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * z) * math.sqrt(math.pi) * gamma(2.0 * z)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_positivity():
    rng = np.random.default_rng(99)
    for z in rng.uniform(1e-3, 60.0, size=100):
        assert gamma(z) > 0.0


def test_large_argument_keeps_full_precision():
    # 59! is exactly representable to within one rounding of the double
    assert gamma(60.0) == pytest.approx(float(math.factorial(59)), rel=1e-15)


def test_large_argument_does_not_overflow_exceptionally():
    assert gamma(200.0) > 1e300 or math.isinf(gamma(200.0))
    assert math.isinf(gamma(1e6))


def test_domain_errors():
    for bad in (0.0, -1.0, -0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            gamma(bad)


def test_riesz_gamma_newton_case():
    # gamma(2) in dimension 3 is 4*pi (Newton potential normalization)
    assert riesz_gamma(2.0, 3) == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_riesz_gamma_formula_direct():
    # direct recomputation of 2^a pi^(N/2) Gamma(a/2)/Gamma((N-a)/2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        a = float(rng.uniform(0.1, n - 0.1))
        want = 2.0 ** a * math.pi ** (n / 2.0) * gamma(a / 2.0) / gamma((n - a) / 2.0)
        assert riesz_gamma(a, n) == pytest.approx(want, rel=1e-13)


def test_riesz_gamma_window_errors():
    for bad in (0.0, -1.0, 3.0, 3.5, math.nan):
        with pytest.raises(DomainError, match=f"alpha must satisfy 0 < alpha < N=3, got alpha={bad}"):
            riesz_gamma(bad, 3)


def test_riesz_gamma_endpoint_limits():
    # diverges at the left endpoint, vanishes at the right endpoint
    assert riesz_gamma(1e-6, 3) > 1e5
    assert riesz_gamma(1e-8, 3) > riesz_gamma(1e-6, 3)
    assert riesz_gamma(3.0 - 1e-6, 3) < 1e-4
    assert riesz_gamma(3.0 - 1e-8, 3) < riesz_gamma(3.0 - 1e-6, 3)


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)


def test_sphere_area_domain():
    with pytest.raises(DomainError):
        sphere_area(1)
    with pytest.raises(DomainError):
        sphere_area(2.5)
