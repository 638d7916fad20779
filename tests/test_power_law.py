"""Power-law calculus, parameter solving, and exponent bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartree_singular import (
    DomainError,
    ModelParams,
    PowerLawTerm,
    ValidationError,
    alternate_decay_exponent,
    critical_exponents,
    decay_exponent,
    hls_conjugate,
    laplacian_power,
    log_grid,
    RadialProfile,
    riesz_gamma,
    riesz_power,
    solve_params,
)
from test_radial import _fd_laplacian  # the private stencil of the radial tests

# Frozen oracle values (independent quadrature of the defining integrals):
#   solve_params(3, 2.5, 2, 2)  -> s = 5/6,  A = 0.1531076580302631
#   solve_params(5, 4, 2, 1)    -> s = 3/2,  A = 0.23873241463784303
#   riesz_power(2, 2.5, 3)      -> coefficient 4 exactly
#     (shell quadrature of |x|^-2.5 / |x-y| at r = 0.5, 1, 2 gave
#      5.656854249492325, 3.999999999999999, 2.8284271247463724)
A_BASE = 0.1531076580302631
A_SECOND = 0.23873241463784303
RIESZ_ORACLE = {0.5: 5.656854249492325, 1.0: 3.999999999999999, 2.0: 2.8284271247463724}


def test_term_evaluation_and_algebra():
    t = PowerLawTerm(3.0, 1.5)
    assert t(2.0) == pytest.approx(3.0 * 2.0 ** -1.5, rel=1e-15)
    assert t.scaled(2.0).coefficient == 6.0
    sq = t.powered(2.0)
    assert (sq.coefficient, sq.exponent) == (9.0, 3.0)
    pr = t.times(PowerLawTerm(2.0, 0.5))
    assert (pr.coefficient, pr.exponent) == (6.0, 2.0)


def test_term_fractional_power_of_negative_rejected():
    with pytest.raises(DomainError):
        PowerLawTerm(-1.0, 1.0).powered(0.5)
    # integer powers of negatives are fine
    assert PowerLawTerm(-2.0, 1.0).powered(2.0).coefficient == 4.0


def test_term_nonfinite_rejected():
    with pytest.raises(DomainError):
        PowerLawTerm(math.inf, 1.0)
    with pytest.raises(DomainError):
        PowerLawTerm(1.0, math.nan)
    # a non-finite power, or one whose coefficient overflows, is rejected too
    for e in (math.inf, math.nan, 1e308):
        with pytest.raises(DomainError):
            PowerLawTerm(2.0, 1.0).powered(e)
    with pytest.raises(DomainError):
        PowerLawTerm(0.0, 1.0).powered(-1.0)


def test_laplacian_power_examples():
    t = laplacian_power(0.5, 3)
    assert t.coefficient == pytest.approx(0.25, rel=1e-15)
    assert t.exponent == 2.5
    t = laplacian_power(1.0, 5)
    assert (t.coefficient, t.exponent) == (2.0, 3.0)
    # harmonic endpoints
    assert laplacian_power(0.0, 4).coefficient == 0.0
    assert laplacian_power(2.0, 4).coefficient == 0.0
    for s in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            laplacian_power(s, 3)


def test_laplacian_power_against_finite_differences():
    # independent check of (s=1, N=5) -> 2 r^-3 through the FD Laplacian
    grid = log_grid(1e-2, 1e2, 401)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 1.0), grid)
    value, err = _fd_laplacian(prof, 1.0, 5)
    assert value == pytest.approx(2.0, rel=1e-4)


def test_riesz_power_newton_of_2_5():
    t = riesz_power(2.0, 2.5, 3)
    assert t.coefficient == pytest.approx(4.0, rel=1e-12)
    assert t.exponent == pytest.approx(0.5, rel=1e-15)
    for r, want in RIESZ_ORACLE.items():
        assert t(r) == pytest.approx(want, rel=1e-10)


def test_riesz_power_semigroup():
    # I_a I_b = I_(a+b) where all windows hold
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        a_tot = float(rng.uniform(0.4, n - 0.2))
        alpha = float(rng.uniform(0.1, a_tot - 0.2))
        beta = float(rng.uniform(0.1, a_tot - alpha - 0.1))
        exp_in = a_tot
        step1 = riesz_power(alpha, exp_in, n)
        step2 = riesz_power(beta, step1.exponent, n).scaled(step1.coefficient)
        direct = riesz_power(alpha + beta, exp_in, n)
        assert step2.exponent == pytest.approx(direct.exponent, rel=1e-14)
        assert step2.coefficient == pytest.approx(direct.coefficient, rel=1e-11)


def test_riesz_power_inverts_laplacian_coefficient():
    # gamma(N-s-2)/gamma(N-s) * s(N-2-s) = 1: composing I_2 with -Lap is the identity
    for (s, n) in ((0.5, 3), (1.3, 4), (2.9, 6)):
        lap = laplacian_power(s, n)
        inv = riesz_power(2.0, lap.exponent, n).scaled(lap.coefficient)
        assert inv.coefficient == pytest.approx(1.0, rel=1e-12)
        assert inv.exponent == pytest.approx(s, rel=1e-15)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(n=st.sampled_from([3, 4, 5, 6]), u=st.floats(-8.0, -1e-9))
def test_riesz_power_times_laplacian_coefficient_is_one_as_a_nears_alpha(n, u):
    # I_2 inverts -Lap: s(N-2-s) * gamma(N-a)/gamma(N-a+2) = 1 with s = a - 2,
    # to round-off also as a -> 2, where a - alpha is down to 1e-8 (N - 2);
    # u stops short of 0 so that N - a stays outside GAMMA_MARGIN
    a = 2.0 + (n - 2.0) * 10.0 ** u
    s = a - 2.0  # exact (Sterbenz)
    product = laplacian_power(s, n).coefficient * riesz_power(2.0, a, n).coefficient
    assert abs(product - 1.0) <= 1e-14, (n, a, product)


def test_riesz_power_window_errors():
    with pytest.raises(DomainError):
        riesz_power(2.0, 1.5, 3)  # a <= alpha
    with pytest.raises(DomainError):
        riesz_power(2.0, 3.0, 3)  # a >= N
    with pytest.raises(DomainError, match=r"alpha must satisfy 0 < alpha < N=3, got alpha=0\.0"):
        riesz_power(0.0, 1.0, 3)
    with pytest.raises(DomainError):
        riesz_power(3.0, 2.0, 3)
    # gamma argument inside the 1e-9 endpoint margin is rejected
    with pytest.raises(DomainError):
        riesz_power(2.0, 3.0 - 1e-12, 3)


def test_decay_exponent_base_case():
    s = decay_exponent(3, 2.5, 2, 2)
    assert s == pytest.approx(5.0 / 6.0, rel=1e-15)
    with pytest.raises(DomainError):
        decay_exponent(3, 2.5, 0.5, 0.4)  # p + q <= 1


def test_decay_exponent_matching_identity():
    # N - 2 + s(q-1) == 2N - mu - s p  is the exponent-matching equation
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        mu = float(rng.uniform(0.2, n - 0.2))
        p = float(rng.uniform(1.0, 3.0))
        q = float(rng.uniform(1.0, 3.0))
        s = decay_exponent(n, mu, p, q)
        assert n - 2.0 + s * (q - 1.0) == pytest.approx(2.0 * n - mu - s * p, rel=1e-12)


def test_alternate_decay_exponent():
    assert alternate_decay_exponent(3, 2.5, 2, 1.5) == pytest.approx(5.0 / 3.0, rel=1e-15)
    # the two formulas agree exactly when q = 1
    assert alternate_decay_exponent(4, 2.0, 2.5, 1.0) == decay_exponent(4, 2.0, 2.5, 1.0)
    with pytest.raises(DomainError):
        alternate_decay_exponent(3, 2.5, 1.0, 2.0)  # p - q + 1 = 0


def test_solve_params_base_case():
    pr = solve_params(3, 2.5, 2, 2)
    assert pr.s == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert pr.amplitude == pytest.approx(A_BASE, rel=1e-13)
    assert pr.symmetry_window is True
    assert pr.sp == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert pr.sq1 == pytest.approx(5.0 / 6.0, rel=1e-15)


def test_solve_params_q_equal_one():
    pr = solve_params(5, 4, 2, 1)
    assert pr.s == pytest.approx(1.5, rel=1e-15)
    assert pr.amplitude == pytest.approx(A_SECOND, rel=1e-13)
    assert pr.symmetry_window is True


def test_solve_params_deterministic():
    a = solve_params(3, 2.5, 2, 2)
    b = solve_params(3, 2.5, 2, 2)
    assert a.s == b.s and a.amplitude == b.amplitude


def test_solve_params_amplitude_law():
    # A^(p+q-1) gamma(N-mu) gamma(N-sp) / gamma(N-2+s(q-1)) = s(N-2-s)
    for (n, mu, p, q) in ((3, 2.5, 2, 2), (4, 3.0, 2, 2), (5, 4.0, 2, 1),
                          (3, 2.7, 1.8, 2.2)):
        pr = solve_params(n, mu, p, q)
        lhs = (pr.amplitude ** (p + q - 1.0)
               * riesz_gamma(n - mu, n) * riesz_gamma(n - pr.sp, n)
               / riesz_gamma(n - 2.0 + pr.sq1, n))
        assert lhs == pytest.approx(pr.s * (n - 2.0 - pr.s), rel=1e-10)


def test_solve_params_single_violation_reported():
    with pytest.raises(ValidationError) as exc:
        solve_params(3, 2.5, 1, 1)  # s = 2.5 > N-2 = 1
    violations = exc.value.violations
    assert len(violations) == 1
    assert "0 < s < N-2" in violations[0]


def test_solve_params_collects_all_violations():
    with pytest.raises(ValidationError) as exc:
        solve_params(3, 0.5, 1, 1)  # s = 4.5: several windows fail at once
    violations = exc.value.violations
    assert len(violations) >= 2
    joined = "; ".join(violations)
    assert "0 < s*p < N" in joined
    assert "0 < s < N-2" in joined
    with pytest.raises(ValidationError) as exc:
        solve_params(5, 0.5, 1, 10)  # s = 0.65, s(q-1) = 5.85 >= 2
    assert any("2-N < s*(q-1) < 2" in v for v in exc.value.violations)


def test_solve_params_preconditions():
    with pytest.raises(DomainError, match=r"mu must satisfy 0 < mu < N=3, got mu=3\.5"):
        solve_params(3, 3.5, 2, 2)  # mu >= N
    with pytest.raises(DomainError):
        solve_params(3, 0.0, 2, 2)
    with pytest.raises(DomainError):
        solve_params(3, 2.5, 0.5, 2)  # p < 1
    with pytest.raises(DomainError):
        solve_params(3, 2.5, 2, 0.5)  # q < 1
    with pytest.raises(DomainError):
        solve_params(2, 1.5, 2, 2)  # dimension below 3
    for dim in (3.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            solve_params(dim, 2.5, 2, 2)


_GOOD = dict(dim=3, mu=2.5, p=2.0, q=1.5, s=5.0 / 3.0, amplitude=1.0)


_BAD_PARAMS = [
    ("mu", 3.5, r"mu must satisfy 0 < mu < N=3, got mu=3\.5"),
    ("mu", math.nan, "mu must satisfy"),
    ("dim", 2, "dimension must be an integer >= 3"),
    ("dim", 3.5, "dimension must be an integer >= 3"),
    ("p", math.nan, "p must be finite, got p=nan"),
    ("q", math.inf, "q must be finite, got q=inf"),
    ("s", math.nan, "s must be finite, got s=nan"),
    ("amplitude", 0.0, r"amplitude must satisfy 0 < A < inf, got A=0\.0"),
    ("amplitude", -1.0, "amplitude must satisfy"),
    ("amplitude", math.inf, "amplitude must satisfy"),
    ("amplitude", math.nan, "amplitude must satisfy"),
]


@pytest.mark.parametrize("field, value, message", _BAD_PARAMS,
                         ids=[f"{field}={value}" for field, value, _ in _BAD_PARAMS])
def test_model_params_built_by_hand_are_checked(field, value, message):
    # the decay/amplitude diagnostic path builds ModelParams without solve_params
    assert ModelParams(**_GOOD).s == 5.0 / 3.0
    with pytest.raises(DomainError, match=message):
        ModelParams(**{**_GOOD, field: value})


def test_symmetry_window_flag():
    assert solve_params(3, 2.5, 2, 2).symmetry_window is True
    # mu = 0.9 < N-2 = 1: solution family exists but symmetry window fails
    pr = solve_params(3, 0.9, 3, 3)
    assert pr.symmetry_window is False


def test_symmetry_window_follows_from_dim_and_mu():
    # a hand-built point outside (N-2, N) cannot claim the window
    assert ModelParams(**{**_GOOD, "mu": 0.5}).symmetry_window is False
    assert ModelParams(**_GOOD).symmetry_window is True
    with pytest.raises(TypeError):
        ModelParams(**_GOOD, symmetry_window=True)


def test_critical_exponents_values():
    lo, hi = critical_exponents(3, 2.5)
    assert lo == pytest.approx(7.0 / 6.0, rel=1e-15)
    assert hi == pytest.approx(3.5, rel=1e-15)
    with pytest.raises(DomainError):
        critical_exponents(3, 3.0)
    with pytest.raises(DomainError, match=r"mu must satisfy 0 < mu < N=3, got mu=0\.0"):
        critical_exponents(3, 0.0)


def test_hls_conjugate_example():
    pair = hls_conjugate(2.0, 2.5, 3)
    assert pair.r == pytest.approx(1.5, rel=1e-15)
    assert 1.0 / pair.t + 1.0 / pair.r + pair.mu / pair.dim == pytest.approx(2.0, rel=1e-14)


def test_hls_self_conjugate_point():
    # t = 2N/(2N - mu) is the fixed point of the conjugacy
    n, mu = 3, 1.8
    t = 2.0 * n / (2.0 * n - mu)
    pair = hls_conjugate(t, mu, n)
    assert pair.r == pytest.approx(t, rel=1e-14)


def test_hls_involution_property():
    rng = np.random.default_rng(17)
    count = 0
    while count < 60:
        n = int(rng.integers(3, 8))
        t = float(rng.uniform(1.01, 6.0))
        mu = float(rng.uniform(0.05, n - 0.05))
        try:
            pair = hls_conjugate(t, mu, n)
        except DomainError:
            continue
        back = hls_conjugate(pair.r, mu, n)
        assert back.r == pytest.approx(t, rel=1e-12)
        count += 1


def test_hls_side_condition_rejections():
    with pytest.raises(DomainError) as exc:
        hls_conjugate(1.0, 2.5, 3)
    assert "must exceed 1" in str(exc.value)
    with pytest.raises(DomainError) as exc:
        hls_conjugate(100.0, 0.01, 3)  # forces r <= 1
    assert "must exceed 1" in str(exc.value)
    with pytest.raises(DomainError, match=r"mu must satisfy 0 < mu < N=3, got mu=3\.0"):
        hls_conjugate(2.0, 3.0, 3)  # mu at the endpoint
