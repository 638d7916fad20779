"""Radial quadrature: angular kernel, Riesz potential, inverse Laplacian."""

import itertools
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import gamma, hyp2f1, poch, roots_jacobi, roots_legendre

from hartree_singular import (
    ConvergenceError,
    DomainError,
    PowerLawTerm,
    QuadratureConfig,
    RadialProfile,
    angular_kernel,
    inverse_laplacian_radial,
    laplacian_power,
    log_grid,
    riesz_power,
    riesz_radial,
    sphere_area,
)
from hartree_singular import radial_quadrature
from hartree_singular.radial_quadrature import (
    _gauss_kronrod,
    _gauss_points,
    _kernel_near,
    _kernel_sep,
    _kernel_series,
    _pchip,
    _profile_table,
    _tail_piece,
)

# Frozen oracle values.
#   K(1, 1; N=4, mu=1) = 16*pi/3 (Beta closed form, checked against direct
#   quadrature of the sphere integral)
#   gaussian mass: int exp(-|x|^2) = pi^(3/2) in dimension 3
K_DIAG_4_1 = 16.755160819145562
GAUSS_MASS = math.pi ** 1.5


def kernel_oracle(r, rho, n, mu):
    """Hypergeometric closed form of the sphere average of |r e1 - rho w|^-mu."""
    a, b = max(r, rho), min(r, rho)
    return sphere_area(n) * a ** (-mu) * hyp2f1(mu / 2.0, (mu + 2.0 - n) / 2.0,
                                                n / 2.0, (b / a) ** 2)


# ---------------------------------------------------------------------------
# Configuration and profile plumbing


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_panels=4)


def test_non_finite_inputs_raise_domain_error():
    for args in ((1.0, math.inf, 5), (math.nan, 1.0, 5), (1e-3, 1e3, math.inf),
                 (1e-3, 1e3, 16.5)):
        with pytest.raises(DomainError):
            log_grid(*args)
    for kw in ({"rel_tol": math.inf}, {"max_panels": math.inf}, {"max_panels": 16.5}):
        with pytest.raises(DomainError):
            QuadratureConfig(**kw)
    with pytest.raises(DomainError):
        RadialProfile([1.0, math.inf], [1.0, 1.0])
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 1.5), log_grid(0.1, 10.0, 50))
    for at in ([0.5, math.inf], [1.0, 1e308], [1.0, 1e200]):
        with pytest.raises(DomainError):
            riesz_radial(prof, 1.0, 3, at=at)


def test_riesz_rejects_radii_where_rho_pow_n_overflows():
    # the far regions weight f by rho^N out to r/2: at N=3 that overflows
    # from r = 2 * 1.798e308^(1/3) = 1.13e103, and at N=6 from 4.75e51
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 1.5), log_grid(0.1, 10.0, 50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, good, bad in ((3, 1.1e103, 1.2e103), (6, 4.7e51, 4.8e51)):
            assert math.isfinite(riesz_radial(prof, 1.0, n, at=[1.0, good]).values[-1])
            with pytest.raises(DomainError, match="overflows"):
                riesz_radial(prof, 1.0, n, at=[1.0, bad])
    high = RadialProfile.from_power(PowerLawTerm(1.0, 1.5), log_grid(0.1, 1e104, 60))
    with pytest.raises(DomainError, match="top of the grid"):
        riesz_radial(high, 1.0, 3, at=[1.0, 2.0])


def test_riesz_rejects_radii_where_half_radius_pow_n_underflows():
    # the mirror of the rule above: (r/2)^N below the smallest normal float
    # ends at N=3 from r = 2 * 2.225e-308^(1/3) = 5.63e-103, at N=4 from 2.44e-77
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 2.2), log_grid())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, good, bad in ((3, 5.7e-103, 5.6e-103), (3, 5.7e-103, 1e-300),
                             (4, 2.5e-77, 2.4e-77), (4, 2.5e-77, 1e-100)):
            assert math.isfinite(riesz_radial(prof, 1.5, n, at=[good, 1.0]).values[0])
            with pytest.raises(DomainError, match=f"underflows at N={n} for the smallest "
                                                  f"radius r = {bad:.6g}"):
                riesz_radial(prof, 1.5, n, at=[bad, 1.0])


def test_from_power_rejects_an_overflowing_sample_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="profile values must be finite"):
            RadialProfile.from_power(PowerLawTerm(1.0, 2.2), log_grid(1e-200, 1.0, 10))


def test_log_grid_shape():
    g = log_grid(1e-3, 1e3, 400)
    assert g.size == 400
    assert g[0] == pytest.approx(1e-3, rel=1e-12)
    assert g[-1] == pytest.approx(1e3, rel=1e-12)
    steps = np.diff(np.log(g))
    assert np.max(np.abs(steps - steps[0])) < 1e-12


def test_profile_validation_errors():
    with pytest.raises(DomainError):
        RadialProfile([1.0, 0.5], [1.0, 1.0])  # decreasing radii
    with pytest.raises(DomainError):
        RadialProfile([-1.0, 1.0], [1.0, 1.0])  # negative radius
    with pytest.raises(DomainError):
        RadialProfile([1.0], [1.0])  # too short
    with pytest.raises(DomainError):
        RadialProfile([1.0, 2.0], [1.0, math.nan])
    with pytest.raises(DomainError):
        RadialProfile([1.0, 2.0], [[1.0, 2.0]])


def test_profile_tail_continuity_gate():
    g = np.array([1.0, 2.0, 4.0])
    v = g ** -1.5
    # matching tail accepted
    RadialProfile(g, v, tail_outer=PowerLawTerm(1.0, 1.5))
    # 10% mismatch rejected
    with pytest.raises(DomainError):
        RadialProfile(g, v, tail_outer=PowerLawTerm(1.1, 1.5))
    with pytest.raises(DomainError):
        RadialProfile(g, v, tail_inner=PowerLawTerm(0.5, 1.5))


def test_profile_interpolation_exact_on_power_laws():
    prof = RadialProfile.from_power(PowerLawTerm(2.0, 1.7), log_grid(0.01, 100.0, 60))
    r = np.array([0.0137, 0.92, 31.7])
    want = 2.0 * r ** -1.7
    assert np.max(np.abs(prof(r) / want - 1.0)) < 1e-12


def test_profile_tail_queries():
    term = PowerLawTerm(1.0, 2.0)
    prof = RadialProfile.from_power(term, log_grid(0.1, 10.0, 20))
    assert prof(0.01) == pytest.approx(term(0.01), rel=1e-14)
    assert prof(100.0) == pytest.approx(term(100.0), rel=1e-14)
    bare = RadialProfile(prof.radii, prof.values)
    with pytest.raises(DomainError):
        bare(0.01)
    with pytest.raises(DomainError):
        bare(100.0)


def test_profile_rejects_negative_and_nan_queries():
    # an r^-2 inner tail used to give p(-1) = 1.0, an r^-2.5 tail nan with a
    # RuntimeWarning, and nan passed with or without tails
    grid = log_grid(0.1, 10.0, 20)
    tailed = [RadialProfile.from_power(PowerLawTerm(1.0, a), grid) for a in (2.0, 2.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for prof in tailed + [RadialProfile(grid, grid ** -2.0)]:
            for r in (-1.0, -4.0, math.nan, [0.5, math.nan], np.array([[1.0, -0.5]])):
                with pytest.raises(DomainError):
                    prof(r)
    # the centre stays a valid query: sample_field evaluates it and masks it
    with np.errstate(divide="ignore"):
        assert tailed[0](0.0) == math.inf
        assert tailed[0](np.array([0.0, 1.0]))[1] == pytest.approx(1.0, rel=1e-14)
    # ... and answers it without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tailed[1](0.0) == math.inf


def test_profile_algebra_and_tails():
    term = PowerLawTerm(2.0, 1.0)
    prof = RadialProfile.from_power(term, log_grid(0.1, 10.0, 30))
    sq = prof.power(2.0)
    assert sq.tail_outer.coefficient == pytest.approx(4.0)
    assert sq.tail_outer.exponent == pytest.approx(2.0)
    sc = prof.scale(3.0)
    assert sc.tail_inner.coefficient == pytest.approx(6.0)
    prod = prof.multiply(sq)
    assert prod.tail_outer.exponent == pytest.approx(3.0)
    assert prod.values == pytest.approx(8.0 * prod.radii ** -3.0)
    other = RadialProfile.from_power(term, log_grid(0.1, 10.0, 31))
    with pytest.raises(DomainError, match="same grid to multiply"):
        prof.multiply(other)
    with pytest.raises(DomainError, match="same grid to mix"):
        prof.mix(other, 0.5, 0.5)


def test_profile_power_rejects_non_finite_results():
    # int(inf) and int(nan) raised OverflowError and ValueError; a huge power
    # overflowed with a RuntimeWarning and then an OverflowError in the tail
    prof = RadialProfile.from_power(PowerLawTerm(2.0, 1.0), log_grid(0.1, 10.0, 30))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in (math.inf, -math.inf, math.nan, 1e308, -1e308):
            with pytest.raises(DomainError):
                prof.power(e)
        # a zero sample raised to a negative power is infinite too
        with pytest.raises(DomainError):
            RadialProfile(prof.radii, np.where(prof.radii < 1.0, 0.0, 1.0)).power(-1.0)


def test_profile_mix_tail_selection():
    g = log_grid(0.1, 10.0, 30)
    slow = RadialProfile.from_power(PowerLawTerm(1.0, 0.5), g)
    fast = RadialProfile.from_power(PowerLawTerm(1.0, 2.0), g)
    mixed = slow.mix(fast, 1.0, 1.0)
    # outer tail keeps the slower decay (min exponent), inner the max
    assert mixed.tail_outer.exponent == pytest.approx(0.5)
    assert mixed.tail_inner.exponent == pytest.approx(2.0)
    # equal exponents combine exactly linearly
    both = slow.mix(slow.scale(2.0), 1.0, 1.0)
    assert both.tail_outer.coefficient == pytest.approx(3.0, rel=1e-12)
    assert both.tail_outer.exponent == pytest.approx(0.5)


@pytest.mark.parametrize("w_self, w_other", [(0.0, 1.0), (0.0, 0.5), (1.0, 0.0)])
def test_profile_mix_with_a_zero_weight_drops_that_profile(w_self, w_other):
    # a full-damping Picard step mixes u with weight 0: the result must carry
    # the new iterate's tails, not u's exponent refitted to the edge sample
    g = log_grid(1e-2, 1e2, 50)
    u = RadialProfile.from_power(PowerLawTerm(1.0, 1.0), g)
    v = RadialProfile.from_power(PowerLawTerm(1.0, 1.5), g)
    kept, w = (v, w_other) if w_self == 0.0 else (u, w_self)
    mixed = u.mix(v, w_self, w_other)
    assert mixed.tail_inner == kept.tail_inner.scaled(w)
    assert mixed.tail_outer == kept.tail_outer.scaled(w)
    np.testing.assert_array_equal(mixed.values, kept.values * w)
    assert mixed(1e4) == w * kept.tail_outer(1e4)


def test_profile_fractional_power_needs_positive():
    g = np.array([1.0, 2.0, 3.0])
    prof = RadialProfile(g, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(DomainError):
        prof.power(0.5)


@st.composite
def pchip_data(draw):
    """Log-grid abscissae with monotone, flat-run, sign-changing or non-positive data."""
    n = draw(st.integers(2, 400))
    lo, hi = draw(st.floats(-4.0, -1.0)), draw(st.floats(1.0, 4.0))
    x = np.log(np.geomspace(10.0 ** lo, 10.0 ** hi, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["monotone", "flat runs", "slope sign changes", "non-positive"]))
    if kind == "monotone":
        y = -np.cumsum(rng.exponential(size=n))
    elif kind == "flat runs":
        y = np.repeat(rng.normal(size=n), rng.integers(1, 5, size=n))[:n]
    elif kind == "slope sign changes":
        y = np.sin(x * rng.uniform(0.5, 20.0)) + 1e-3 * rng.normal(size=n)
    else:
        y = np.minimum(rng.normal(size=n), 0.0)
    q = np.concatenate([x, x[[0, -1]], rng.uniform(x[0], x[-1], 500)])
    return x, y, q


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(data=pchip_data())
def test_pchip_is_bit_identical_to_scipy(data):
    # the interpolant behind every off-grid profile query must reproduce scipy's
    # PchipInterpolator exactly: at every node, at both ends and in between
    x, y, q = data
    got = _pchip(x, y)(q)
    want = PchipInterpolator(x, y, extrapolate=False)(q)
    assert np.all(got == want)


# ---------------------------------------------------------------------------
# Gauss rules, against their moments in closed form and against scipy's rules


def _moment_error(rule, moments):
    """Worst |sum w x^k - exact_k| / scale_k over moments = [(k, exact_k, scale_k)]."""
    x, w = rule
    return max(abs(float(np.sum(w * x ** k)) - exact) / scale for k, exact, scale in moments)


def _legendre_moments(degrees):
    # (k, exact, scale) for u = (1 + x)/2 and the [-1, 1] weights: int_-1^1 u^k dx = 2/(k + 1)
    return [(k, 2.0 / (k + 1.0), 2.0 / (k + 1.0)) for k in range(degrees)]


def _legendre_case(n):
    # G_n, the first n nodes of _gauss_kronrod(n), is exact through degree 2n - 1
    x, wg, _ = _gauss_kronrod(n)
    xs, ws = roots_legendre(n)
    moments = _legendre_moments(2 * n)
    return (_moment_error(((1.0 + x[:n]) / 2.0, wg), moments),
            _moment_error(((1.0 + xs) / 2.0, ws), moments))


def _kronrod_case(n):
    # K_(2n+1) is exact through degree 3n + 1; scipy has no Kronrod rule, so
    # there is nothing to compare with
    x, _, wk = _gauss_kronrod(n)
    return _moment_error(((1.0 + x) / 2.0, wk), _legendre_moments(3 * n + 2)), math.inf


# the rules in use: G12/K25 panels, G16 log-w panels, K49 near-series moments
_RULE_FAMILIES = {
    "legendre": [(_legendre_case, n) for n in (12, 16, 24)],
    "kronrod": [(_kronrod_case, n) for n in (12, 16, 24)],
}


@pytest.mark.parametrize("family", sorted(_RULE_FAMILIES))
def test_gauss_rules_integrate_their_moments(family):
    # every degree the rule is exact for in exact arithmetic; across the family
    # the worst relative miss must be at round-off and no worse than scipy's rules
    errors = np.array([case(*args) for case, *args in _RULE_FAMILIES[family]])
    ours, scipys = errors.max(axis=0)
    assert ours <= 5e-14
    assert ours <= scipys


_RULE_BYTES_SCRIPT = """
from hartree_singular.radial_quadrature import _gauss_kronrod
rules = [_gauss_kronrod(n) for n in (12, 16, 24)]
print([[v.hex() for v in part] for rule in rules for part in rule])
"""


def test_gauss_rules_give_the_same_bytes_in_every_process():
    # the child runs one BLAS thread, this process the default number
    proc = subprocess.run([sys.executable, "-c", _RULE_BYTES_SCRIPT],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    rules = [_gauss_kronrod(n) for n in (12, 16, 24)]
    here = [[v.hex() for v in part] for rule in rules for part in rule]
    assert proc.stdout == f"{here}\n"


def test_kronrod_rule_extends_the_gauss_rule():
    # 25 nodes inside (-1, 1), the 13 added ones between and around G12's
    # (K, G, K, ..., G, K), positive weights, and both sums read one column
    # per shared node
    x, wg, wk = _gauss_kronrod(12)
    nodes = np.sort(x)
    assert -1.0 < nodes[0] and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0.0)
    np.testing.assert_array_equal(nodes[1::2], np.sort(x[:12]))
    assert np.all(wg > 0.0) and np.all(wk > 0.0)
    np.testing.assert_array_equal(_gauss_points(np.array([[-1.0, 1.0]]))[0], x)
    coarse, fine, size = radial_quadrature._rule_sums(np.eye(x.size))
    np.testing.assert_array_equal(coarse, np.concatenate([wg, np.zeros(13)]))
    np.testing.assert_array_equal(fine, wk)
    np.testing.assert_array_equal(size, wk)


# ---------------------------------------------------------------------------
# Angular kernel


def test_kernel_matches_hypergeometric_oracle():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(3, 7))
        mu = float(rng.uniform(0.1, n - 0.05))
        r = float(rng.uniform(0.2, 5.0))
        rho = float(rng.uniform(0.2, 5.0))
        if abs(r - rho) < 1e-12:
            continue
        got = angular_kernel(r, rho, n, mu)
        want = kernel_oracle(r, rho, n, mu)
        # 1e-10 bounds the reference hypergeometric evaluation accuracy
        assert got == pytest.approx(want, rel=1e-10), (r, rho, n, mu)


def test_kernel_log_case_mu_two_dim_three():
    got = angular_kernel(1.0, 0.7, 3, 2.0)
    want = kernel_oracle(1.0, 0.7, 3, 2.0)
    assert got == pytest.approx(want, rel=1e-13)


def _k3_series(s, mu):
    """K(1, s) at N = 3 for s <= 1/2, from the odd binomial series, summed by math.fsum.

    (1 + s)^e - (1 - s)^e = 2 sum_{k odd} C(e, k) s^k with e = 2 - mu; with
    c_k = C(e, k)/e the series stays finite at e = 0 (mu = 2, the log case),
    and K(1, s) = 2 pi ((1 + s)^e - (1 - s)^e)/(e s) = 4 pi sum c_k s^(k-1).
    """
    e = 2.0 - mu
    terms, c, k = [], 1.0, 1
    while not terms or abs(terms[-1]) > 1e-20 * abs(terms[0]):
        terms.append(c * s ** (k - 1))
        c *= (e - k) * (e - k - 1.0) / ((k + 1.0) * (k + 2.0))
        k += 2
    return 4.0 * math.pi * math.fsum(terms)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(mu=st.one_of(st.floats(0.01, 2.99), st.just(2.0), st.floats(1.999999, 2.000001)),
       log_s=st.floats(-8.0, math.log10(0.5)), log_r=st.floats(-2.0, 2.0),
       swap=st.booleans())
def test_far_kernel_dim3_against_binomial_series(mu, log_s, log_r, swap):
    # the separated N = 3 kernel, the 2F1 series in s^2, must not cancel as
    # rho/r -> 0: the old form (r + rho)^e - |r - rho|^e lost 1.9e-12
    # relative at s = 1e-4. This reference sums the odd binomial series in s
    hi = 10.0 ** log_r
    lo = hi * min(10.0 ** log_s, 0.5)
    want = hi ** -mu * _k3_series(lo / hi, mu)
    got = angular_kernel(lo, hi, 3, mu) if swap else angular_kernel(hi, lo, 3, mu)
    assert got == pytest.approx(want, rel=1e-14), (mu, lo, hi)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data(), n=st.integers(4, 8),
       s=st.one_of(st.just(0.5), st.floats(-8.0, math.log10(0.5)).map(lambda x: 10.0 ** x)),
       log_r=st.floats(-2.0, 2.0), swap=st.booleans())
def test_far_kernel_against_hypergeometric_oracle(data, n, s, log_r, swap):
    # the far series in (rho/r)^2 at N >= 4, out to the far edge s = 1/2; at
    # mu = N-2 the series is the constant 1 (the mean value property), and
    # N-1 and N-3 are the other integer parameter cases
    mu = data.draw(st.one_of(st.floats(0.05, n - 0.05), st.sampled_from([n - 1.0, n - 2.0,
                                                                          n - 3.0])))
    hi = 10.0 ** log_r
    lo = hi * s
    want = kernel_oracle(hi, lo, n, mu)
    got = angular_kernel(lo, hi, n, mu) if swap else angular_kernel(hi, lo, n, mu)
    assert got == pytest.approx(want, rel=1e-14), (n, mu, lo, hi)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data(), n=st.integers(3, 8), s=st.floats(0.0, 0.5, exclude_min=True))
def test_far_kernel_is_the_tail_series_bit_for_bit(data, n, s):
    # one far kernel at every N: the series that the Riesz tails integrate
    # term by term, N = 3 included, so the far panels and the tails agree
    mu = data.draw(st.one_of(st.floats(0.01, n - 0.01), st.sampled_from([2.0, n - 1.0,
                                                                          n - 2.0])))
    want = sphere_area(n) * np.polyval(_kernel_series(n, mu)[0], s * s)
    assert _kernel_sep(1.0, s, n, mu) == want, (n, mu, s)


def _near_rule(n):
    """_kernel_series' X, W for int_0^1 x^h g(x) dx, h = (N-3)/2: K49 in y = sqrt(x).

    x^h dx = 2 y^(N-2) dy, so X = y^2 and W = w y^(N-2) at the K49 nodes y and
    weights w on [0, 1], scaled to the exact zeroth moment 1/(h + 1).
    """
    y, _, wk = _gauss_kronrod(24)
    y = (1.0 + y) / 2.0
    W = wk * y ** (n - 2.0)
    return y * y, W / (W.sum() * (n - 1.0) / 2.0)  # 1/(h + 1) = 2/(N - 1)


def _reference_series(n, mu, terms):
    """The three kernel series of _kernel_series, lowest degree first, each to a fixed length.

    Far: the 2F1 coefficients (mu/2)_k ((mu-N+2)/2)_k / ((N/2)_k k!). Near, with
    the product's rule X, W (_near_rule): C(-mu/2, k) sum W v^(h - mu/2 - k)
    for [1, 2] and 2^h C(h, k) (-1/2)^k sum W (1 + X)^(-mu/2) X^k for [0, eps],
    where C(x, k) = (-x)_k (-1)^k / k!.
    """
    a, b, c, h = mu / 2.0, (mu - n + 2.0) / 2.0, n / 2.0, (n - 3.0) / 2.0
    k = np.arange(terms, dtype=float)
    far = poch(a, k) / gamma(k + 1.0) * (poch(b, k) / poch(c, k))
    X, W = _near_rule(n)
    v = 2.0 - X
    two = (poch(a, k) / gamma(k + 1.0) * (-1.0) ** k
           * np.array([np.sum(W * v ** (h - a - j)) for j in range(terms)]))
    zero = (2.0 ** h * poch(-h, k) / gamma(k + 1.0) * 0.5 ** k
            * np.array([np.sum(W * (1.0 + X) ** -a * X ** j) for j in range(terms)]))
    return far, two, zero


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(data=st.data(), n=st.integers(4, 8))
def test_near_series_moments_are_those_of_their_weight(data, n):
    # a near series coefficient is p_k times a moment of x^h dx on [0, 1], summed
    # by K49 in y = sqrt(x); every moment a kept coefficient carries, k <= 40,
    # against scipy's quadrature with the algebraic weight. A weaker rule fails
    # here: K25 misses the high-k [1, 2] moments by 4e-8, K33 by 5e-12
    mu = data.draw(st.one_of(st.floats(0.05, n - 0.05), st.sampled_from([n - 3.0, n - 2.0,
                                                                         n - 1.0])))
    a, h = mu / 2.0, (n - 3.0) / 2.0
    two, zero = _kernel_series(n, mu)[1:3]

    def integral(f, lo, hi, wvar):
        return quad(f, lo, hi, weight="alg", wvar=wvar, epsabs=0.0, epsrel=2e-14, limit=200)[0]

    pieces = [  # (kept series, p_(k+1)/p_k, exact moment k); [1, 2] in v = 2 - x
        (two, lambda k: -(a + k) / (k + 1.0),
         lambda k: integral(lambda v: v ** (h - a - k), 1.0, 2.0, (0.0, h))),
        (zero, lambda k: (k - h) / (2.0 * k + 2.0),
         lambda k: 2.0 ** h * integral(lambda x: (1.0 + x) ** -a * x ** k, 0.0, 1.0, (h, 0.0)))]
    for kept, ratio, moment in pieces:
        p = 1.0
        for k, coef in enumerate(kept[::-1][:41]):
            if p != 0.0:  # at odd N the [0, eps] series stops at k = h
                assert coef / p == pytest.approx(moment(k), rel=1e-13, abs=0.0), (n, mu, k)
            p *= ratio(k)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_kernel_series_are_cut_below_their_remainder_bound(n):
    # each series is cut where the dropped terms at the window edge z = eps = 1/4
    # sum to at most 2^-60 of the series; the kept coefficients are the series'
    # own. mu runs up to the alpha = 0.13 edge, where the series converge slowest
    for mu in np.concatenate([np.linspace(0.05, n - 0.13, 23), [n - 3.0, n - 2.0, n - 1.0]]):
        for kept, ref in zip(_kernel_series(n, float(mu)), _reference_series(n, mu, 100)):
            K = kept.size
            edge = 0.25 ** np.arange(100.0)
            total = np.sum(ref * edge)
            assert total > 0.0
            np.testing.assert_allclose(kept[::-1], ref[:K], rtol=1e-12, atol=0.0)
            assert np.sum(np.abs(ref[K:] * edge[K:])) <= 2.0 ** -60 * total, (mu, K)
            assert np.polyval(kept, 0.25) == pytest.approx(total, rel=1e-15, abs=0.0), (mu, K)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_log_w_series_is_cut_below_its_remainder_bound(n):
    # the fixed log-w panels of _kernel_near sum as a series in z <= e^-2 whose
    # term j is C(-mu/2, j) z^j times a node sum no larger than the j = 0 one;
    # cut where the dropped terms at z = e^-2 sum to at most 2^-60 of the
    # series, (1 + e^-2)^(-mu/2). mu runs up to the alpha = 0.13 edge
    edge, j = math.exp(-2.0), np.arange(100.0)
    for mu in np.concatenate([np.linspace(0.05, n - 0.13, 23), [n - 3.0, n - 2.0, n - 1.0]]):
        kept = _kernel_series(n, float(mu))[3]
        ref = (-1.0) ** j * poch(mu / 2.0, j) / gamma(j + 1.0)  # C(-mu/2, j)
        K, total = kept.size, (1.0 + edge) ** (-mu / 2.0)
        np.testing.assert_allclose(kept[::-1], ref[:K], rtol=1e-12, atol=0.0)
        assert np.sum(np.abs(ref[K:] * edge ** j[K:])) <= 2.0 ** -60 * total, (mu, K)
        assert np.polyval(kept, edge) == pytest.approx(total, rel=1e-15, abs=0.0), (mu, K)


def test_kernel_near_diagonal_against_oracle():
    for delta in (1e-3, 1e-6, 1e-9):
        got = angular_kernel(1.0, 1.0 - delta, 4, 2.7)
        want = kernel_oracle(1.0, 1.0 - delta, 4, 2.7)
        assert got == pytest.approx(want, rel=1e-11), delta


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kernel_between_half_and_diagonal_against_quad(n):
    # rho/r in (1/2, 1) is near-diagonal territory, as in the Riesz region
    # table; the far series, cut for (rho/r)^2 <= 1/4, misses by up to 9e-7 there
    for ratio, mu in itertools.product((0.7, 0.8), (0.6 * n, n - 1.2, 0.8 * n, 0.95 * n)):
        def integrand(t):
            return (1.0 + ratio ** 2 - 2.0 * ratio * math.cos(t)) ** (-mu / 2.0) * math.sin(t) ** (n - 2)

        want = sphere_area(n - 1) * quad(integrand, 0.0, math.pi, epsabs=0.0, epsrel=1e-13,
                                         limit=200)[0]
        assert angular_kernel(1.0, ratio, n, mu) == pytest.approx(want, rel=1e-13), (ratio, mu)


def _k_general_delta(r, delta, rho, n, mu):
    """The scalar per-delta kernel that the batched _kernel_near replaced: its reference."""
    b = (n - 3.0) / 2.0
    eps = delta * delta / (2.0 * r * rho)
    X, W = roots_jacobi(48, 0.0, b)
    X, W = (1.0 + X) / 2.0, W * 2.0 ** (-(b + 1.0))  # sum W h(X) ~ int_0^1 x^b h(x) dx
    j2 = float(W @ ((2.0 - X) ** b * (eps + 2.0 - X) ** (-mu / 2.0)))
    if eps >= 1.0:
        j1 = float(W @ ((2.0 - X) ** b * (eps + X) ** (-mu / 2.0)))
    else:
        xe = eps * X
        j1 = eps ** (b + 1.0) * float(W @ ((2.0 - xe) ** b * (eps + xe) ** (-mu / 2.0)))
        xg, wg = roots_legendre(24)
        a = eps
        while a < 1.0:
            c = min(2.0 * a, 1.0)
            mid, half = 0.5 * (a + c), 0.5 * (c - a)
            wn = mid + half * xg
            j1 += half * float(wg @ (wn ** b * (2.0 - wn) ** b * (eps + wn) ** (-mu / 2.0)))
            a = c
    return sphere_area(n - 1) * (2.0 * r * rho) ** (-mu / 2.0) * (j1 + j2)


def _near_deltas(r, side, alpha, num):
    """Deltas from the substitution's cutoff r e^(-t_cap) up to the eps = 1/4 edge."""
    t_cap = max(40.0, 46.0 / alpha)
    t_edge = math.log(2.0) if side < 0 else 0.0  # delta = r/2 below, r above
    return r * np.exp(-np.linspace(t_edge, t_cap, num))


def test_batched_near_kernel_matches_scalar_reference():
    # the batch sums each rule in another order, so agreement is to rounding only
    r = 1.7
    for n in (4, 5, 6, 7):
        # mu < N-1 and N-1 <= mu < N; at mu = N-3 and N-1, (N-1-mu)/2 is an integer
        for mu in (0.4 * n, n - 3.0, n - 1.0 - 1e-6, n - 1.0, n - 1.0 + 1e-6, n - 0.5):
            for side in (-1, 1):
                delta = _near_deltas(r, side, n - mu, 60)
                rho = r + side * delta
                assert np.max(delta * delta / (2.0 * r * rho)) == pytest.approx(0.25)
                got = _kernel_near(r, rho, delta, n, mu, n - mu)
                want = np.array([_k_general_delta(r, d, p, n, mu)
                                 for d, p in zip(delta, rho)])
                assert np.all(np.isfinite(want))
                assert np.max(np.abs(got / want - 1.0)) <= 1e-14, (n, mu, side)


def test_batched_near_kernel_underflowed_eps_is_nan_and_isolated():
    # eps = delta^2/(2 r rho) underflows to 0 below delta ~ 1e-162; it would need
    # infinitely many log-w panels, so it is left out rather than stalling the batch
    delta = np.array([1e-200, 1e-3, 0.1])
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _kernel_near(1.0, 1.0 - delta, delta, 4, 2.0, 2.0)
    assert math.isnan(got[0])
    assert got[1:] == pytest.approx([kernel_oracle(1.0, 1.0 - d, 4, 2.0) for d in delta[1:]],
                                    rel=1e-11)


@pytest.mark.parametrize("n, mu", [(4, 2.5), (5, 4.2), (6, 4.5)])
def test_kernels_do_not_depend_on_a_value_place_in_the_batch(n, mu):
    # BLAS gemv rounds a row by its place in the matrix; the einsum node sums
    # give every separation the bits of a call of its own. The single calls
    # pass 1-element arrays: numpy's scalar power may round unlike its array power
    rng = np.random.default_rng(n)
    delta = 0.5 * rng.random(1000) ** 4
    rho = 1.0 - delta
    s = 0.5 * rng.random(1000)
    near = _kernel_near(1.0, rho, delta, n, mu, n - mu)
    far = _kernel_sep(1.0, s, n, mu)
    assert np.all(_kernel_sep(np.ones((10, 1)), s.reshape(10, 100), n, mu).ravel() == far)
    for i in range(s.size):
        assert near[i] == _kernel_near(1.0, rho[i:i + 1], delta[i:i + 1], n, mu, n - mu)[0], i
        assert far[i] == _kernel_sep(1.0, s[i:i + 1], n, mu)[0], i


@pytest.mark.parametrize("n, mu", [(3, 1.5), (3, 2.5), (4, 2.5), (5, 4.2), (6, 4.5)])
def test_angular_kernel_near_the_diagonal_is_the_quadrature_kernel(n, mu):
    # riesz_radial passes arrays into _kernel_near; the public kernel passed
    # Python floats, and numpy's scalar power rounds unlike its array power
    # (1 to 47 of each 1000 values here differed in the last bits)
    rng = np.random.default_rng(n)
    hi = 10.0 ** rng.uniform(-2.0, 2.0, 1000)
    lo = hi * (1.0 - 0.5 * rng.random(1000) ** 4)
    keep = (0.5 * hi < lo) & (lo < hi)
    hi, lo = hi[keep], lo[keep]
    want = _kernel_near(hi, hi - (hi - lo), hi - lo, n, mu, n - mu)
    for i, (a, b) in enumerate(zip(hi.tolist(), lo.tolist())):
        assert (angular_kernel(a, b, n, mu) if i % 2 else angular_kernel(b, a, n, mu)) == want[i], i


def test_jacobi_path_at_dim_three_matches_closed_form():
    # the N >= 4 rules, in their scalar reference form, against the N = 3 closed forms
    r = 0.9
    for mu in (0.5, 1.5, 2.0, 2.5, 2.7):
        for side in (-1, 1):
            delta = _near_deltas(r, side, 3.0 - mu, 80)
            rho = r + side * delta
            got = np.array([_k_general_delta(r, d, p, 3, mu) for d, p in zip(delta, rho)])
            want = _kernel_near(r, rho, delta, 3, mu, 3.0 - mu)
            assert np.max(np.abs(got / want - 1.0)) <= 1e-13, (mu, side)


def _near_panels_reference(r, rho, delta, n, mu, alpha):
    """_kernel_near at N >= 4 with every fixed log-w panel summed node by node.

    The per-panel loop that one series per call replaced: fixed panel k,
    [e^(-2(k+1)), e^(-2k)], adds its 16 nodes' (1 + eps/w)^(-mu/2) for each
    delta with m = floor(-log(eps)/2) > k.
    """
    b, c = (n - 3.0) / 2.0, (alpha - 1.0) / 2.0
    eps = (delta / r) * (delta / rho) / 2.0
    two, zero = _kernel_series(n, mu)[1:3]
    j2, j1 = np.polyval(two, eps), np.polyval(zero, eps) * eps ** c
    x, wu, _ = _gauss_kronrod(16)
    u, wu = (x[:16] + 1.0) / 2.0, wu / wu.sum()
    m = np.floor(-np.log(eps) / 2.0)
    width = np.log(np.exp(-2.0 * m) / eps)
    w = eps[:, None] * np.exp(width[:, None] * u)
    j1 += width * np.sum(wu * w ** c * (2.0 - w) ** b * (1.0 + eps[:, None] / w) ** (-mu / 2.0),
                         axis=1)
    for k in range(int(m.max())):
        w = np.exp(-2.0 * (k + 1.0)) * np.exp(2.0 * u)
        panel = 2.0 * wu * w ** c * (2.0 - w) ** b * (1.0 + eps[:, None] / w) ** (-mu / 2.0)
        j1 += np.where(m > k, panel.sum(axis=1), 0.0)
    return sphere_area(n - 1) * (2.0 * r * rho) ** (-mu / 2.0) * (j1 + j2)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_near_kernel_log_w_series_matches_the_per_panel_loop(n):
    # out to t_cap and at both ends of the window: alpha = 0.13 builds the
    # longest table (m up to about 354); at alpha = 1 and 3, c is an integer
    r = 1.3
    for alpha in np.concatenate([[0.13, 0.2, 1.0, 3.0], np.linspace(0.5, n - 0.05, 5)]):
        if alpha >= n:
            continue
        for side in (-1, 1):
            delta = _near_deltas(r, side, alpha, 300)
            rho = r + side * delta
            got = _kernel_near(r, rho, delta, n, n - alpha, alpha)
            want = _near_panels_reference(r, rho, delta, n, n - alpha, alpha)
            assert np.max(np.abs(got / want - 1.0)) <= 1e-14, (n, alpha, side)


def _k3_near_series(r, rho, delta, mu):
    """K(r, rho) at N = 3 near the diagonal, from the Taylor series of expm1 by math.fsum.

    With e = 2 - mu, L = log((r + rho)/delta) > 0 and x = |e| L, the closed
    form 2 pi ((r + rho)^e - delta^e)/(e r rho) is 2 pi lo^e expm1(x)/(|e| r rho)
    and 2 pi hi^e (-expm1(-x))/(|e| r rho), where lo^e and hi^e are the smaller
    and the larger of the two powers. For x < 1 the first, with expm1(x)/|e|
    = L sum_k x^k/(k + 1)!: positive terms, finite at e = 0 (mu = 2, the log
    case). Above, the second, which an error in x (L carries one of up to
    half a unit of L) moves by less than that error.
    """
    e = 2.0 - mu
    L = math.log((r + rho) / delta)
    x = abs(e) * L
    lo, hi = (delta, r + rho) if e >= 0.0 else (r + rho, delta)
    if x >= 1.0:
        return 2.0 * math.pi * hi ** e * -math.expm1(-x) / (abs(e) * r * rho)
    terms = [1.0]
    while terms[-1] > 1e-20:
        terms.append(terms[-1] * x / (len(terms) + 1.0))
    return 2.0 * math.pi * lo ** e * L * math.fsum(terms) / (r * rho)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(mu=st.one_of(st.floats(0.01, 2.99), st.just(2.0), st.floats(1.999999, 2.000001)),
       log_s=st.floats(-8.0, 0.0), log_r=st.floats(-2.0, 2.0), above=st.booleans())
def test_near_kernel_dim3_against_expm1_series(mu, log_s, log_r, above):
    # (r + rho)^e - delta^e cancels as e = 2 - mu -> 0: it was off by 2.7e-9
    # at mu = 2 + 1e-8 and by 2e-5 at 2 + 1e-12. delta <= r/2 below the
    # diagonal and delta <= r above it, as in the Riesz near pieces
    r = 10.0 ** log_r
    delta = r * (10.0 ** log_s if above else min(10.0 ** log_s, 0.5))
    rho = r + delta if above else r - delta
    got = _kernel_near(np.array([r]), np.array([rho]), np.array([delta]), 3, mu, 3.0 - mu)[0]
    assert got == pytest.approx(_k3_near_series(r, rho, delta, mu), rel=1e-14), (mu, r, delta)


@pytest.mark.parametrize("d", [1e-12, -1e-12, 1e-8, -1e-8, 1e-5, -1e-5])
def test_riesz_dim3_within_its_bars_as_mu_nears_two(d):
    # alpha = 1 + d at N = 3 is mu = 2 - d, inside the window; within 1e-8 of
    # mu = 2 the near kernel's cancellation ended riesz_radial in ConvergenceError
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 2.0), log_grid(1e-3, 1e3, 200))
    at = np.array([0.01, 0.3, 1.0, 30.0])
    out = riesz_radial(prof, 1.0 + d, 3, at=at)
    closed = _riesz_power_reference(1.0 + d, 2.0, 3) * at ** (d - 1.0)
    assert np.all(np.abs(out.values / closed - 1.0) <= out.point_errors), d


def test_kernel_symmetry():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        mu = float(rng.uniform(0.2, n - 0.2))
        r = float(rng.uniform(0.5, 2.0))
        rho = float(rng.uniform(0.5, 2.0))
        assert angular_kernel(r, rho, n, mu) == pytest.approx(
            angular_kernel(rho, r, n, mu), rel=1e-12)


def test_kernel_homogeneity():
    base = angular_kernel(1.0, 0.6, 3, 2.5)
    scaled = angular_kernel(3.0, 1.8, 3, 2.5)
    assert scaled == pytest.approx(base * 3.0 ** -2.5, rel=1e-13)


def test_kernel_diagonal_closed_form_and_divergence():
    got = angular_kernel(1.0, 1.0, 4, 1.0)
    assert got == pytest.approx(K_DIAG_4_1, rel=1e-13)
    assert got == pytest.approx(16.0 * math.pi / 3.0, rel=1e-13)
    # mu >= N-1 diverges on the diagonal
    assert math.isinf(angular_kernel(1.0, 1.0, 3, 2.5))
    assert math.isinf(angular_kernel(2.0, 2.0, 4, 3.0))


def test_kernel_diagonal_continuity():
    # for mu < N-1 the off-diagonal value approaches the diagonal closed form
    diag = angular_kernel(1.0, 1.0, 4, 1.5)
    near = angular_kernel(1.0, 1.0 - 1e-7, 4, 1.5)
    assert near == pytest.approx(diag, rel=1e-5)


def test_kernel_zero_radius_and_errors():
    assert angular_kernel(0.0, 2.0, 3, 2.5) == pytest.approx(
        sphere_area(3) * 2.0 ** -2.5, rel=1e-14)
    assert angular_kernel(2.0, 0.0, 3, 2.5) == pytest.approx(
        sphere_area(3) * 2.0 ** -2.5, rel=1e-14)
    with pytest.raises(DomainError):
        angular_kernel(0.0, 0.0, 3, 2.5)
    with pytest.raises(DomainError, match=r"mu must satisfy 0 < mu < N=3, got mu=3\.5"):
        angular_kernel(1.0, 1.0, 3, 3.5)  # mu >= N
    with pytest.raises(DomainError):
        angular_kernel(1.0, 1.0, 3, 0.0)
    with pytest.raises(DomainError):
        angular_kernel(-1.0, 1.0, 3, 2.0)
    for r, rho, n in ((math.nan, 1.0, 4), (math.inf, 1.0, 4), (1.0, math.nan, 3),
                      (1.0, math.inf, 3), (1.0, -math.inf, 4)):
        with pytest.raises(DomainError):
            angular_kernel(r, rho, n, 2.0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kernel_at_extreme_radii_is_scaled_or_refused(n):
    # r^2, rho^2, r rho and (near the diagonal) |r - rho|^2 leave the normal
    # float range out here; each pair either keeps homogeneity or raises
    # DomainError, and none warns. Scaling by 2^k keeps rho/r exact
    mu = 1.5
    ratios = (1.0 - 2.0 ** -52, 1.0 - 1e-9, 0.9, 0.6, 0.5, 0.3, 1e-3, 1e-30)
    refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-532, 533, 14):
            r = 2.0 ** k
            for c in ratios:
                want = r ** -mu * angular_kernel(1.0, c, n, mu)
                for a, b in ((r, r * c), (r * c, r)):
                    try:
                        got = angular_kernel(a, b, n, mu)
                    except DomainError:
                        refused += 1
                        continue
                    assert got == pytest.approx(want, rel=1e-13), (k, c)
        for r, rho in ((1e155, 9e154), (1e155, 1e150), (1e-160, 1e-165), (1e-160, 9e-161)):
            with pytest.raises(DomainError, match="float range"):
                angular_kernel(r, rho, n, mu)
    assert refused > 0


def test_kernel_value_outside_the_normal_float_range_is_domain_error():
    # r^-mu overflows on the diagonal and zero-radius paths (a Python float
    # power) and in the near value at (1e-60, 9e-61) (a numpy power), and far
    # out at 1e100 the value falls below the normal range: each raises
    # DomainError without a warning. The diagonal pole is still inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r, rho, n, mu in ((1e-200, 1e-200, 4, 2.5), (0.0, 1e-200, 4, 2.5),
                              (1e-200, 0.0, 4, 2.5), (1e-60, 9e-61, 6, 5.9),
                              (1e200, 1e200, 4, 2.5), (1e100, 3e99, 6, 5.0)):
            with pytest.raises(DomainError, match="leaves the normal float range"):
                angular_kernel(r, rho, n, mu)
        assert angular_kernel(1e-200, 1e-200, 4, 3.0) == math.inf


def test_kernel_positivity():
    rng = np.random.default_rng(47)
    for _ in range(30):
        n = int(rng.integers(3, 6))
        mu = float(rng.uniform(0.2, n - 0.2))
        r = 10.0 ** rng.uniform(-2, 2)
        rho = 10.0 ** rng.uniform(-2, 2)
        assert angular_kernel(float(r), float(rho), n, mu) > 0.0


# ---------------------------------------------------------------------------
# Riesz potential quadrature


def test_riesz_power_law_oracle_dim3():
    grid = log_grid()
    at = np.geomspace(0.1, 10.0, 5)
    for (alpha, a) in ((2.0, 2.5), (0.5, 5.0 / 3.0), (1.0, 1.8), (2.5, 2.9)):
        closed = riesz_power(alpha, a, 3)
        prof = RadialProfile.from_power(PowerLawTerm(1.0, a), grid)
        got = riesz_radial(prof, alpha, 3, at=at)
        assert np.max(np.abs(got.values / closed(at) - 1.0)) < 1e-7, (alpha, a)
        assert np.all(got.point_errors < 1e-6)


def test_riesz_power_law_oracle_higher_dim():
    at = np.geomspace(0.3, 3.0, 4)
    for (n, alpha, a) in ((4, 1.5, 2.9), (5, 1.2, 3.1), (6, 2.0, 4.4)):
        closed = riesz_power(alpha, a, n)
        prof = RadialProfile.from_power(PowerLawTerm(1.0, a), log_grid(1e-3, 1e3, 200))
        got = riesz_radial(prof, alpha, n, at=at)
        assert np.max(np.abs(got.values / closed(at) - 1.0)) < 1e-6, (n, alpha, a)


@pytest.mark.parametrize("alpha, a", [(1.2, 2.2), (1.5, 2.6), (0.5, 1.2)])
def test_riesz_full_grid_dim3_at_round_off(alpha, a):
    # every radius of the default 400-point grid, mu = 1.8, 1.5 and 2.5: with a
    # far kernel free of cancellation the whole grid is good to round-off
    grid = log_grid()
    got = riesz_radial(RadialProfile.from_power(PowerLawTerm(1.0, a), grid), alpha, 3)
    closed = riesz_power(alpha, a, 3)(grid)
    assert np.max(np.abs(got.values / closed - 1.0)) <= 1e-14


@pytest.mark.parametrize("n, alpha, a", [(3, 1.2, 2.2), (3, 1.5, 2.6), (3, 0.5, 1.2), (4, 1.2, 3.2)])
def test_full_grid_bars_cover_the_true_error(n, alpha, a):
    # every radius of the default 400-point grid, mu = N - alpha = 1.8, 1.5 and
    # 2.5 at N = 3 and 2.8 at N = 4: no bar falls below its radius's true error
    grid = log_grid()
    got = riesz_radial(RadialProfile.from_power(PowerLawTerm(1.0, a), grid), alpha, n)
    err = np.abs(got.values / riesz_power(alpha, a, n)(grid) - 1.0)
    assert np.all(got.point_errors >= err)
    assert err.max() <= 2e-15


def _initial_edges(a, b, presplit, breaks):
    """Initial panel edges of the replaced one-integral quadrature."""
    edges = np.linspace(a, b, max(1, int(presplit)) + 1)
    if len(breaks):
        inner = np.asarray(breaks, dtype=float)
        inner = inner[(inner > a) & (inner < b)]
        edges = np.unique(np.concatenate([edges, inner]))
    return edges


def _adaptive_gl_scalar(fun, a, b, rel_tol, max_panels, presplit=1):
    """One integral at a time: the loop that the tagged _adaptive_gl replaced."""
    if not b > a:
        return 0.0, 0.0, 0, True
    order = radial_quadrature._GL_ORDER
    x2, w1, w2 = _gauss_kronrod(order)  # G12 on the first 12 of K25's nodes
    edges = _initial_edges(a, b, presplit, [])
    segs = np.column_stack([edges[:-1], edges[1:]])
    total_len = b - a
    acc_val = 0.0
    acc_err = 0.0
    panels = 0
    while segs.size:
        mid = 0.5 * (segs[:, 0] + segs[:, 1])
        half = 0.5 * (segs[:, 1] - segs[:, 0])
        f2 = fun((mid[:, None] + half[:, None] * x2[None, :]).ravel()).reshape(-1, x2.size)
        f1 = f2[:, :order]
        coarse = (f1 @ w1) * half
        fine = (f2 @ w2) * half
        err = np.abs(fine - coarse)
        floor = radial_quadrature._ROUNDOFF * (np.abs(f2) @ w2) * half
        panels += segs.shape[0]
        scale = abs(acc_val + fine.sum())
        tol = np.maximum(floor.sum(), rel_tol * scale) * (2.0 * half / total_len)
        done = err <= tol
        acc_val += fine[done].sum()
        acc_err += (err + floor)[done].sum()
        rest = segs[~done]
        if rest.size == 0:
            return acc_val, acc_err, panels, True
        if panels >= max_panels:
            return acc_val + fine[~done].sum(), acc_err + (err + floor)[~done].sum(), panels, False
        mids = 0.5 * (rest[:, 0] + rest[:, 1])
        segs = np.vstack([
            np.column_stack([rest[:, 0], mids]),
            np.column_stack([mids, rest[:, 1]]),
        ])
    return acc_val, acc_err, panels, True


def test_tagged_quadrature_matches_scalar_reference_per_integral(monkeypatch):
    # each integral keeps its own tolerance share, budget and convergence flag;
    # only the summation order differs, and 7 panels per call split them across calls
    monkeypatch.setattr(radial_quadrature, "_CHUNK_PANELS", 7)
    cases = [  # integrand, a, b, presplit
        (np.exp, 0.0, 3.0, 2),
        (np.sqrt, 0.0, 1.0, 1),  # endpoint singularity: overruns the budget
        (lambda x: 1.0 / (1e-6 + x * x), -1.0, 1.0, 3),  # sharp peak: refines deep
        (lambda x: np.sin(40.0 * x), 0.0, 2.0, 1),
        (lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0, 1),  # NaN never converges
        (lambda x: 1e-30 / (1e-6 + x * x), -1.0, 1.0, 3),  # the peak, scaled: same panels
    ]
    budget, rel_tol = 64, 1e-10
    with np.errstate(invalid="ignore"):
        ref = [_adaptive_gl_scalar(fn, a, b, rel_tol, budget, presplit=p)
               for fn, a, b, p in cases]
    edges = [np.linspace(a, b, p + 1) for _, a, b, p in cases]
    segs = np.concatenate([np.column_stack([e[:-1], e[1:]]) for e in edges])
    tag = np.repeat(np.arange(len(cases)), [p for *_, p in cases])
    length = np.array([b - a for _, a, b, _ in cases])

    def fun(s, t):
        y = _gauss_points(s)
        out = np.empty_like(y)
        for g, (fn, *_) in enumerate(cases):
            out[t == g] = fn(y[t == g])
        return out

    val, err, used, ok = radial_quadrature._adaptive_gl(fun, segs, tag, length, rel_tol, budget)
    assert [c for *_, c in ref] == [True, False, True, True, False, True]
    # no absolute tolerance: the scaled peak refines exactly as its twin does
    assert ref[5][2] == ref[2][2] > 3 and used[5] == used[2]
    for g, (v, e, panels, converged) in enumerate(ref):
        assert used[g] == panels and ok[g] == converged, g
        if math.isnan(v):
            assert math.isnan(val[g])
        else:
            assert val[g] == pytest.approx(v, rel=1e-13, abs=1e-300), g
            # rule sums run in another order: estimates agree to round-off of the value
            assert err[g] == pytest.approx(e, rel=0.0, abs=16 * np.finfo(float).eps * abs(v)), g
    # rule sums of initial panels handed in, as the dense far sums are, leave
    # every result bit for bit as it was, and fun never sees those panels
    index = np.array([0, 2, 4, 5])
    sums = np.array(radial_quadrature._rule_sums(fun(segs[index], tag[index])))
    seen = []

    def spy(s, t):
        seen.append(s)
        return fun(s, t)

    given = radial_quadrature._adaptive_gl(
        spy, segs, tag, length, rel_tol, budget, (index, sums))
    for got, want in zip(given, (val, err, used, ok)):
        np.testing.assert_array_equal(got, want)
    assert sum(s.shape[0] for s in seen) == used.sum() - index.size
    assert max(s.shape[0] for s in seen) == 7


def test_initial_panels_match_linspace_and_node_breaks():
    # every group starts from the edges the one-integral loop built, bit for bit
    rng = np.random.default_rng(3)
    radii = np.sort(rng.uniform(0.01, 100.0, 60))
    r = rng.uniform(0.005, 150.0, 40)
    side = rng.choice([0.0, -1.0, 1.0], 40)
    a = np.where(side == 0.0, rng.uniform(1e-3, 50.0, 40), r * rng.uniform(0.5, 0.999, 40))
    a[side > 0.0] = r[side > 0.0]
    b = np.where(side < 0.0, r, np.where(side > 0.0, r * rng.uniform(1.001, 2.0, 40),
                                         a + rng.uniform(1e-3, 60.0, 40)))
    far = side == 0.0
    ya = np.log(np.where(far, a, r / np.abs(np.where(side < 0.0, a, b) - r)))
    yb = np.where(far, np.log(b), 40.0)
    segs, tag = radial_quadrature._initial_panels(radii, np.log(radii), a, b, ya, yb, r, far)
    for g in range(r.size):
        sel = radii[(radii > a[g]) & (radii < b[g])]
        if far[g]:
            breaks, presplit = np.log(sel), max(1, int((yb[g] - ya[g]) / 1.2))
        else:
            breaks, presplit = np.log(r[g] / np.abs(sel - r[g])), max(2, int((yb[g] - ya[g]) / 6.0))
        edges = _initial_edges(ya[g], yb[g], presplit, breaks)
        np.testing.assert_array_equal(segs[tag == g], np.column_stack([edges[:-1], edges[1:]]))


@pytest.mark.parametrize("n, alpha, a, tol", [(3, 1.0, 1.8, 1e-7), (4, 1.5, 2.9, 1e-6)])
@pytest.mark.parametrize("window, live", [
    ((0.01, 0.3), 3),  # entirely below r: g_lo, g_left, g_right
    ((3.0, 100.0), 3),  # entirely above r: g_left, g_right, g_hi
    ((0.01, 100.0), 4),  # straddling r: every row
    ((0.7, 1.5), 2),  # within (r/2, 2r): the near-diagonal pair only
])
def test_riesz_region_selection(monkeypatch, n, alpha, a, tol, window, live):
    # counts the (radius, region) groups that start with panels in _adaptive_gl
    at = np.array([1.0, 1.1])
    groups = []
    adaptive = radial_quadrature._adaptive_gl

    def counted(fun, segs, tag, *args):
        groups.append(np.unique(tag).size)
        return adaptive(fun, segs, tag, *args)

    monkeypatch.setattr(radial_quadrature, "_adaptive_gl", counted)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, a), log_grid(*window, 40))
    got = riesz_radial(prof, alpha, n, at=at)
    assert sum(groups) == live * at.size
    assert np.max(np.abs(got.values / riesz_power(alpha, a, n)(at) - 1.0)) < tol


def test_profile_table_matches_direct_evaluation_bit_for_bit():
    # far panels of grid radii that are exactly one grid interval read
    # f(rho) rho^N from the table; it must equal a direct evaluation at the
    # same nodes, bit for bit
    grid = log_grid(1e-2, 1e2, 60)
    positive = RadialProfile.from_power(PowerLawTerm(1.3, 2.2), grid)
    signed = RadialProfile(grid, np.cos(np.log(grid)))  # PCHIP on raw values
    for prof, n in ((positive, 3), (signed, 3), (positive, 5)):
        logr = np.log(prof.radii)
        segs = np.column_stack([logr[:-1], logr[1:]])[::-1]  # other batch positions
        direct = np.exp(_gauss_points(segs))
        np.testing.assert_array_equal(_profile_table(prof, n)[::-1],
                                      prof(direct) * direct ** float(n))


@pytest.mark.parametrize("n, alpha, a", [(3, 1.2, 2.1), (5, 2.2, 3.4)])
def test_off_grid_radii_build_no_profile_table(monkeypatch, n, alpha, a):
    # radii off the grid take every far panel through the integrand; the
    # table of f(rho) rho^N is built once per call, and only for grid radii
    grid = log_grid(1e-2, 1e2, 100)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, a), grid)
    off = riesz_radial(prof, alpha, n, at=np.geomspace(0.05, 20.0, 5))
    built = []
    table = radial_quadrature._profile_table

    def counted(f, dim):
        built.append(dim)
        return table(f, dim)

    monkeypatch.setattr(radial_quadrature, "_profile_table", counted)
    riesz_radial(prof, alpha, n, at=grid[[10, 30, 50]])
    assert built == [n]

    def refuse(f, dim):
        raise AssertionError("profile table built for off-grid radii")

    monkeypatch.setattr(radial_quadrature, "_profile_table", refuse)
    again = riesz_radial(prof, alpha, n, at=np.geomspace(0.05, 20.0, 5))
    np.testing.assert_array_equal(again.values, off.values)
    np.testing.assert_array_equal(again.point_errors, off.point_errors)


@pytest.mark.parametrize("n, alpha, a", [(3, 1.2, 2.1), (4, 1.5, 2.9)])
def test_riesz_radial_calls_no_np_unique(monkeypatch, n, alpha, a):
    # np.unique imports numpy.ma (about 13 ms) on its first call, even on an
    # empty array; the offset-row sums index a block's strided pass by each
    # panel's window start instead of grouping panels by radius
    prof = RadialProfile.from_power(PowerLawTerm(1.0, a), log_grid(1e-2, 1e2, 60))
    cases = (prof.radii[[10, 30, 50]], np.geomspace(0.05, 20.0, 5))
    want = [riesz_radial(prof, alpha, n, at=at) for at in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    for at, ref in zip(cases, want):
        got = riesz_radial(prof, alpha, n, at=at)
        np.testing.assert_array_equal(got.values, ref.values)
        np.testing.assert_array_equal(got.point_errors, ref.point_errors)


@pytest.mark.parametrize("n, alpha, a", [(3, 1.2, 2.1), (4, 1.5, 2.9), (5, 2.2, 3.4)])
def test_riesz_radius_blocks_match_pairwise_calls(n, alpha, a):
    # 40 radii cross a block of _RADIUS_BLOCK radii; taken two at a time they must
    # give the same values, and error bars equal up to round-off in the estimates.
    # Grid radii read kernel rows per grid offset, whichever radii share the call:
    # the whole grid in one call against pairs of its radii.
    grid = log_grid(1e-2, 1e2, 100)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, a), grid)
    on_grid = riesz_radial(prof, alpha, n)
    for at, whole in ((np.geomspace(0.05, 20.0, 40), None), (grid[20:60], on_grid)):
        assert radial_quadrature._RADIUS_BLOCK < at.size
        if whole is None:
            whole = riesz_radial(prof, alpha, n, at=at)
        else:
            whole = RadialProfile(at, whole.values[20:60], point_errors=whole.point_errors[20:60])
        pairs = [riesz_radial(prof, alpha, n, at=at[i:i + 2]) for i in range(0, at.size, 2)]
        values = np.concatenate([p.values for p in pairs])
        errors = np.concatenate([p.point_errors for p in pairs])
        assert np.max(np.abs(whole.values / values - 1.0)) <= 4.5e-16
        assert np.max(np.abs(whole.point_errors / errors - 1.0)) <= 1e-4


@pytest.mark.parametrize("n, alpha, a", [(3, 1.2, 2.1), (4, 1.5, 2.9)])
def test_grid_radii_build_offset_rows_in_one_kernel_call(monkeypatch, n, alpha, a):
    # a call builds the offset rows K(1, rho/r) in one _kernel_sep call, not
    # one per block of radii (40 grid radii make 2 blocks): the offsets j - i
    # that its grid radii i in [20, 59] reach over the 99 intervals j, and no
    # others. A call whose radii are all off the grid builds none
    grid = log_grid(1e-2, 1e2, 100)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, a), grid)
    at, off = grid[20:60], np.geomspace(0.05, 20.0, 5)
    assert radial_quadrature._RADIUS_BLOCK < at.size <= 2 * radial_quadrature._RADIUS_BLOCK
    want, want_off = riesz_radial(prof, alpha, n, at=at), riesz_radial(prof, alpha, n, at=off)
    sep, rows = radial_quadrature._kernel_sep, []

    def counted(r, rho, dim, mu):
        if isinstance(r, float) and r == 1.0:
            rows.append(np.size(rho) // (2 * radial_quadrature._GL_ORDER + 1))
        return sep(r, rho, dim, mu)

    monkeypatch.setattr(radial_quadrature, "_kernel_sep", counted)
    got = riesz_radial(prof, alpha, n, at=at)
    assert rows == [59 - 20 + 99]
    np.testing.assert_array_equal(got.values, want.values)
    np.testing.assert_array_equal(got.point_errors, want.point_errors)
    rows.clear()
    got = riesz_radial(prof, alpha, n, at=off)
    assert rows == []
    np.testing.assert_array_equal(got.values, want_off.values)


def test_grid_radii_on_a_wide_grid_build_only_the_offsets_they_reach():
    # a grid with exact logs -688, -680, .., 232 is log-uniform and spans
    # e^920: rows for every offset in +-J would overflow exp, while the grid
    # radii 1 and e^8 reach rho/r from e^-696 to e^240 only. (log_grid(1e-300,
    # 1e100, 81) is 512 eps off the lattice, so its radii read no rows)
    logr = np.arange(-688.0, 233.0, 8.0)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 0.6), np.exp(logr))
    at = prof.radii[86:88]
    assert np.array_equal(np.log(prof.radii), logr) and at[0] == 1.0
    assert np.array_equal(radial_quadrature._FarIntervals(prof, at, 3, 2.5).index, [86, 87])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = riesz_radial(prof, 0.5, 3, at=at)
    assert np.max(np.abs(out.values / riesz_power(0.5, 0.6, 3)(at) - 1.0)) <= 1e-15


@pytest.mark.parametrize("n, alpha, a", [(3, 1.2, 2.1), (4, 1.5, 2.9)])
def test_grid_radii_read_offset_rows_only_on_a_log_uniform_grid(monkeypatch, n, alpha, a):
    # on a log grid the rows move values by round-off only; one node moved by
    # 1e-12 relative breaks the lattice, and every radius then leaves its far
    # panels to the integrand, bit for bit as with rows switched off
    grid = log_grid(1e-2, 1e2, 100)
    bent = grid.copy()
    bent[50] *= 1.0 + 1e-12
    term, pick = PowerLawTerm(1.0, a), [10, 30, 50, 70]

    def run(radii):
        prof = RadialProfile.from_power(term, radii)
        far = radial_quadrature._FarIntervals(prof, radii[pick], n, n - alpha)
        return far.index, riesz_radial(prof, alpha, n, at=radii[pick])

    (rows_index, rows), (bent_index, bent_out) = run(grid), run(bent)
    assert np.array_equal(rows_index, pick) and np.all(bent_index == -1)
    monkeypatch.setattr(radial_quadrature, "_LOG_UNIFORM", -1.0)  # no grid is log-uniform
    direct, bent_direct = run(grid)[1], run(bent)[1]
    assert np.max(np.abs(rows.values / direct.values - 1.0)) <= 2e-15
    np.testing.assert_array_equal(bent_out.values, bent_direct.values)
    np.testing.assert_array_equal(bent_out.point_errors, bent_direct.point_errors)


def _given_reference(far, segs, in_far, r, index, owner):
    """The sums of _FarIntervals.given as a walk over each radius's run of panels.

    Panel owners ascend, as _riesz_block's do; each grid radius g forms three
    whole-table einsums against its rows j - g and keeps its own intervals.
    """
    logr = far.logr
    j = np.minimum(np.searchsorted(logr, segs[:, 0]), logr.size - 2)
    hit = np.flatnonzero(in_far & (index[owner] >= 0) & (logr[j] == segs[:, 0])
                         & (logr[j + 1] == segs[:, 1]))
    j, owner = j[hit], owner[hit]
    out = np.empty((3, hit.size))
    bounds = np.searchsorted(owner, np.arange(r.size + 1))
    for i in np.flatnonzero(bounds[1:] > bounds[:-1]):
        lo, hi, g = bounds[i], bounds[i + 1], index[i]
        rows = far.rows[far.top - g:far.top - g + far.fine.shape[0]]  # row j: offset j - g
        out[:, lo:hi] = np.array([
            np.einsum("jk,jk->j", far.coarse, rows[:, :radial_quadrature._GL_ORDER])[j[lo:hi]],
            np.einsum("jk,jk->j", far.fine, rows)[j[lo:hi]],
            np.einsum("jk,jk->j", far.size, rows)[j[lo:hi]]]) * r[i] ** -far.mu
    return hit, out


@pytest.mark.parametrize("n, alpha, a", [(3, 1.2, 2.1), (4, 1.5, 2.9), (5, 2.2, 3.4)])
def test_far_interval_sums_match_the_per_radius_walk(monkeypatch, n, alpha, a):
    # given sums a block's panels in one strided pass over its radii's row
    # windows, gaps included; in every call of riesz_radial its positions and
    # sums must equal the per-radius walk's, bit for bit, on the whole grid,
    # gapped grid radii, grid radii mixed with off-grid ones, and off-grid
    # radii only, where there is no panel to give
    grid = log_grid(1e-2, 1e2, 100)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, a), grid)
    strided, hits = radial_quadrature._FarIntervals.given, []

    def checked(self, segs, far, r, index, owner):
        got = strided(self, segs, far, r, index, owner)
        hit, want = _given_reference(self, segs, far, r, index, owner)
        hits.append(hit.size)
        if got is None:
            assert hit.size == 0
        else:
            assert np.array_equal(got[0], hit) and np.array_equal(got[1], want)
        return got

    monkeypatch.setattr(radial_quadrature._FarIntervals, "given", checked)
    off = np.geomspace(0.05, 20.0, 9)
    mixed = np.sort(np.concatenate([grid[[5, 40, 41, 90]], off]))
    for at, on_grid in ((grid, True), (grid[[0, 3, 50, 99]], True), (grid[::7], True),
                        (mixed, True), (off, False)):
        hits.clear()
        riesz_radial(prof, alpha, n, at=at)
        assert hits and (sum(hits) > 0) == on_grid


_NEARBY_EXPONENT_SCRIPT = """
import numpy as np
from hartree_singular import PowerLawTerm, RadialProfile, log_grid, riesz_radial
def potential(a):
    prof = RadialProfile.from_power(PowerLawTerm(1.0, a), log_grid())
    return riesz_radial(prof, 1.0, 3, at=np.array([0.5, 1.0, 2.0])).values
{before}
print([v.hex() for v in potential(2.2 + 3e-13)])
"""


def test_riesz_result_does_not_depend_on_a_nearby_earlier_call():
    # nothing built for exponent 2.2 may be reused for 2.2 + 3e-13: the bits
    # must match those of a run without the earlier call, each in a fresh process
    def bits(before):
        script = _NEARBY_EXPONENT_SCRIPT.format(before=before)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert bits("") == bits("potential(2.2)")


def test_riesz_result_tails_are_mapped():
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 2.5), log_grid())
    out = riesz_radial(prof, 2.0, 3, at=np.geomspace(0.5, 2.0, 3))
    assert out.tail_inner is not None and out.tail_outer is not None
    assert out.tail_outer.exponent == pytest.approx(0.5, rel=1e-10)
    assert out.tail_outer.coefficient == pytest.approx(4.0, rel=1e-8)


def test_riesz_linearity():
    # compactly supported pieces (zero at both grid edges) so that tail
    # handling cannot enter; additivity must hold to quadrature accuracy
    grid = log_grid(0.25, 8.0, 160)
    f = RadialProfile(grid, np.maximum(1.0 - grid, 0.0) * np.maximum(grid - 0.5, 0.0))
    g = RadialProfile(grid, np.maximum(4.0 - grid, 0.0) * np.maximum(grid - 2.0, 0.0))
    at = np.array([0.6, 1.5, 3.0])
    left = riesz_radial(f.mix(g, 1.0, 1.0), 1.0, 3, at=at).values
    right = riesz_radial(f, 1.0, 3, at=at).values + riesz_radial(g, 1.0, 3, at=at).values
    assert left == pytest.approx(right, rel=1e-8)
    power = RadialProfile.from_power(PowerLawTerm(1.0, 2.5), log_grid(1e-2, 1e2, 120))
    doubled = riesz_radial(power.scale(2.0), 1.0, 3, at=at).values
    assert doubled == pytest.approx(2.0 * riesz_radial(power, 1.0, 3, at=at).values,
                                    rel=1e-12)


def _power_riesz(n, alpha, a, c):
    grid = log_grid()
    return riesz_radial(RadialProfile.from_power(PowerLawTerm(c, a), grid), alpha, n,
                        at=grid[::20])


_SCALE_CASES = [(3, 1.5, 2.2), (4, 1.2, 3.2), (3, 0.5, 2.2)]
_UNSCALED = {}


def _check_scale_free(case, c):
    # the potential is linear: c f gives c times the values of f and the same
    # relative bars, since no tolerance of the quadrature is absolute
    if case not in _UNSCALED:
        _UNSCALED[case] = _power_riesz(*case, 1.0)
    one, scaled = _UNSCALED[case], _power_riesz(*case, c)
    np.testing.assert_allclose(scaled.values, c * one.values, rtol=4e-15, atol=0.0)
    ratio = scaled.point_errors / one.point_errors
    assert np.all((ratio >= 0.5) & (ratio <= 2.0)), (case, c, ratio.min(), ratio.max())


@pytest.mark.parametrize("case", _SCALE_CASES)
@pytest.mark.parametrize("c", [1e-20, 1e20])
def test_riesz_is_scale_free(case, c):
    _check_scale_free(case, c)


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(case=st.sampled_from(_SCALE_CASES), k=st.floats(-30.0, 30.0))
def test_riesz_is_scale_free_at_any_power_of_ten(case, k):
    _check_scale_free(case, 10.0 ** k)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data(), n=st.integers(3, 8), g=st.floats(-0.99, 10.0),
       s=st.one_of(st.just(0.5), st.floats(-8.0, math.log10(0.5)).map(lambda x: 10.0 ** x)))
def test_tail_integrals_are_exact(data, n, g, s):
    # each tail is int_0^1 x^g K(1, s x) dx, summed term by term from the far
    # series; against adaptive quadrature of the hypergeometric kernel with the
    # x^g weight, out to the far edge s = 1/2, at the integer mu too
    mu = data.draw(st.one_of(st.floats(0.05, n - 0.05), st.sampled_from(range(1, n)).map(float)))
    got, bar = _tail_piece(g, 1.0, np.array([s]), n, mu)
    want = quad(lambda x: kernel_oracle(1.0, s * x, n, mu), 0.0, 1.0, weight="alg",
                wvar=(g, 0.0), epsabs=0.0, epsrel=2e-14, limit=200)[0]
    assert got[0] == pytest.approx(want, rel=1e-13), (n, mu, g, s)
    assert bar[0] == radial_quadrature._ROUNDOFF * got[0]


def test_tails_build_no_rule_per_exponent(monkeypatch):
    # the tails take no quadrature rule of their own: at N = 3 only the G12/K25
    # panel rule is built, and at N = 4 also the near kernel's G16 log-w panels
    # and its K49 moments, whatever the tail exponents
    built = set()
    monkeypatch.setattr(radial_quadrature, "_gauss_kronrod",
                        lambda n: built.add(n) or _gauss_kronrod(n))
    _kernel_series.cache_clear()
    grid = log_grid(1e-2, 1e2, 40)
    for a in np.linspace(2.05, 2.95, 7):
        riesz_radial(RadialProfile.from_power(PowerLawTerm(1.0, float(a)), grid), 1.5, 3)
    assert built == {12}
    for a in np.linspace(3.05, 3.95, 7):
        riesz_radial(RadialProfile.from_power(PowerLawTerm(1.0, float(a)), grid), 1.5, 4,
                     at=[0.7, 1.9])
    assert built == {12, 16, 24}


def test_float_keyed_caches_are_bounded():
    # a scan over mu must not grow the series cache without end
    for mu in np.linspace(0.2, 4.8, 2000):
        _kernel_series(5, float(mu))
    info = _kernel_series.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_riesz_gaussian_newton_potential():
    # exp(-r^2) sampled without tails: far field is mass/(4 pi r), and the
    # Newton shell formula gives the exact interior values
    grid = log_grid(1e-3, 12.0, 300)
    prof = RadialProfile(grid, np.exp(-grid ** 2))
    at = np.array([0.5, 1.0, 5.0])
    out = riesz_radial(prof, 2.0, 3, at=at)

    def newton_oracle(r):
        inner = quad(lambda t: math.exp(-t * t) * t * t, 0.0, r)[0]
        outer = quad(lambda t: math.exp(-t * t) * t, r, 12.0)[0]
        return inner / r + outer

    want = np.array([newton_oracle(r) for r in at])
    assert np.max(np.abs(out.values / want - 1.0)) < 1e-6
    # far field: M/(4 pi r) with gamma(2) = 4 pi already divided out
    assert out.values[2] == pytest.approx(GAUSS_MASS / (4.0 * math.pi * 5.0), rel=1e-6)


def test_riesz_compact_support_truncation_mode():
    # hat supported on [0.5, 1]: zero edge values make truncation exact;
    # outside the support the potential is mass/r exactly (alpha = 2, N = 3)
    grid = log_grid(0.25, 8.0, 240)
    vals = np.maximum(1.0 - grid, 0.0) * np.maximum(grid - 0.5, 0.0)
    prof = RadialProfile(grid, vals)
    out = riesz_radial(prof, 2.0, 3, at=np.array([2.0, 5.0]))
    assert out.values[0] / out.values[1] == pytest.approx(2.5, rel=1e-9)
    hat_mass = quad(lambda t: max(1.0 - t, 0.0) * max(t - 0.5, 0.0) * t * t, 0.5, 1.0)[0]
    # sampling the kinked hat on a 240-point grid biases its interpolant
    # mass at O(h^3); the quadrature itself is consistent (see ratio above)
    assert out.values[0] == pytest.approx(hat_mass / 2.0, rel=1e-3)
    assert np.all(np.isfinite(out.point_errors))


def test_riesz_kinked_data_not_skipped():
    # a narrow feature one grid-interval wide must register in the integral
    grid = log_grid(0.25, 8.0, 200)
    vals = np.maximum(1.0 - grid, 0.0)
    prof = RadialProfile(grid, vals)
    out = riesz_radial(prof, 2.0, 3, at=np.array([2.0, 5.0]))
    # both radii see the same interpolant mass: ratio is exactly 2/5 inverted
    assert out.values[0] / out.values[1] == pytest.approx(2.5, rel=1e-9)


def test_riesz_grid_refinement_convergence():
    # C-infinity bump modulating an exact power law; oracle from the Newton
    # shell formula with machine-accuracy 1d quadrature
    def bump(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        m = np.abs(x) < 2.0
        out[m] = np.exp(1.0 - 1.0 / (1.0 - (x[m] / 2.0) ** 2))
        return out

    def f_exact(r):
        return r ** -2.5 * (1.0 + 0.5 * bump(np.log(r)))

    term = PowerLawTerm(1.0, 2.5)
    at = np.array([1.0, 1.7])

    def oracle(r):
        i1 = quad(lambda t: f_exact(np.array([t]))[0] * t * t, 0.0, r,
                  points=[math.exp(-2)], limit=200, epsabs=1e-14, epsrel=1e-13)[0]
        i2 = quad(lambda t: f_exact(np.array([t]))[0] * t, r, math.exp(2),
                  limit=200, epsabs=1e-14, epsrel=1e-13)[0]
        i3 = 2.0 * math.exp(2) ** -0.5  # int_e2^inf t^-1.5 dt
        return i1 / r + i2 + i3

    want = np.array([oracle(r) for r in at])
    errs = []
    for num in (100, 200, 400):
        g = log_grid(1e-3, 1e3, num)
        prof = RadialProfile(g, f_exact(g), tail_inner=term, tail_outer=term)
        got = riesz_radial(prof, 2.0, 3, at=at).values
        errs.append(float(np.max(np.abs(got / want - 1.0))))
    assert errs[1] <= errs[0] / 2.0, errs
    assert errs[2] <= errs[1] / 2.0, errs


def test_riesz_domain_errors():
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 2.5), log_grid(0.1, 10.0, 50))
    with pytest.raises(DomainError, match=r"alpha must satisfy 0 < alpha < N=3, got alpha=0\.0"):
        riesz_radial(prof, 0.0, 3)
    with pytest.raises(DomainError):
        riesz_radial(prof, 3.0, 3)
    with pytest.raises(DomainError):
        riesz_radial(prof, 2.0, 2)
    bare = RadialProfile(prof.radii, prof.values)
    with pytest.raises(DomainError):
        riesz_radial(bare, 2.0, 3, at=np.array([0.01, 1.0]))  # below window, no tail
    with pytest.raises(DomainError):
        riesz_radial(bare, 2.0, 3, at=np.array([1.0, 100.0]))  # above window, no tail
    with pytest.raises(DomainError):
        riesz_radial(prof, 2.0, 3, at=np.array([2.0, 1.0]))  # not increasing
    # divergent tails
    heavy = RadialProfile.from_power(PowerLawTerm(1.0, 3.0), log_grid(0.1, 10.0, 50))
    with pytest.raises(DomainError):
        riesz_radial(heavy, 2.0, 3)  # inner exponent >= N
    light = RadialProfile.from_power(PowerLawTerm(1.0, 1.5), log_grid(0.1, 10.0, 50))
    with pytest.raises(DomainError):
        riesz_radial(light, 2.0, 3)  # outer exponent <= alpha


def test_riesz_convergence_error_carries_radius():
    cfg = QuadratureConfig(rel_tol=1e-15, max_panels=16)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 2.5), log_grid())
    at = np.array([0.5, 1.0])
    with pytest.raises(ConvergenceError) as exc:
        riesz_radial(prof, 0.5, 3, cfg=cfg, at=at)
    err = exc.value
    assert err.worst_radius in (0.5, 1.0)
    assert str(err) == f"quadrature exceeded 16 panels (worst radius {err.worst_radius})"
    # per-radius detail, aligned with at: the worst radius has the largest estimate,
    # and every radius used at least one region's budget of max(16 // 4, 4) panels
    assert err.errors.shape == err.panels.shape == at.shape
    assert np.all(err.errors > 0.0)
    assert err.errors[at == err.worst_radius][0] == err.errors.max()
    assert np.all(err.panels >= 4) and err.panels.dtype.kind == "i"
    assert ConvergenceError("other raiser").errors is None
    assert ConvergenceError("other raiser").panels is None


@pytest.mark.parametrize("n", [4, 5, 6])
def test_riesz_small_alpha_converges_or_is_refused_at_once(n):
    # the near-diagonal pieces run out to t = 46/alpha, where eps = e^(-2t)/2;
    # down to alpha = 0.13 the kernel stays finite and within its bars, and
    # below, where eps leaves the normal float range, riesz_radial refuses
    # before any quadrature
    a = n - 0.5
    prof = RadialProfile.from_power(PowerLawTerm(1.0, a), log_grid(1e-3, 1e3, 100))
    at = np.array([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.3, 0.2, 0.15, 0.14, 0.1301):
            out = riesz_radial(prof, alpha, n, at=at)
            closed = _riesz_power_reference(alpha, a, n) * at ** (alpha - a)
            assert np.all(np.abs(out.values / closed - 1.0) <= out.point_errors), alpha
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"below the near-diagonal window alpha >= 0\.1300"):
            riesz_radial(prof, 0.1299, n, at=at)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("r, edge", [(1e-3, 0.0627), (1.0, 0.0617)])
def test_riesz_dim3_small_alpha_converges_or_is_refused_at_once(r, edge):
    # at N = 3 delta = r e^(-t) is absolute. At the pieces' end t = 46/alpha,
    # exp(-t) underflows to 0 past t = 745.13 at every r, and at small r the
    # kernel delta^(alpha - 1)/(r rho) overflows first. Just above that edge
    # the potential is right to round-off, just below it is refused before
    # any quadrature; neither warns. (The bars here, about 1.9e-15, are the
    # rounding floor, which does not bound an error of 4e-15)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 1.5), log_grid())
    at = np.array([r, 1.5 * r])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = riesz_radial(prof, edge + 1e-4, 3, at=at)
        closed = riesz_power(edge + 1e-4, 1.5, 3)(at)
        assert np.max(np.abs(out.values / closed - 1.0)) <= 1e-14
        start = time.perf_counter()
        with pytest.raises(DomainError, match=re.escape(
                f"alpha={edge} is below the near-diagonal window at N=3 for the smallest "
                f"radius r = {r:.6g}: ")):
            riesz_radial(prof, edge, 3, at=at)
        assert time.perf_counter() - start < 1.0


def test_riesz_dim3_small_alpha_integrand_is_refused_at_once():
    # at r = 1e-100 the kernel at t = 46/alpha is finite for these alpha, but
    # the integrand's partial product f rho^2 K of r^-2.5 overflowed, and the
    # call ended in ConvergenceError after warnings. The gate reads that
    # product, so it refuses before any quadrature; at r = 1e-50 alpha = 0.4
    # still returns, right to round-off
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 2.5), log_grid())
    r = np.array([1e-100])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.4, 0.45, 0.5):
            d = r * np.exp(-46.0 / alpha)
            assert np.isfinite(_kernel_near(r, r, d, 3, 3.0 - alpha, alpha)[0])
            start = time.perf_counter()
            with pytest.raises(DomainError, match=re.escape(
                    f"alpha={alpha} is below the near-diagonal window at N=3 for the smallest "
                    "radius r = 1e-100: ")):
                riesz_radial(prof, alpha, 3, at=[1e-100, 1.0])
            assert time.perf_counter() - start < 1.0
        out = riesz_radial(prof, 0.4, 3, at=[1e-50, 1.0])
    assert np.max(np.abs(out.values / riesz_power(0.4, 2.5, 3)(out.radii) - 1.0)) <= 1e-14


def test_riesz_convergence_error_names_a_radius_when_estimates_are_nan(monkeypatch):
    # a near-diagonal kernel of NaN gives every failing radius a NaN error
    # estimate; NaN must rank worst, not leave the radius unset
    monkeypatch.setattr(radial_quadrature, "_kernel_near",
                        lambda r, rho, delta, *exponents: np.full(np.shape(delta), np.nan))
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 4.5), log_grid(1e-3, 1e3, 100))
    with pytest.raises(ConvergenceError) as exc:
        riesz_radial(prof, 0.3, 5, cfg=QuadratureConfig(max_panels=64), at=[1.0, 2.0])
    assert exc.value.worst_radius in (1.0, 2.0)
    assert np.all(np.isnan(exc.value.errors))


# ---------------------------------------------------------------------------
# Inverse Laplacian


def test_inverse_laplacian_inverts_closed_form():
    rng = np.random.default_rng(53)
    for _ in range(6):
        n = int(rng.integers(3, 6))
        s = float(rng.uniform(0.2, n - 2.0 - 0.1))
        lap = laplacian_power(s, n)
        g = RadialProfile.from_power(lap, log_grid(1e-3, 1e3, 200))
        u = inverse_laplacian_radial(g, n)
        want = u.radii ** -s
        assert np.max(np.abs(u.values / want - 1.0)) < 1e-7, (n, s)
        assert u.tail_outer.exponent == pytest.approx(s, rel=1e-9)


def test_inverse_laplacian_harmonic_outside_support():
    grid = log_grid(0.25, 8.0, 240)
    vals = np.maximum(1.0 - grid, 0.0) * np.maximum(grid - 0.5, 0.0)
    g = RadialProfile(grid, vals)
    for n in (3, 5):
        u = inverse_laplacian_radial(g, n)
        ra, rb = 2.0, 5.0
        ua = u(np.array([ra]))[0]
        ub = u(np.array([rb]))[0]
        assert ua / ub == pytest.approx((ra / rb) ** (2.0 - n), rel=1e-9), n


def test_inverse_laplacian_agrees_with_riesz():
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 2.5), log_grid(1e-3, 1e3, 150))
    via_inverse = inverse_laplacian_radial(prof, 3)
    at = via_inverse.radii[40:110:10]
    via_riesz = riesz_radial(prof, 2.0, 3, at=at)
    assert np.max(np.abs(via_inverse(at) / via_riesz.values - 1.0)) < 20e-8


def test_inverse_laplacian_divergent_tails_rejected():
    with pytest.raises(DomainError):
        inverse_laplacian_radial(
            RadialProfile.from_power(PowerLawTerm(1.0, 3.0), log_grid(0.1, 10, 50)), 3)
    with pytest.raises(DomainError):
        inverse_laplacian_radial(
            RadialProfile.from_power(PowerLawTerm(1.0, 1.5), log_grid(0.1, 10, 50)), 3)


# ---------------------------------------------------------------------------
# Result tails, shared by both potentials: each end is mapped in closed form,
# else fitted through its edge pair, else left off


def _inverse_image(term, n=3):
    a = term.exponent
    return PowerLawTerm(term.coefficient / ((a - 2.0) * (n - a)), a - 2.0)


# potential: (call on a profile, lower end of its mapping window, closed-form image)
_POTENTIALS = {
    "riesz": (lambda f: riesz_radial(f, 1.0, 3), 1.0,
              lambda term: riesz_power(1.0, term.exponent, 3).scaled(term.coefficient)),
    "inverse": (lambda f: inverse_laplacian_radial(f, 3), 2.0, _inverse_image),
}


def _edge_fit(r2, v2):
    a = -math.log(abs(v2[1] / v2[0])) / math.log(r2[1] / r2[0])
    return PowerLawTerm(v2[1] * r2[1] ** a, a)


@pytest.mark.parametrize("potential", sorted(_POTENTIALS))
@pytest.mark.parametrize("outcome", ["mapped", "outside", "jump", "sign"])
def test_result_tail_outcome_at_each_end(potential, outcome):
    call, low, image = _POTENTIALS[potential]
    grid = log_grid(0.1, 10.0, 60)
    term = PowerLawTerm(1.3, 2.5)  # inside (low, N) for both potentials
    if outcome == "mapped":
        out = call(RadialProfile.from_power(term, grid))
        assert out.tail_inner == image(term) and out.tail_outer == image(term)
        return
    if outcome == "outside":  # an inner tail below the window, and no outer tail
        term = PowerLawTerm(1.3, 0.8)
        assert not low < term.exponent
        f = RadialProfile(grid, term(grid), term, None)
    elif outcome == "jump":  # a bump in the interior moves both edge values off the closed form
        f = RadialProfile(grid, term(grid) * (1.0 + 50.0 * np.exp(-np.log(grid) ** 2 / 0.3)),
                          term, term)
    else:  # the two samples straddle zero, and so does the potential
        out = call(RadialProfile([1.0, 3.0], [-1.0, 0.42]))
        assert out.values[0] < 0.0 < out.values[1]
        assert out.tail_inner is None and out.tail_outer is None
        return
    out = call(f)
    for tail, edge, pair in ((out.tail_inner, 0, slice(None, 2)),
                             (out.tail_outer, -1, slice(-2, None))):
        if outcome == "jump":
            assert abs(image(term)(out.radii[edge]) / out.values[edge] - 1.0) > 0.05
        assert tail == _edge_fit(out.radii[pair], out.values[pair])


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(n=st.sampled_from([3, 4, 5, 6]), share=st.floats(0.0, 1.0),
       c=st.floats(0.2, 5.0))
def test_inverse_laplacian_round_trip(n, share, c):
    # g = c r^-a with 2.05 < a < N - 0.05: the Newton potential is the closed
    # form c r^-(a-2)/((a-2)(N-a)), and -Lap of it gives g back
    a = 2.05 + share * (n - 2.1)
    g = PowerLawTerm(c, a)
    u = inverse_laplacian_radial(RadialProfile.from_power(g, log_grid(0.1, 10.0, 81)), n)
    closed = _inverse_image(g, n)
    assert u.tail_inner == closed and u.tail_outer == closed
    rel = np.abs(u.values / closed(u.radii) - 1.0)
    assert np.all(rel <= u.point_errors)
    for r in u.radii[2:-2:7]:
        value, err = _fd_laplacian(u, r, n)
        assert abs(value - g(r)) <= err, (r, value, g(r), err)


def _riesz_power_reference(alpha, a, n):
    """riesz_power's coefficient, written out here so the bar test does not rest on it.

    2^-alpha Gamma((N-a)/2) Gamma((a-alpha)/2) / (Gamma(a/2) Gamma((N-a+alpha)/2))
    with each gamma argument formed directly; a - alpha is exact whenever
    a < 2 alpha.
    """
    return (2.0 ** -alpha * math.gamma((n - a) / 2.0) * math.gamma((a - alpha) / 2.0)
            / (math.gamma(a / 2.0) * math.gamma((n - a + alpha) / 2.0)))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(potential=st.sampled_from(["riesz", "inverse"]), n=st.sampled_from([3, 4, 5, 6]),
       alpha_share=st.floats(0.0, 1.0), a_share=st.floats(0.01, 0.99))
def test_point_errors_bound_the_true_error(potential, n, alpha_share, a_share):
    # r^-a inside the window (alpha, N): the reported bar must cover the error
    # against the closed form, also where quadrature leaves only round-off;
    # the Riesz radii are two grid radii and one between grid radii
    if potential == "riesz":
        alpha = 0.15 + alpha_share * (n - 0.65)
        a = alpha + a_share * (n - alpha)
        grid = log_grid(1e-2, 1e2, 60)
        at = np.array([grid[17], 1.2345, grid[40]])
        out = riesz_radial(RadialProfile.from_power(PowerLawTerm(1.0, a), grid), alpha, n, at=at)
        closed = _riesz_power_reference(alpha, a, n) * at ** (alpha - a)
    else:
        a = 2.0 + a_share * (n - 2.0)
        out = inverse_laplacian_radial(
            RadialProfile.from_power(PowerLawTerm(1.0, a), log_grid(0.1, 10.0, 81)), n)
        closed = _inverse_image(PowerLawTerm(1.0, a), n)(out.radii)
    rel = np.abs(out.values / closed - 1.0)
    assert np.all(rel <= out.point_errors), (rel / out.point_errors).max()


@pytest.mark.parametrize("a", [1.0 + 5e-10, 3.0 - 5e-10])
def test_riesz_tail_within_gamma_margin_is_fitted(a):
    # the closed-form image needs a gamma argument within GAMMA_MARGIN of an
    # endpoint of (0, N); the quadrature result stands with fitted tails
    prof = RadialProfile.from_power(PowerLawTerm(1.0, a), log_grid(0.1, 10.0, 60))
    out = riesz_radial(prof, 1.0, 3, at=[1.0, 2.0])
    assert np.all(np.isfinite(out.values)) and np.all(out.values > 0.0)
    assert out.tail_inner == _edge_fit(out.radii, out.values)
    assert out.tail_outer == out.tail_inner


# ---------------------------------------------------------------------------
# Finite-difference Laplacian: an independent check of the closed-form and
# Newton-potential Laplacians


def _fd_laplacian(f, at, n):
    """-Lap f at the grid radius nearest at, by centred differences in x = log r.

    -Lap f = -(f_xx + (N-2) f_x)/r^2 on a log-uniform grid, from stride-1 and
    stride-2 differences with Richardson extrapolation; returns (value, error
    estimate). The node needs two neighbours on each side.
    """
    x = np.log(f.radii)
    h = np.diff(x).mean()
    i = int(np.argmin(np.abs(x - math.log(at))))
    v = f.values
    d1h, d1hh = (v[i + 1] - v[i - 1]) / (2.0 * h), (v[i + 2] - v[i - 2]) / (4.0 * h)
    d2h = (v[i + 1] - 2.0 * v[i] + v[i - 1]) / (h * h)
    d2hh = (v[i + 2] - 2.0 * v[i] + v[i - 2]) / (4.0 * h * h)
    d1, e1 = (4.0 * d1h - d1hh) / 3.0, abs(d1h - d1hh) / 3.0
    d2, e2 = (4.0 * d2h - d2hh) / 3.0, abs(d2h - d2hh) / 3.0
    r = float(f.radii[i])
    error = ((e2 + abs(n - 2.0) * e1) / (r * r)
             + radial_quadrature._ROUNDOFF * abs(v[i]) / (h * h * r * r))
    return -(d2 + (n - 2.0) * d1) / (r * r), error


def test_fd_laplacian_power_law():
    grid = log_grid(1e-3, 1e3, 401)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 0.5), grid)
    value, err = _fd_laplacian(prof, 1.0, 3)
    assert value == pytest.approx(0.25, rel=1e-4)
    assert abs(value - 0.25) <= err


def test_fd_laplacian_trivial_cases():
    grid = log_grid(0.1, 10.0, 201)
    const = RadialProfile(grid, np.full_like(grid, 3.0))
    v, _ = _fd_laplacian(const, 1.0, 3)
    assert abs(v) < 1e-9
    quadratic = RadialProfile(grid, grid ** 2)
    v, _ = _fd_laplacian(quadratic, 1.0, 3)
    assert v == pytest.approx(-6.0, rel=1e-4)
    v, _ = _fd_laplacian(quadratic, 1.0, 4)
    assert v == pytest.approx(-8.0, rel=1e-4)
