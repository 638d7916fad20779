"""Radial quadrature: angular kernel, Riesz potential, inverse Laplacian."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from hartree_singular import (
    ConvergenceError,
    DomainError,
    PowerLawTerm,
    QuadratureConfig,
    RadialProfile,
    angular_kernel,
    inverse_laplacian_radial,
    laplacian_power,
    laplacian_radial_fd,
    log_grid,
    riesz_power,
    riesz_radial,
    sphere_area,
)
from hartree_singular import radial_quadrature
from hartree_singular.radial_quadrature import (
    _gauss_legendre,
    _jacobi_unit,
    _k3,
    _k_jacobi,
    _kernel_near,
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
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_panels=4)
    with pytest.raises(DomainError):
        QuadratureConfig(angular_nodes=2)
    with pytest.raises(DomainError):
        QuadratureConfig(angular_nodes=10.5)
    for nodes in (0, 10.5):
        with pytest.raises(DomainError):
            angular_kernel(1.0, 0.9, 4, 2.0, nodes=nodes)


def test_non_finite_inputs_raise_domain_error():
    for args in ((1.0, math.inf, 5), (math.nan, 1.0, 5), (1e-3, 1e3, math.inf),
                 (1e-3, 1e3, 16.5)):
        with pytest.raises(DomainError):
            log_grid(*args)
    for kw in ({"rel_tol": math.inf}, {"abs_tol": math.inf}, {"max_panels": math.inf},
               {"max_panels": 16.5}):
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


def test_profile_fractional_power_needs_positive():
    g = np.array([1.0, 2.0, 3.0])
    prof = RadialProfile(g, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(DomainError):
        prof.power(0.5)


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


def test_kernel_near_diagonal_against_oracle():
    for delta in (1e-3, 1e-6, 1e-9):
        got = angular_kernel(1.0, 1.0 - delta, 4, 2.7)
        want = kernel_oracle(1.0, 1.0 - delta, 4, 2.7)
        assert got == pytest.approx(want, rel=1e-11), delta


def _k_general_delta(r, delta, rho, n, mu, nodes):
    """The scalar per-delta kernel that the batched _k_jacobi replaced: its reference."""
    b = (n - 3.0) / 2.0
    eps = delta * delta / (2.0 * r * rho)
    X, W = _jacobi_unit(min(nodes, 48), b)
    j2 = float(W @ ((2.0 - X) ** b * (eps + 2.0 - X) ** (-mu / 2.0)))
    if eps >= 1.0:
        j1 = float(W @ ((2.0 - X) ** b * (eps + X) ** (-mu / 2.0)))
    else:
        xe = eps * X
        j1 = eps ** (b + 1.0) * float(W @ ((2.0 - xe) ** b * (eps + xe) ** (-mu / 2.0)))
        xg, wg = _gauss_legendre(24)
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
        for mu in (0.4 * n, n - 1.0, n - 0.5):  # mu < N-1 and N-1 <= mu < N
            for side in (-1, 1):
                delta = _near_deltas(r, side, n - mu, 60)
                rho = r + side * delta
                assert np.max(delta * delta / (2.0 * r * rho)) == pytest.approx(0.25)
                got = _kernel_near(r, delta, side, n, mu, 64)
                want = np.array([_k_general_delta(r, d, p, n, mu, 64)
                                 for d, p in zip(delta, rho)])
                assert np.all(np.isfinite(want))
                assert np.max(np.abs(got / want - 1.0)) <= 1e-14, (n, mu, side)


def test_batched_near_kernel_underflowed_eps_is_nan_and_isolated():
    # eps = delta^2/(2 r rho) underflows to 0 below delta ~ 1e-162; its dyadic
    # levels would never reach 1, so it is left out rather than stalling the batch
    delta = np.array([1e-200, 1e-3, 0.1])
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _kernel_near(1.0, delta, -1, 4, 2.0, 64)
    assert math.isnan(got[0])
    assert got[1:] == pytest.approx([kernel_oracle(1.0, 1.0 - d, 4, 2.0) for d in delta[1:]],
                                    rel=1e-11)


def test_jacobi_path_at_dim_three_matches_closed_form():
    r = 0.9
    for mu in (0.5, 1.5, 2.0, 2.5, 2.7):
        for side in (-1, 1):
            delta = _near_deltas(r, side, 3.0 - mu, 80)
            rho = r + side * delta
            got = _k_jacobi(r, rho, delta, 3, mu, 64)
            want = _k3(r, rho, delta, mu)
            assert np.max(np.abs(got / want - 1.0)) <= 1e-13, (mu, side)


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
    with pytest.raises(DomainError):
        angular_kernel(1.0, 1.0, 3, 3.5)  # mu >= N
    with pytest.raises(DomainError):
        angular_kernel(1.0, 1.0, 3, 0.0)
    with pytest.raises(DomainError):
        angular_kernel(-1.0, 1.0, 3, 2.0)
    for r, rho, n in ((math.nan, 1.0, 4), (math.inf, 1.0, 4), (1.0, math.nan, 3),
                      (1.0, math.inf, 3), (1.0, -math.inf, 4)):
        with pytest.raises(DomainError):
            angular_kernel(r, rho, n, 2.0)


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


@pytest.mark.parametrize("n, alpha, a, tol", [(3, 1.0, 1.8, 1e-7), (4, 1.5, 2.9, 1e-6)])
@pytest.mark.parametrize("window, live", [
    ((0.01, 0.3), 3),  # entirely below r: g_lo, g_left, g_right
    ((3.0, 100.0), 3),  # entirely above r: g_left, g_right, g_hi
    ((0.01, 100.0), 4),  # straddling r: every row
    ((0.7, 1.5), 2),  # within (r/2, 2r): the near-diagonal pair only
])
def test_riesz_region_selection(monkeypatch, n, alpha, a, tol, window, live):
    at = np.array([1.0, 1.1])
    calls = []
    adaptive = radial_quadrature._adaptive_gl

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(radial_quadrature, "_adaptive_gl", counted)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, a), log_grid(*window, 40))
    got = riesz_radial(prof, alpha, n, at=at)
    assert len(calls) == live * at.size
    assert np.max(np.abs(got.values / riesz_power(alpha, a, n)(at) - 1.0)) < tol


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
    with pytest.raises(DomainError):
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
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_panels=16)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 2.5), log_grid())
    with pytest.raises(ConvergenceError) as exc:
        riesz_radial(prof, 0.5, 3, cfg=cfg, at=np.array([0.5, 1.0]))
    assert exc.value.worst_radius in (0.5, 1.0)


def test_riesz_convergence_error_names_a_radius_when_estimates_are_nan():
    # at N=5, alpha=0.3 the near-diagonal integrand overflows, so every failing
    # radius has a NaN error estimate; NaN must rank worst, not leave the radius unset
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 4.5), log_grid(1e-3, 1e3, 100))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError) as exc:
        riesz_radial(prof, 0.3, 5, cfg=QuadratureConfig(max_panels=64), at=[1.0, 2.0])
    assert exc.value.worst_radius in (1.0, 2.0)


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
# Finite-difference Laplacian


def test_fd_laplacian_power_law():
    grid = log_grid(1e-3, 1e3, 401)
    prof = RadialProfile.from_power(PowerLawTerm(1.0, 0.5), grid)
    value, err = laplacian_radial_fd(prof, 1.0, 3)
    assert value == pytest.approx(0.25, rel=1e-4)
    assert abs(value - 0.25) <= err


def test_fd_laplacian_trivial_cases():
    grid = log_grid(0.1, 10.0, 201)
    const = RadialProfile(grid, np.full_like(grid, 3.0))
    v, _ = laplacian_radial_fd(const, 1.0, 3)
    assert abs(v) < 1e-9
    quadratic = RadialProfile(grid, grid ** 2)
    v, _ = laplacian_radial_fd(quadratic, 1.0, 3)
    assert v == pytest.approx(-6.0, rel=1e-4)
    v, _ = laplacian_radial_fd(quadratic, 1.0, 4)
    assert v == pytest.approx(-8.0, rel=1e-4)


def test_fd_laplacian_domain_errors():
    grid = log_grid(0.1, 10.0, 101)
    prof = RadialProfile(grid, grid ** -1.0)
    with pytest.raises(DomainError):
        laplacian_radial_fd(prof, 1.0033, 3)  # not a node
    with pytest.raises(DomainError):
        laplacian_radial_fd(prof, float(grid[1]), 3)  # too close to the edge
    with pytest.raises(DomainError):
        laplacian_radial_fd(prof, -1.0, 3)
    ragged = RadialProfile(np.array([0.1, 0.2, 0.5, 1.0, 4.0]), np.ones(5))
    with pytest.raises(DomainError):
        laplacian_radial_fd(ragged, 0.5, 3)
    short = RadialProfile(np.array([1.0, 2.0]), np.ones(2))
    with pytest.raises(DomainError):
        laplacian_radial_fd(short, 1.0, 3)
