"""End-to-end residual verification of the singular solution family.

For u = A r^(-s) the equation -Lap u = (integral |u|^p/|x-y|^mu dy) |u|^q
reduces to comparing two power laws:

    lhs(r) = A s(N-2-s) r^(-s-2),
    rhs(r) = gamma(N-mu) * I_(N-mu)(u^p)(r) * A^q r^(-s q),

where the potential factor is evaluated by radial quadrature rather than by
the closed form, so the comparison exercises the full numeric path. The
decay/amplitude overrides run the same pipeline with off-family parameters
(the rhs profile is then truncated where its power law is not integrable),
which is how the variant decay formula is exhibited as a non-solution.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, IterationError
from .power_law import PowerLawTerm, laplacian_power
from .radial_quadrature import (
    RadialProfile,
    _check_radii,
    _check_tail_windows,
    inverse_laplacian_radial,
    log_grid,
    riesz_radial,
)
from .special_fn import _check_count, riesz_gamma

# a power-law tail is attached only when strictly inside its integrability
# window; at the boundary the integral diverges and truncation is reported
_WINDOW_GUARD = 1e-12

# fixed_point_iterate measures its per-step changes on grid radii in this range
_CHANGE_WINDOW = (0.1, 10.0)


@dataclass
class ResidualReport:
    """Pointwise residual comparison lhs vs rhs at the requested radii.

    quadrature_error is the relative error estimate of the potential factor
    (quadrature plus truncation, infinite when a truncated side diverges).
    """

    radii: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    quadrature_error: np.ndarray
    decay: float
    amplitude: float

    @property
    def worst_deviation(self):
        return float(np.max(np.abs(self.ratio - 1.0)))


def source_profile(params, grid=None):
    """The profile |u|^p = A^p r^(-sp) sampled on the working grid.

    Tails are attached only on the sides where the integral against the Riesz
    kernel converges (inner needs sp < N, outer needs sp > N - mu); a missing
    tail makes the potential quadrature run in truncation mode.
    """
    n = params.dim
    alpha = n - params.mu
    if grid is None:
        grid = log_grid()
    term = PowerLawTerm(params.amplitude, params.s).powered(params.p)
    sp = term.exponent
    tail_in = term if sp < n - _WINDOW_GUARD else None
    tail_out = term if sp > alpha + _WINDOW_GUARD else None
    with np.errstate(over="ignore"):  # the constructor rejects inf
        values = term(grid)
    return RadialProfile(grid, values, tail_in, tail_out)


def verify_solution(params, radii=(0.5, 1.0, 2.0), cfg=None, *, decay=None,
                    amplitude=None, grid=None):
    """Compare -Lap u against the nonlocal right-hand side at the given radii.

    params should come from solve_params; the decay and amplitude keyword
    overrides replace s and A for diagnostic runs. They pass the ModelParams
    checks and no family window, since the point of the diagnostic mode is to
    watch an off-family pair fail.
    Radii must be strictly increasing and strictly inside the working grid.
    """
    params = replace(params, s=params.s if decay is None else float(decay),
                     amplitude=params.amplitude if amplitude is None else float(amplitude))
    n, s, amp = params.dim, params.s, params.amplitude
    alpha = n - params.mu
    radii = _check_radii(radii)
    f = source_profile(params, grid)
    if not (radii[0] > f.radii[0] and radii[-1] < f.radii[-1]):
        raise DomainError(
            f"radii must lie strictly inside the working grid "
            f"[{f.radii[0]}, {f.radii[-1]}]"
        )
    pot = riesz_radial(f, alpha, n, cfg=cfg, at=radii)
    # inf and NaN are rejected below; np.float64 makes A^q overflow to inf,
    # where a float power would raise OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = (riesz_gamma(alpha, n) * pot.values * np.float64(amp) ** params.q
               * radii ** (-s * params.q))
        lhs = amp * laplacian_power(s, n)(radii)
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs)) and np.all(rhs != 0.0)):
        raise DomainError(f"lhs and rhs must be finite and rhs nonzero at every radius, "
                          f"got lhs={lhs.tolist()}, rhs={rhs.tolist()}")
    return ResidualReport(
        radii=radii,
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs,
        quadrature_error=pot.point_errors,
        decay=s,
        amplitude=amp,
    )


def fixed_point_iterate(params, init=None, steps=5):
    """Picard iteration u <- (-Lap)^(-1)[gamma(N-mu) I(u^p) u^q].

    The exact solution is a fixed point; the map is expansive in the decay
    exponent (a perturbed tail exponent moves geometrically away from s), so
    this is a stationarity probe, not a solver. init defaults to the exact
    profile on the default grid and must be positive with power-law tails on
    both sides passing the entry gates p*a_in < N and p*a_out > N - mu; any
    divergence deeper in the pipeline (for instance the source outer moment
    reaching exponent <= 2) surfaces as an IterationError carrying the step.
    The Riesz step runs at DEFAULT_CONFIG; the Newton step takes one G12/K25
    panel per grid interval.
    Returns (final profile, per-step relative sup changes on the grid radii
    in [0.1, 10]); an init grid with no radius there raises DomainError.
    """
    n = params.dim
    alpha = n - params.mu
    steps = _check_count("steps", steps, 0)
    if init is None:
        init = RadialProfile.from_power(
            PowerLawTerm(params.amplitude, params.s), log_grid()
        )
    if init.tail_inner is None or init.tail_outer is None:
        raise DomainError("iteration needs power-law tails on both sides of the init")
    if not np.all(init.values > 0.0):
        raise DomainError("iteration needs a positive init")
    _check_tail_windows(init.power(params.p), alpha, n)

    gam = riesz_gamma(alpha, n)
    sel = (init.radii >= _CHANGE_WINDOW[0]) & (init.radii <= _CHANGE_WINDOW[1])
    if not sel.any():
        raise DomainError(f"window {_CHANGE_WINDOW} contains no grid radii")
    u = init
    history = []
    for k in range(steps):
        if not np.all(u.values > 0.0):
            raise IterationError("iterate lost positivity", k)
        try:
            src = riesz_radial(u.power(params.p), alpha, n)
            src = src.scale(gam).multiply(u.power(params.q))
            v = inverse_laplacian_radial(src, n)
        except DomainError as exc:
            raise IterationError(str(exc), k) from exc
        history.append(float(np.max(np.abs(v.values[sel] - u.values[sel])
                                    / np.abs(u.values[sel]))))
        u = v
    return u, history
