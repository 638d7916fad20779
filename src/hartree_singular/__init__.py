"""Singular solutions of the nonlocal Hartree equation.

Explicit power-law solutions u = A|x|^(-s) of

    -Lap u = ( integral |u(y)|^p / |x-y|^mu dy ) |u|^q   on R^N \\ {0},

their parameter windows, numerical verification by radial quadrature of the
Riesz potential, and a discrete moving-plane check of reflection symmetry
and monotonicity for multi-center singular configurations.
"""

from .errors import ConvergenceError, DomainError, IterationError, ValidationError
from .moving_plane import (
    CartesianField,
    MovingPlaneReport,
    default_lambda_grid,
    reflect,
    sample_field,
    sweep_lambda0,
    w_plus_sup,
)
from .power_law import (
    GAMMA_MARGIN,
    HlsExponents,
    ModelParams,
    PowerLawTerm,
    alternate_decay_exponent,
    critical_exponents,
    decay_exponent,
    hls_conjugate,
    laplacian_power,
    riesz_power,
    solve_params,
)
from .radial_quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    RadialProfile,
    angular_kernel,
    inverse_laplacian_radial,
    log_grid,
    riesz_radial,
)
from .special_fn import gamma, riesz_gamma, sphere_area
from .verifier import ResidualReport, fixed_point_iterate, source_profile, verify_solution

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "IterationError",
    "ValidationError",
    "CartesianField",
    "MovingPlaneReport",
    "default_lambda_grid",
    "reflect",
    "sample_field",
    "sweep_lambda0",
    "w_plus_sup",
    "GAMMA_MARGIN",
    "HlsExponents",
    "ModelParams",
    "PowerLawTerm",
    "alternate_decay_exponent",
    "critical_exponents",
    "decay_exponent",
    "hls_conjugate",
    "laplacian_power",
    "riesz_power",
    "solve_params",
    "DEFAULT_CONFIG",
    "QuadratureConfig",
    "RadialProfile",
    "angular_kernel",
    "inverse_laplacian_radial",
    "log_grid",
    "riesz_radial",
    "gamma",
    "riesz_gamma",
    "sphere_area",
    "ResidualReport",
    "fixed_point_iterate",
    "source_profile",
    "verify_solution",
    "__version__",
]
