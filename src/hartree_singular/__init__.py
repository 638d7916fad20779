"""Singular solutions of the nonlocal Hartree equation.

Explicit power-law solutions u = A|x|^(-s) of

    -Lap u = ( integral |u(y)|^p / |x-y|^mu dy ) |u|^q   on R^N \\ {0},

their parameter windows, numerical verification by radial quadrature of the
Riesz potential, and a discrete moving-plane check of reflection symmetry
and monotonicity for multi-center singular configurations.

Each public name is imported from its module on first access (PEP 562), so
``import hartree_singular`` and the scalar power-law functions load only the
standard library; numpy loads with the first numpy-backed name.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name -> its defining module, in __all__ order.
_EXPORTS = {
    **dict.fromkeys(("ConvergenceError", "DomainError", "IterationError", "ValidationError"),
                    "errors"),
    **dict.fromkeys(("CartesianField", "MovingPlaneReport", "default_lambda_grid", "reflect",
                     "sample_field", "sweep_lambda0", "w_plus_sup"), "moving_plane"),
    **dict.fromkeys(("GAMMA_MARGIN", "HlsExponents", "ModelParams", "PowerLawTerm",
                     "alternate_decay_exponent", "critical_exponents", "decay_exponent",
                     "hls_conjugate", "laplacian_power", "riesz_power", "solve_params"),
                    "power_law"),
    **dict.fromkeys(("DEFAULT_CONFIG", "QuadratureConfig", "RadialProfile", "angular_kernel",
                     "inverse_laplacian_radial", "log_grid", "riesz_radial"),
                    "radial_quadrature"),
    **dict.fromkeys(("gamma", "riesz_gamma", "sphere_area"), "special_fn"),
    **dict.fromkeys(("ResidualReport", "fixed_point_iterate", "source_profile",
                     "verify_solution"), "verifier"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
