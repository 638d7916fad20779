"""Real gamma function and the Riesz normalization constant.

The normalization gamma_riesz(alpha) = 2^alpha pi^(N/2) Gamma(alpha/2) / Gamma((N-alpha)/2)
makes the Fourier symbol of the Riesz potential I_alpha equal (2 pi |xi|)^(-alpha);
in particular gamma_riesz(2, 3) = 4 pi, the Newton-potential normalization in R^3.
"""

import math
import numbers

from .errors import DomainError


def gamma(z):
    """Gamma(z) for real z > 0.

    Raises DomainError for non-positive or non-finite arguments; no analytic
    continuation is provided because every formula here keeps its gamma
    arguments positive.
    """
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"gamma requires finite z > 0, got {z}")
    try:
        return math.gamma(z)
    except OverflowError:  # z above about 171.6
        return math.inf


def riesz_gamma(alpha, dim):
    """Normalization constant gamma(alpha) = 2^alpha pi^(N/2) Gamma(alpha/2) / Gamma((N-alpha)/2).

    Requires 0 < alpha < N and integer N >= 3. Strictly positive on that window;
    it blows up as alpha -> 0+ (numerator pole) and vanishes as alpha -> N-.
    """
    n = _check_dim(dim)
    alpha = _check_window("alpha", alpha, n)
    return 2.0 ** alpha * math.pi ** (n / 2.0) * gamma(alpha / 2.0) / gamma((n - alpha) / 2.0)


def sphere_area(dim):
    """Surface area of the unit sphere S^(N-1) in R^N: 2 pi^(N/2) / Gamma(N/2)."""
    n = _check_dim(dim, minimum=2)
    return 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)


def _check_dim(dim, minimum=3):
    return _check_count("dimension", dim, minimum)


def _check_window(name, x, n):
    """float(x), which must satisfy 0 < x < N; NaN and +-inf fail the chained comparison."""
    x = float(x)
    if not 0.0 < x < n:
        raise DomainError(f"{name} must satisfy 0 < {name} < N={n}, got {name}={x}")
    return x


def _check_count(name, value, least):
    """Node, panel, sample and step counts: integers >= least, not bools (integral floats pass)."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and float(value).is_integer() and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)
