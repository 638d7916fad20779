"""Closed-form calculus on power laws |x|^(-a).

Covers the Laplacian coefficient identity -Lap |x|^(-s) = s(N-2-s)|x|^(-s-2),
the Riesz potential of a power law, the parameter system for the explicit
singular solution family A|x|^(-s) of

    -Lap u = ( integral |u(y)|^p / |x-y|^mu dy ) * |u|^q,

and the convolution-inequality exponent bookkeeping.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .special_fn import _check_dim, _check_window, gamma, riesz_gamma

# gamma(arg) loses all relative accuracy within ~1e-9 of the endpoints of (0, N),
# where it vanishes or blows up; quotients of such values are rejected outright.
GAMMA_MARGIN = 1e-9


@dataclass(frozen=True)
class PowerLawTerm:
    """The function coefficient * |x|^(-exponent)."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if not (math.isfinite(self.coefficient) and math.isfinite(self.exponent)):
            raise DomainError(
                f"power-law term must be finite, got {self.coefficient}*r^-{self.exponent}"
            )

    def __call__(self, r):
        return self.coefficient * r ** (-self.exponent)

    def scaled(self, c):
        return PowerLawTerm(self.coefficient * c, self.exponent)

    def powered(self, e):
        """(c r^-a)^e = c^e r^(-a e) for finite e; non-integer e needs a positive coefficient."""
        if not (math.isfinite(e) and (self.coefficient > 0.0 or e == int(e))):
            raise DomainError(f"power {e} of {self} must be finite, and an integer unless c > 0")
        try:
            coefficient = self.coefficient ** e
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"{self.coefficient!r} ** {e!r} is not a finite number") from None
        return PowerLawTerm(coefficient, self.exponent * e)

    def times(self, other):
        return PowerLawTerm(self.coefficient * other.coefficient, self.exponent + other.exponent)


def laplacian_power(s, dim):
    """-Lap |x|^(-s) = s(N-2-s) |x|^(-s-2), total on real s."""
    n = _check_dim(dim)
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"decay exponent must be finite, got {s}")
    return PowerLawTerm(s * (n - 2.0 - s), s + 2.0)


def riesz_power(alpha, a, dim):
    """I_alpha(|x|^(-a)) = [gamma(N-a)/gamma(N-a+alpha)] |x|^(-(a-alpha)).

    Valid on 0 < alpha < N and alpha < a < N, which keeps both gamma arguments
    inside (0, N) and the result exponent a-alpha inside (0, N).
    """
    n = _check_dim(dim)
    alpha = _check_window("alpha", alpha, n)
    a = float(a)
    if not alpha < a:
        raise DomainError(
            f"riesz_power requires a > alpha (integral diverges at infinity), got a={a}, alpha={alpha}"
        )
    if not a < n:
        raise DomainError(
            f"riesz_power requires a < N (integral diverges at the origin), got a={a}, N={n}"
        )
    _check_gamma_margin(n - a, n)
    _check_gamma_margin(n - a + alpha, n)
    # the powers of 2 and pi cancel; Gamma((a - alpha)/2) is taken from a - alpha
    # itself, since N - (N - a + alpha) after rounding loses ulp(N)/(a - alpha)
    coefficient = (2.0 ** -alpha * gamma((n - a) / 2.0) * gamma((a - alpha) / 2.0)
                   / (gamma(a / 2.0) * gamma((n - a + alpha) / 2.0)))
    return PowerLawTerm(coefficient, a - alpha)


@dataclass(frozen=True)
class ModelParams:
    """Parameters (N, mu, p, q) with the derived decay s and amplitude A.

    Every instance, solve_params's or one built by hand, must have an integer
    N >= 3, 0 < mu < N, finite p, q and s, and 0 < A < inf; DomainError
    otherwise.
    """

    dim: int
    mu: float
    p: float
    q: float
    s: float
    amplitude: float

    def __post_init__(self):
        _check_window("mu", self.mu, _check_dim(self.dim))
        for name in ("p", "q", "s"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {name}={getattr(self, name)}")
        if not 0.0 < self.amplitude < math.inf:
            raise DomainError(f"amplitude must satisfy 0 < A < inf, got A={self.amplitude}")

    @property
    def symmetry_window(self):
        """Whether mu lies in (N-2, N), the stricter kernel window required by the
        symmetry and monotonicity statements (the family itself only needs 0 < mu < N)."""
        return self.dim - 2.0 < self.mu < self.dim

    @property
    def sp(self):
        return self.s * self.p

    @property
    def sq1(self):
        return self.s * (self.q - 1.0)


def decay_exponent(dim, mu, p, q):
    """s = (N - mu + 2)/(p + q - 1), the decay forced by exponent matching.

    Matching -Lap(A|x|^-s) = A^(p+q) C |x|^(sp - (N-mu) + sq) term by term gives
    N - 2 + s(q-1) = 2N - mu - sp, i.e. s(p+q-1) = N - mu + 2.
    """
    n = _check_dim(dim)
    if p + q <= 1.0:
        raise DomainError(f"decay exponent needs p+q > 1, got p={p}, q={q}")
    return (n - float(mu) + 2.0) / (float(p) + float(q) - 1.0)


def alternate_decay_exponent(dim, mu, p, q):
    """The variant formula s = (N - mu + 2)/(p - q + 1), with q entering by -q.

    This variant circulates alongside the correct one but does not satisfy the
    equation when p != q; the verifier exhibits the mismatch numerically. It is
    kept only for diagnostic comparison and is never used to build solutions.
    """
    n = _check_dim(dim)
    den = float(p) - float(q) + 1.0
    if den == 0.0:
        raise DomainError("variant decay formula undefined at p - q + 1 = 0")
    return (n - float(mu) + 2.0) / den


def solve_params(dim, mu, p, q):
    """Solve the parameter system for the singular solution family.

    Returns ModelParams with s = (N-mu+2)/(p+q-1) and

        A = [ s(N-2-s) gamma(N-2+s(q-1)) / (gamma(N-mu) gamma(N-sp)) ]^(1/(p+q-1)).

    Every violated window constraint is collected and reported together in a
    single ValidationError rather than failing on the first one.
    """
    n = _check_dim(dim)
    mu = _check_window("mu", mu, n)
    p, q = float(p), float(q)
    for name, x in (("p", p), ("q", q)):
        if not (math.isfinite(x) and x >= 1.0):
            raise DomainError(f"{name} must be >= 1, got {x}")

    s = decay_exponent(n, mu, p, q)
    sp = s * p
    sq1 = s * (q - 1.0)

    violations = []
    if not 0.0 < sp < n:
        violations.append(f"0 < s*p < N fails: s*p = {sp!r}, N = {n}")
    if not 2.0 - n < sq1 < 2.0:
        violations.append(f"2-N < s*(q-1) < 2 fails: s*(q-1) = {sq1!r}, N = {n}")
    if not 0.0 < s < n - 2.0:
        violations.append(f"0 < s < N-2 fails: s = {s!r}, N = {n}")
    # amplitude gamma arguments must stay clear of the endpoints of (0, N)
    for label, arg in (
        (f"gamma argument N-2+s(q-1) = {n - 2.0 + sq1!r}", n - 2.0 + sq1),
        (f"gamma argument N-mu = {n - mu!r}", n - mu),
        (f"gamma argument N-s*p = {n - sp!r}", n - sp),
    ):
        if not GAMMA_MARGIN <= arg <= n - GAMMA_MARGIN:
            violations.append(f"{label} outside [{GAMMA_MARGIN}, N-{GAMMA_MARGIN}]")
    if violations:
        raise ValidationError(violations)

    bracket = (
        s * (n - 2.0 - s) * riesz_gamma(n - 2.0 + sq1, n)
        / (riesz_gamma(n - mu, n) * riesz_gamma(n - sp, n))
    )
    amplitude = bracket ** (1.0 / (p + q - 1.0))
    return ModelParams(dim=n, mu=mu, p=p, q=q, s=s, amplitude=amplitude)


def critical_exponents(dim, mu):
    """The pair ((2N-mu)/N, (2N-mu)/(N-2)) bounding admissible nonlinearities."""
    n = _check_dim(dim)
    mu = _check_window("mu", mu, n)
    return (2.0 * n - mu) / n, (2.0 * n - mu) / (n - 2.0)


@dataclass(frozen=True)
class HlsExponents:
    """Conjugate pair (t, r) with 1/t + 1/r + mu/N = 2 and both exponents > 1."""

    t: float
    r: float
    mu: float
    dim: int


def hls_conjugate(t, mu, dim):
    """r solving 1/t + 1/r + mu/N = 2 for the convolution inequality.

    Requires t > 1, 0 < mu < N, and the side condition
    1 - 1/t - mu/N < 0 < 1 - 1/t, which is exactly r > 1 together with t > 1.
    """
    n = _check_dim(dim)
    t = float(t)
    mu = _check_window("mu", mu, n)
    if not (math.isfinite(t) and t > 1.0):
        raise DomainError(f"side condition 0 < 1 - 1/t fails: t = {t} must exceed 1")
    rest = 2.0 - 1.0 / t - mu / n
    # 1 - 1/t - mu/N < 0 is the same as rest < 1, i.e. r = 1/rest > 1
    if rest <= 0.0 or 1.0 / rest <= 1.0:
        raise DomainError(
            f"side condition 1 - 1/t - mu/N < 0 fails: r = 1/(2 - 1/t - mu/N) must exceed 1, "
            f"got 2 - 1/t - mu/N = {rest!r}"
        )
    r = 1.0 / rest
    return HlsExponents(t=t, r=r, mu=mu, dim=n)


def _check_gamma_margin(arg, dim):
    if not GAMMA_MARGIN <= arg <= dim - GAMMA_MARGIN:
        raise DomainError(
            f"gamma argument {arg!r} within {GAMMA_MARGIN} of the endpoints of (0, {dim}); "
            "the quotient would lose all accuracy"
        )
