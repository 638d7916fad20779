"""Riesz potentials, Newton potentials, and Laplacians of radial functions.

Profiles are sampled on log-spaced grids and carry analytic power-law tail
descriptors; mass outside the sampled window is integrated in closed form
against the tails. The angular reduction of the convolution kernel
|x-y|^(-mu) against radial data is

    K(r, rho) = int over S^(N-1) of |r e1 - rho w|^(-mu) dsigma(w)

so that int f(|y|) |x-y|^(-mu) dy = int_0^inf f(rho) rho^(N-1) K(r, rho) drho.
K has an integrable singularity across rho = r (a genuine pole of the
spherical average when mu >= N-1), which is absorbed by the exponential
substitution rho = r(1 +- e^(-t)) so the split-point panels stay analytic.
"""

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .power_law import PowerLawTerm, riesz_power
from .special_fn import _check_count, _check_dim, _check_window, riesz_gamma, sphere_area

TAIL_CONTINUITY = 0.05  # tail descriptor must match the boundary sample to 5%

_FLOAT_TINY = np.finfo(float).tiny  # the smallest normal float
_LOG_FLOAT_MAX, _LOG_FLOAT_TINY = math.log(np.finfo(float).max), math.log(_FLOAT_TINY)


@dataclass(frozen=True)
class QuadratureConfig:
    """The relative tolerance and panel budget shared by every adaptive integral."""

    rel_tol: float = 1e-8
    max_panels: int = 2000

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise DomainError("quadrature tolerance must be positive and finite")
        _check_count("max_panels", self.max_panels, 16)


DEFAULT_CONFIG = QuadratureConfig()


def log_grid(r_min=1e-3, r_max=1e3, num=400):
    """Log-spaced radii, the default sampling for power-law profiles."""
    if not 0.0 < r_min < r_max < math.inf:
        raise DomainError(f"need 0 < r_min < r_max < inf, got {r_min}, {r_max}")
    return np.geomspace(r_min, r_max, _check_count("num", num, 2))


class RadialProfile:
    """A radial function sampled on a strictly increasing positive grid.

    tail_inner / tail_outer are PowerLawTerm descriptors valid below radii[0]
    and above radii[-1]; each must agree with its boundary sample within 5%
    relative. Off-grid queries inside the window use monotone cubic (PCHIP)
    interpolation in log-log coordinates, falling back to log-linear abscissae
    with raw values when the data is not strictly positive. Queries beyond the
    window require the corresponding tail. A negative or NaN query radius
    raises DomainError; r = 0 is allowed and takes the inner tail's value.
    """

    def __init__(self, radii, values, tail_inner=None, tail_outer=None, point_errors=None):
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape:
            raise DomainError("radii and values must be 1-d arrays of equal length")
        if radii.size < 2:
            raise DomainError("a profile needs at least two samples")
        if not (radii[0] > 0.0 and radii[-1] < math.inf and np.all(np.diff(radii) > 0.0)):
            raise DomainError("radii must be strictly increasing, positive and finite")
        if not np.all(np.isfinite(values)):
            raise DomainError("profile values must be finite")
        if tail_inner is not None:
            _check_tail_continuity(tail_inner, radii[0], values[0], "inner")
        if tail_outer is not None:
            _check_tail_continuity(tail_outer, radii[-1], values[-1], "outer")
        self.radii = radii
        self.values = values
        self.tail_inner = tail_inner
        self.tail_outer = tail_outer
        self.point_errors = None if point_errors is None else np.asarray(point_errors, dtype=float)
        self._positive = bool(np.all(values > 0.0))
        self._interp = None

    @classmethod
    def from_power(cls, term, radii):
        """Sample coefficient*r^-exponent exactly, tails attached on both sides."""
        radii = np.asarray(radii, dtype=float)
        with np.errstate(over="ignore"):  # the constructor rejects inf
            values = term(radii)
        return cls(radii, values, tail_inner=term, tail_outer=term)

    def _interpolator(self):
        if self._interp is None:
            x = np.log(self.radii)
            if self._positive:
                base = _pchip(x, np.log(self.values))
                self._interp = lambda lr: np.exp(base(lr))
            else:
                self._interp = _pchip(x, self.values)
        return self._interp

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if not np.all(r >= 0.0):
            raise DomainError(f"query radius must be nonnegative, got {r[~(r >= 0.0)][0]}")
        out = np.empty_like(r)
        below = r < self.radii[0]
        above = r > self.radii[-1]
        inside = ~(below | above)
        if below.any():
            if self.tail_inner is None:
                raise DomainError(
                    f"query at r={r[below].min()} below the sampled window and no inner tail"
                )
            with np.errstate(divide="ignore"):  # r = 0 gives inf for a decaying tail
                out[below] = self.tail_inner(r[below])
        if above.any():
            if self.tail_outer is None:
                raise DomainError(
                    f"query at r={r[above].max()} above the sampled window and no outer tail"
                )
            out[above] = self.tail_outer(r[above])
        if inside.any():
            out[inside] = self._interpolator()(np.log(r[inside]))
        return float(out[0]) if scalar else out

    def power(self, e):
        """Pointwise power, tails transformed exactly: (c r^-a)^e = c^e r^-(a e); e finite."""
        e = float(e)
        if not (math.isfinite(e) and (self._positive or e == int(e))):
            raise DomainError(f"profile power {e} must be finite, and an integer unless values > 0")
        with np.errstate(over="ignore", divide="ignore"):  # the constructor rejects inf
            values = self.values ** e
        return RadialProfile(
            self.radii, values,
            None if self.tail_inner is None else self.tail_inner.powered(e),
            None if self.tail_outer is None else self.tail_outer.powered(e),
        )

    def scale(self, c):
        c = float(c)
        return RadialProfile(
            self.radii, self.values * c,
            None if self.tail_inner is None else self.tail_inner.scaled(c),
            None if self.tail_outer is None else self.tail_outer.scaled(c),
        )

    def multiply(self, other):
        """Pointwise product; profiles must share the same grid."""
        if not np.array_equal(self.radii, other.radii):
            raise DomainError("profiles must share the same grid to multiply")
        pairs = ((self.tail_inner, other.tail_inner), (self.tail_outer, other.tail_outer))
        ti, to = (None if a is None or b is None else a.times(b) for a, b in pairs)
        return RadialProfile(self.radii, self.values * other.values, ti, to)

    def mix(self, other, w_self, w_other):
        """Weighted sum w_self*self + w_other*other on a shared grid.

        A zero weight drops that profile, tail and all. Tails of equal
        exponent combine linearly; otherwise the slower-decaying (dominant)
        exponent is kept with its coefficient refitted to the mixed boundary
        sample, so the descriptor stays continuous.
        """
        if not np.array_equal(self.radii, other.radii):
            raise DomainError("profiles must share the same grid to mix")
        values = w_self * self.values + w_other * other.values
        ti = _mix_tails(self.tail_inner, other.tail_inner, w_self, w_other,
                        self.radii[0], values[0], inner=True)
        to = _mix_tails(self.tail_outer, other.tail_outer, w_self, w_other,
                        self.radii[-1], values[-1], inner=False)
        return RadialProfile(self.radii, values, ti, to)


def _pchip(x, y):
    """Monotone cubic (PCHIP) interpolant of y(x) for queries in [x[0], x[-1]].

    Interior slopes are the weighted harmonic mean of Fritsch & Carlson (SIAM
    J. Numer. Anal. 17 (1980) 238), zero at a local extremum; end slopes use
    the shape-preserving three-point rule of Moler's pchiptx. Coefficients and
    power-form evaluation repeat scipy's PCHIP step by step, so the values are
    bit-identical to it.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        same = np.sign(m[1:]) * np.sign(m[:-1]) > 0.0  # no extremum or flat run
        d = np.zeros_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):  # masked out by `same`
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(same, 1.0 / whmean, 0.0)
        d[0] = _pchip_end(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]
    inner = x[1:-1]

    def evaluate(q):
        i = np.searchsorted(inner, q, side="right")
        s = q - x.take(i)
        s2 = s * s
        return c3.take(i) + c2.take(i) * s + c1.take(i) * s2 + c0.take(i) * (s2 * s)

    return evaluate


def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point end slope, clipped to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _tail_jumps(tv, v_edge):
    """True when a tail value misses its boundary sample by more than TAIL_CONTINUITY."""
    return abs(tv - v_edge) > TAIL_CONTINUITY * max(abs(v_edge), abs(tv), 1e-300)


def _check_tail_continuity(term, r_edge, v_edge, which):
    tv = term(r_edge)
    if _tail_jumps(tv, v_edge):
        raise DomainError(
            f"{which} tail descriptor discontinuous at r={r_edge}: "
            f"tail gives {tv}, sample is {v_edge}"
        )


def _mix_tails(t1, t2, w1, w2, r_edge, v_edge, inner):
    if w1 == 0.0 or w2 == 0.0:  # a zero weight drops its profile, tail and all
        t, w = (t2, w2) if w1 == 0.0 else (t1, w1)
        return None if t is None else t.scaled(w)
    if t1 is None or t2 is None:
        return None
    if abs(t1.exponent - t2.exponent) <= 1e-12 * max(1.0, abs(t1.exponent)):
        return PowerLawTerm(w1 * t1.coefficient + w2 * t2.coefficient, t1.exponent)
    # keep the exponent that dominates in the tail's own limit
    if inner:
        a = max(t1.exponent, t2.exponent)
    else:
        a = min(t1.exponent, t2.exponent)
    return PowerLawTerm(v_edge * r_edge ** a, a)


# ---------------------------------------------------------------------------
# Gauss rule


@functools.cache
def _gauss_kronrod(n):
    """Gauss-Legendre rule G_n and its Kronrod extension K_(2n+1) on [-1, 1].

    Returns (x, wg, wk): the 2n + 1 nodes with the n Gauss nodes first, the
    G_n weights of x[:n] and the K_(2n+1) weights of x. Laurie's algorithm
    (Math. Comp. 66 (1997) 1133) extends the Legendre recurrence b_k =
    k^2/(4k^2 - 1) to the Jacobi-Kronrod matrix, whose diagonal stays 0 for
    an even weight, and the nodes are its eigenvalues. Two Newton steps on
    the matrix's three-term recurrence polish them, and both weight sets are
    Christoffel sums 2 / sum q_k(x)^2 of its orthonormal polynomials at the
    polished nodes, k < n for G_n: the eigenvector weights of Golub-Welsch
    were up to 300 units in the last place off at the end nodes. The only
    rule builder: G12/K25 for the panels, G16 for the near kernel's log-w
    panels and K49 for its series' moments.
    """
    b = np.zeros(2 * n + 1)
    k = np.arange(1.0, math.ceil(1.5 * n) + 1.0)
    b[0], b[1:k.size + 1] = 2.0, k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - (m - k)
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    root = np.sqrt(b)

    def recurrence(x):
        """Rows q_0 .. q_2n at x, the characteristic polynomial and its derivative."""
        q0, q1, d0, d1 = np.zeros_like(x), np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
        rows = [q1]
        for k in range(2 * n + 1):
            scale = root[k + 1] if k < 2 * n else 1.0
            q0, q1, d0, d1 = (q1, (x * q1 - root[k] * q0) / scale,
                              d1, (q1 + x * d1 - root[k] * d0) / scale)
            rows.append(q1)
        return np.array(rows[:-1]), q1, d1

    x = np.linalg.eigvalsh(np.diag(root[1:], -1))  # eigvalsh reads the lower triangle
    for _ in range(2):
        _, p, dp = recurrence(x)
        x = x - p / dp
    q = recurrence(x)[0]
    order = np.concatenate([np.arange(1, 2 * n, 2), np.arange(0, 2 * n + 1, 2)])
    return (x[order], 2.0 / np.sum(q[:n, 1::2] ** 2, axis=0),
            2.0 / np.sum(q[:, order] ** 2, axis=0))


# ---------------------------------------------------------------------------
# Angular kernel


def _series(weights, step, ratio, n, mu, edge=0.25):
    """c_(K-1) .. c_0 for np.polyval, c_k = p_k sum(weights step^k), p_(k+1) = p_k ratio(k).

    In each kernel series 0 <= step < 1 and |c_(k+1)| <= max(1, (mu/2 + k)/
    (k + 1)) |c_k| for k >= N/4, so on [0, edge] the remainder after K terms is
    at most |c_K| edge^K / (1 - q), q = max(1, (mu/2 + K)/(K + 1)) edge. K is
    the first k >= N/4 where that is at most 2^-60 of c_0 and of the sum at
    edge, two lower bounds of the positive, monotone piece that the series sums.
    """
    coef, p = [], 1.0
    for k in itertools.count():
        c, q = p * float(weights.sum()), max(1.0, (mu / 2.0 + k) / (k + 1.0)) * edge
        rest = abs(c) * edge ** k / (1.0 - q) * 2.0 ** 60  # the remainder bound, in units of 2^-60
        if k >= n / 4.0 and rest <= coef[0] and rest <= np.polyval(coef[::-1], edge):
            return np.array(coef[::-1])
        coef.append(c)
        weights, p = weights * step, p * ratio(k)


@functools.lru_cache(maxsize=1024)  # 4x the fresh mu of a verify-highdim cycle
def _kernel_series(n, mu):
    """(far, near [1, 2], near [0, eps] / eps^c, log-w) series; at N = 3 only (far,).

    Far: 2F1(mu/2, (mu - N + 2)/2; N/2; z) in z = (min/max)^2 (DLMF 15.2.1),
    with term ratios at most 1 in size for k >= N/4 - 1: at every N the far
    kernel, which the Riesz tails integrate term by term. The near series
    exist at N >= 4 only: the N = 3 near kernel has closed forms. Near, in
    eps, with X, W a rule for int_0^1 x^h g(x) dx, h = (N-3)/2: under x = y^2
    the weight is 2 y^(N-2) dy, so at the K49 nodes y on [0, 1], X = y^2 and
    W is y^(N-2) times the K49 weights, scaled to the exact zeroth moment 1/(h+1).
    [1, 2] in v = 2 - w from (eps + v)^(-mu/2) = sum_k C(-mu/2, k) eps^k
    v^(-mu/2-k), ratio eps/v <= 1/4, and [0, eps] in w = eps X from
    (2 - eps X)^h = sum_k C(h, k) 2^(h-k) (-eps X)^k, ratio <= 1/8.
    Log-w: the binomial coefficients C(-mu/2, j) of (1 + x)^(-mu/2), cut for
    x <= e^-2, the ratio eps/w on the fixed log-w panels that _kernel_near sums
    as one series.
    """
    a, b, c, h = mu / 2.0, (mu - n + 2.0) / 2.0, n / 2.0, (n - 3.0) / 2.0
    far = _series(np.ones(1), 1.0, lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0)), n, mu)
    if n == 3:
        return (far,)
    y, _, wk = _gauss_kronrod(24)
    y = (1.0 + y) / 2.0
    X, W = y * y, wk * y ** (n - 2.0)
    v, W = 2.0 - X, W / (W.sum() * (h + 1.0))
    return (far, _series(W * v ** (h - a), 1.0 / v, lambda k: -(a + k) / (k + 1.0), n, mu),
            _series(W * 2.0 ** h * (1.0 + X) ** -a, X, lambda k: (k - h) / (2.0 * k + 2.0), n, mu),
            _series(np.ones(1), 1.0, lambda k: -(a + k) / (k + 1.0), n, mu, math.exp(-2.0)))


def angular_kernel(r, rho, dim, mu):
    """Spherical average K(r, rho) of |r e1 - rho w|^(-mu) over w in S^(N-1).

    Symmetric in (r, rho) and homogeneous of degree -mu. Far from the
    diagonal (min/max <= 1/2) K is the hypergeometric series in (min/max)^2
    at every N. Near it, N = 3 has closed forms, written so that they do not
    cancel as mu -> 2; at N >= 4 it is the quadrature's own near kernel:
    series in eps = (r - rho)^2/(2 r rho) from K49 moments, and 16-point
    Gauss-Legendre panels in log(1 - cos theta), of which all e^2-wide ones
    but the last sum as one binomial series in eps.
    On the diagonal the average is finite for mu < N-1 (a Beta-function
    closed form) and diverges for mu in [N-1, N), where a signaled infinity
    is returned; that infinity is only ever consumed inside integrals, where
    the substitution absorbs it. Non-finite or negative radii raise
    DomainError, and so do distinct positive radii whose squares leave the
    normal float range: (r + rho)^2 must be finite, and the square of the
    smaller radius (near the diagonal, of |r - rho|) at least the smallest
    normal float. Any other value that is not a normal float, one that
    overflows or falls below the smallest normal float, raises DomainError too.
    """
    n = _check_dim(dim)
    mu = _check_window("mu", mu, n)
    r = float(r)
    rho = float(rho)
    if not (math.isfinite(r) and math.isfinite(rho)):
        raise DomainError(f"radii must be finite, got r={r}, rho={rho}")
    if r < 0.0 or rho < 0.0:
        raise DomainError("radii must be nonnegative")
    if r == 0.0 and rho == 0.0:
        raise DomainError("kernel undefined with both radii zero")
    if r == rho and mu >= n - 1.0:
        return math.inf
    lo, hi = min(r, rho), max(r, rho)
    if lo == 0.0 or lo == hi:
        try:  # a Python float power raises OverflowError where numpy's gives inf
            scale = hi ** (-mu)
        except OverflowError:
            scale = math.inf
        if lo == 0.0:
            k = sphere_area(n) * scale
        else:
            bfun = (math.gamma((n - 1.0 - mu) / 2.0) * math.gamma((n - 1.0) / 2.0)
                    / math.gamma(n - 1.0 - mu / 2.0))
            k = sphere_area(n - 1) * scale * 2.0 ** (n - 2.0 - mu) * bfun
    else:
        far = lo <= 0.5 * hi  # the far/near split of the Riesz region table
        small = lo if far else hi - lo  # the far kernel squares lo, the near one delta = hi - lo
        if not (small * small >= _FLOAT_TINY and (hi + lo) * (hi + lo) < math.inf):
            raise DomainError(f"radii r={r}, rho={rho} leave the float range of the kernel's "
                              "squares and products")
        with np.errstate(over="ignore"):  # an infinite value raises below
            if far:
                k = float(_kernel_sep(hi, np.array([lo]), n, mu)[0])
            else:
                # 1-element arrays, as the quadrature passes: numpy's scalar
                # power may round unlike its array power
                k = float(_kernel_near(np.array([hi]), np.array([hi - small]), np.array([small]),
                                       n, mu, n - mu)[0])
    if not _FLOAT_TINY <= k < math.inf:
        raise DomainError(f"K(r={r}, rho={rho}) at N={n}, mu={mu} leaves the normal float range")
    return k


def _kernel_sep(r, rho, n, mu):
    """K(r, rho) for broadcastable arrays r, rho with s = min/max <= 1/2.

    At every N, |S^(N-1)| hi^-mu 2F1(mu/2, (mu - N + 2)/2; N/2; s^2), the far
    series of _kernel_series that the Riesz tails integrate term by term. It
    is built from s alone, so it does not cancel as s -> 0 or as mu -> 2.
    """
    rho = np.asarray(rho, dtype=float)
    hi = np.maximum(r, rho)
    s = np.minimum(r, rho) / hi
    return sphere_area(n) * hi ** -mu * np.polyval(_kernel_series(n, mu)[0], s * s)


def _kernel_near(r, rho, delta, n, mu, alpha):
    """K(r, rho) with delta = |r - rho| passed exactly, batched over the delta array.

    Near the diagonal rho collapses onto r in floating point, so the kernel
    is computed from the separation delta itself; only the smooth factors use
    the (possibly rounded) rho. r is a scalar or aligned with delta. Requires
    eps = delta^2/(2 r rho) <= 1/4, which every caller guarantees (delta <=
    r/2 below the diagonal, delta <= r above it, delta < hi/2 in
    angular_kernel). N = 3 has closed forms, the difference of powers in
    expm1 form where it would cancel, for mu near 2. At N >= 4, with c =
    (N-1-mu)/2, eps^(-mu/2) is factored out of the [0, eps] piece, so that it
    reads eps^c times a smooth integral; that and the [1, 2] piece are series
    of _kernel_series. [eps, 1] runs over e^2-wide G16 panels in log w (the
    Gauss part of _gauss_kronrod(16)), where the integrand is at most 2^b
    max(1, eps^c): no intermediate overflows while eps is a normal float. Only
    the panel at eps and the last fixed panel take per-node powers; the fixed
    panels above them, where eps/w <= e^-2, are one binomial series whose
    coefficients are the rule's own node sums, tabulated per call up to the
    batch's largest panel count. An eps that underflowed to 0 gives NaN.
    alpha = N - mu, as the caller holds it, gives c = (alpha - 1)/2 without
    the rounding of N - mu: a value moves by about |log eps| times an error
    in c, and mu = N - alpha rounded put riesz_radial 11 units in the last
    place off at alpha = 0.15.
    Each delta keeps the piece order of a scalar evaluation: [0, eps], the
    panel at eps, the series of the fixed panels, the last fixed panel, then
    [1, 2]. The series are elementwise, their tables do not depend on the
    batch, and the node sums are einsum row sums, so a delta's value does not
    depend on its place in the batch.
    """
    delta = np.asarray(delta, dtype=float)
    if n == 3:
        if mu == 2.0:
            return 2.0 * math.pi * np.log((r + rho) / delta) / (r * rho)
        e = 2.0 - mu
        s, den = r + rho, e * r * rho
        k = 2.0 * math.pi * (s ** e - delta ** e) / den
        if abs(e) * math.log(3.0) < 0.25:  # L >= log 3 on every near piece
            # the difference of powers cancels as e -> 0: delta^e expm1(e L) with
            # L = log(s/delta) does not, where |e L| < 1/4, that is where delta >
            # s e^(-1/(4|e|)); found without a log of every point
            i = np.flatnonzero(delta > s * math.exp(-0.25 / abs(e)))
            d = delta[i]
            k[i] = 2.0 * math.pi * (d ** e * np.expm1(e * np.log(s[i] / d))) / den[i]
        return k
    # With u = cos(theta) and w = 1 - u, the quadratic factors as
    # 2 r rho (eps + w), eps = delta^2/(2 r rho), and
    # K = |S^(N-2)| (2 r rho)^(-mu/2) * int_0^2 w^b (2-w)^b (eps+w)^(-mu/2) dw
    b, c = (n - 3.0) / 2.0, (alpha - 1.0) / 2.0
    eps = (delta / r) * (delta / rho) / 2.0  # no delta^2: it leaves the normal range first
    live = np.flatnonzero(eps > 0.0)  # an eps that underflowed to 0 gets K = nan
    _, two, zero, coef = _kernel_series(n, mu)  # pieces [1, 2], [0, eps] / eps^c, log w
    j2, j1 = np.polyval(two, eps), np.polyval(zero, eps)
    j1[live] *= eps[live] ** c
    # piece [eps, 1] in log w, on panels of 16-point Gauss-Legendre rules: first
    # [eps, e^(-2 m)] with m = floor(-log(eps)/2), then [e^(-2(k+1)), e^(-2k)] for
    # k = 0 .. m-1. A panel [a, a e^L] places its nodes by its own width L, w =
    # a e^(L u) for u in [0, 1], dw = w L du, and the integrand w^c (2-w)^b
    # (1 + eps/w)^(-mu/2) has every factor below 2^b max(1, eps^c)
    x, wu, _ = _gauss_kronrod(16)
    u, wu = (x[:16] + 1.0) / 2.0, wu / wu.sum()  # G16 on [0, 1] at the exact zeroth moment
    el = eps[live]
    m = np.floor(-np.log(el) / 2.0)
    width = np.log(np.exp(-2.0 * m) / el)  # a rounded m may make it ~1e-16 negative
    w = el[:, None] * np.exp(width[:, None] * u)
    level = w ** c * (2.0 - w) ** b * (1.0 + el[:, None] / w) ** (-mu / 2.0)
    j1[live] += width * np.einsum("ij,j->i", level, wu)
    # The e^2-wide panels have the same nodes for every delta, so w^c (2-w)^b
    # goes into their weights, rows[k]. On panel k <= m-2, eps/w = z e^(-2(m-2-k))
    # e^(-2u) with z = eps e^(2(m-1)) <= e^-2, so those panels sum to the series
    # sum_j C(-mu/2, j) z^j A_m[j], A_m[j] = e^(-2j) A_(m-1)[j] + S[m-2, j] and
    # S[k, j] = sum_i rows[k, i] e^(-2j u_i): the rule's own 16-node sums. Neither
    # A_m nor the term count depends on the batch's largest m
    top = int(m.max(initial=0.0))
    w = np.exp(-2.0 * np.arange(1.0, top + 1.0))[:, None] * np.exp(2.0 * u)
    rows = 2.0 * wu * w ** c * (2.0 - w) ** b
    j = np.arange(coef.size - 1.0, -1.0, -1.0)  # degrees, highest first as in coef
    S = np.einsum("ki,ij->kj", rows, np.exp(-2.0 * u[:, None] * j))
    table, decay = np.zeros((top + 1, coef.size)), np.exp(-2.0 * j)
    for k in range(2, top + 1):
        table[k] = table[k - 1] * decay + S[k - 2]
    table = (table * coef).T  # row j: C(-mu/2, j) A_m[j] for every m
    k = m.astype(np.intp)
    z = el / np.exp(-2.0 * (m - 1.0))  # e^(2(m-1)) would overflow for a subnormal eps
    acc = table[0][k]
    for row in table[1:]:  # Horner's rule, one degree at a time
        acc *= z
        acc += row[k]
    j1[live] += acc
    # panel m - 1 keeps its per-node powers: its ratio eps/w reaches 1
    last = np.flatnonzero(m >= 1.0)
    k = k[last] - 1
    q = w[k]  # a gathered copy, divided in place
    np.divide(el[last, None], q, out=q)
    q += 1.0
    np.power(q, -mu / 2.0, out=q)
    j1[live[last]] += np.einsum("ij,ij->i", q, rows[k])
    return np.where(eps > 0.0, sphere_area(n - 1) * (2.0 * r * rho) ** (-mu / 2.0) * (j1 + j2),
                    np.nan)


def _near_row(side, t, n, mu, alpha):
    """row(t) = K(1, 1 + side d) (1 + side d)^(N-1) d at d = e^-t, broadcast over side and t.

    K is homogeneous of degree -mu, so K(r, rho) rho^(N-1) delta = r^alpha
    row(t) at rho = r(1 + side d), delta = r d. At N = 3, with s = 2 + side d
    and e = alpha - 1 (from alpha, as in _kernel_near), row = 2 pi (1 + side d)
    (d s^e - e^(-alpha t))/e = 2 pi (1 + side d) e^(-alpha t) expm1(x)/e, x =
    e (log s + t); at alpha = 1, 2 pi (1 + side d) d (log s + t). No power of d
    leaves the float range. Where x >= 1 the difference is taken, which does
    not cancel there, and the rounded alpha t of the expm1 form costs up to
    alpha t units in the last place. At N >= 4, eps = d^2/(2 (1 + side d)).
    """
    d = np.exp(-t)
    rho = 1.0 + side * d
    if n > 3:
        k = _kernel_near(1.0, np.ravel(rho), np.ravel(d), n, mu, alpha).reshape(rho.shape)
        return k * rho ** (n - 1.0) * d
    e, log_s, small = alpha - 1.0, np.log(2.0 + side * d), np.exp(-alpha * t)
    if e == 0.0:
        return 2.0 * math.pi * small * (log_s + t) * rho
    x = e * (log_s + t)
    diff = small * np.expm1(x)
    if e > 0.0:
        diff = np.where(x < 1.0, diff, d * np.exp(e * log_s) - small)
    return 2.0 * math.pi * diff / e * rho


# ---------------------------------------------------------------------------
# Adaptive Gauss quadrature (vectorized global bisection over tagged panels)

_GL_ORDER = 12  # panels carry the G12 rule and its Kronrod extension K25: 25 points
_RADIUS_BLOCK = 32  # radii per _adaptive_gl run, which bounds the live panel arrays
# panels per integrand call at every N. The bound is memory, not time: at N = 3,
# 512 panels raised the traced peak of a 400-radius call from 2.5 to 3.4 MB at
# no gain in time. The widest temporaries are the (points x 16) arrays of the
# near kernel's two log-w panels with per-node powers, the one at eps and the
# last fixed one; the kernels' series take one value per point
_CHUNK_PANELS = 256
# rounding floor of an error bound, per unit of sum |integrand * weight|: an
# integrand value passes through about eight rounded steps (the node, exp,
# the interpolant, rho^p, the kernel), each good to a unit in the last place
_ROUNDOFF = 8.0 * np.finfo(float).eps
# grid radii share near rows when no log(grid radius) is further than this,
# times max(1, |log r|), from the uniform lattice: log_grid(1e-3, 1e3, 400) is
# within 16 eps, log_grid(1e-20, 1e20, 401) within 64 eps at |log r| = 46
_LOG_UNIFORM = 32 * np.finfo(float).eps
_FAR_PANEL = 1.2  # the widest initial far panel in log(rho)


def _gauss_points(segs):
    """The G12 and then the 13 added K25 nodes of each panel [a, b]: (panels, 25)."""
    x = _gauss_kronrod(_GL_ORDER)[0]
    mid = 0.5 * (segs[:, 0] + segs[:, 1])
    half = 0.5 * (segs[:, 1] - segs[:, 0])
    return mid[:, None] + half[:, None] * x


def _rule_sums(v):
    """(G12 sum, K25 sum, K25 sum of |v|) of each row of v at _gauss_points.

    G12 reads the first 12 columns, which K25 shares. The sums leave out the
    panel's half-width. einsum's row sums, unlike BLAS gemv, do not depend on
    a panel's place in the batch.
    """
    _, wg, wk = _gauss_kronrod(_GL_ORDER)
    return (np.einsum("ij,j->i", v[:, :_GL_ORDER], wg), np.einsum("ij,j->i", v, wk),
            np.einsum("ij,j->i", np.abs(v), wk))


def _adaptive_gl(fun, segs, tag, length, rel_tol, max_panels, given=None, start=None):
    """Globally adaptive Gauss-Legendre quadrature of many integrals at once.

    Integral g has length length[g] and initial panels segs[tag == g];
    fun(segs, tag) gives the integrand at _gauss_points(segs), _CHUNK_PANELS
    panels at a time. A given pair (index, sums) holds the _rule_sums of the
    initial panels segs[index], which fun then never sees. start, a (2,
    integrals) array, holds the value and error bound of a part of each
    integral summed elsewhere, which its estimate includes. Each integral
    keeps the rules of a run of its own: a panel's value is its K25 sum, and
    a panel whose |K25 - G12| (never a NaN) exceeds its length share of
    max(rel_tol |estimate|, floor) is bisected; after max_panels the open
    panels are added as they are and the integral is not converged. A panel's
    error bound is |K25 - G12| plus its floor, _ROUNDOFF times its K25 sum of
    |integrand * weight|; the floor in the max sums those of the integral's
    open panels. Returns (value, error_bound, panels_used, converged).
    """
    groups = length.size
    val, err = np.zeros((2, groups)) if start is None else np.array(start)
    used, ok = np.zeros(groups, dtype=np.int64), np.ones(groups, dtype=bool)
    while tag.size:
        half = 0.5 * (segs[:, 1] - segs[:, 0])
        sums = np.empty((3, tag.size))
        todo = np.ones(tag.size, dtype=bool)
        if given is not None:
            index, known = given
            sums[:, index] = known
            todo[index] = False
            given = None
        todo = np.flatnonzero(todo)
        for s in range(0, todo.size, _CHUNK_PANELS):
            p = todo[s:s + _CHUNK_PANELS]
            sums[:, p] = _rule_sums(fun(segs[p], tag[p]))
        sums *= half
        coarse, fine, size = sums
        e = np.abs(fine - coarse)
        used += np.bincount(tag, minlength=groups)
        tol = np.maximum(rel_tol * np.abs(val + np.bincount(tag, fine, groups)),
                         _ROUNDOFF * np.bincount(tag, size, groups))
        done = e <= tol[tag] * (2.0 * half / length[tag])
        over = (np.bincount(tag[~done], minlength=groups) > 0) & (used >= max_panels)
        ok &= ~over
        take = done | over[tag]
        val += np.bincount(tag[take], fine[take], groups)
        err += np.bincount(tag[take], e[take] + _ROUNDOFF * size[take], groups)
        rest, tag = segs[~take], tag[~take]
        mids = 0.5 * (rest[:, 0] + rest[:, 1])
        segs = np.concatenate([np.column_stack([rest[:, 0], mids]),
                               np.column_stack([mids, rest[:, 1]])])
        tag = np.concatenate([tag, tag])
    return val, err, used, ok


# ---------------------------------------------------------------------------
# Riesz potential of a radial profile


def _check_radii(at):
    """at as a float array of at least two strictly increasing positive radii."""
    at = np.asarray(at, dtype=float)
    if at.ndim != 1 or at.size < 2 or not (at[0] > 0.0 and np.all(np.diff(at) > 0.0)):
        raise DomainError("evaluation radii must be >= 2 strictly increasing positive values")
    return at


def riesz_radial(f, alpha, dim, cfg=None, at=None):
    """(I_alpha f)(r) = (1/gamma(alpha)) int f(rho) rho^(N-1) K(r, rho; N-alpha) drho.

    Parameters
    ----------
    f : RadialProfile
        Input profile. Tails, when attached, are integrated analytically and
        must satisfy inner exponent < N and outer exponent > alpha; a missing
        tail means hard truncation with the truncation estimate folded into
        the per-point error report.
    alpha : float
        Order of the potential, 0 < alpha < N. The near-diagonal pieces end at
        t = 46/alpha, where at N >= 4 eps = e^(-2t)/2 is normal for alpha >= 0.13.
        Their integrand f(rho) r^alpha row(t) has no partial product that grows
        with 1/r. At N = 3, alpha must also keep the old one, f rho^2 K delta,
        finite at the smallest r (its kernel is for alpha >= 0.0618 at r = 1).
    dim : int
        Ambient dimension N >= 3.
    cfg : QuadratureConfig, optional
    at : array_like, optional
        Strictly increasing positive radii to evaluate at (at least two),
        each with (r/2)^N finite and normal; defaults to f.radii.

    Returns
    -------
    RadialProfile with point_errors set to the per-point relative error
    estimate (quadrature plus truncation).

    A radius bit-equal to a node of a grid of log step at most 1.2 reads its
    far regions from moment tables built once per call (_far_regions); the
    choice reads only f and the radius, not the other radii of the call.
    """
    n = _check_dim(dim)
    cfg = cfg or DEFAULT_CONFIG
    alpha = _check_window("alpha", alpha, n)
    mu = n - alpha
    at = _check_radii(f.radii if at is None else at)
    # the far regions weight f by rho^N out to r/2 and to the top of the grid
    top = max(0.5 * float(at[-1]), float(f.radii[-1]))
    if not n * math.log(top) < _LOG_FLOAT_MAX:
        raise DomainError(f"rho^N overflows at N={n} for rho = {top:.6g}, the larger of half "
                          "the largest radius and the top of the grid")
    if not n * math.log(0.5 * float(at[0])) >= _LOG_FLOAT_TINY:
        raise DomainError(f"(r/2)^N underflows at N={n} for the smallest radius r = {at[0]:.6g}")
    if n > 3 and not -2.0 * _t_cap(alpha) - math.log(2.0) >= _LOG_FLOAT_TINY:
        edge = 2.0 * 46.0 / (-_LOG_FLOAT_TINY - math.log(2.0))  # where 46/alpha > 40
        raise DomainError(f"alpha={alpha} is below the near-diagonal window alpha >= {edge:.4f} "
                          f"at N={n} (mu = N - alpha <= {n - edge:.4f}): eps = e^(-2t)/2 "
                          "underflows at the substitution's end t = 46/alpha")
    _check_tail_windows(f, alpha, n)
    if f.tail_inner is None and at[0] < f.radii[0]:
        raise DomainError("evaluation below the sampled window requires an inner tail")
    if f.tail_outer is None and at[-1] > f.radii[-1]:
        raise DomainError("evaluation above the sampled window requires an outer tail")
    if n == 3:  # the old near integrand f rho^2 K delta, whose partial product f rho^2 K grows
        # with t at small alpha, at that end and the smallest radius, where rho == r. It is
        # checked on purpose: the r-free row lifts this edge only with a presplit graded in t
        r, d = at[:1], at[:1] * np.exp(-_t_cap(alpha))
        with np.errstate(all="ignore"):
            end = f(r) * r ** (n - 1.0) * _kernel_near(r, r, d, n, mu, alpha) * d
        if not np.isfinite(end[0]):
            raise DomainError(f"alpha={alpha} is below the near-diagonal window at N=3 for the "
                              f"smallest radius r = {at[0]:.6g}: the integrand at t = 46/alpha "
                              "is not finite")

    gam = riesz_gamma(alpha, n)
    logr = np.log(f.radii)
    index, h = _grid_nodes(f.radii, logr, at)
    far = None
    if np.any(index >= 0) and np.max(np.diff(logr)) <= _FAR_PANEL:
        far = _far_regions(f, logr, n, mu, at, index, cfg.rel_tol)
    near = _NearRows(f, index, h, n, alpha)
    blocks = []
    for i in range(0, at.size, _RADIUS_BLOCK):
        s = slice(i, i + _RADIUS_BLOCK)
        blocks.append(_riesz_block(f, logr, at[s], index[s], n, mu, alpha, cfg,
                                   None if far is None else (far[0][:, s], far[1][..., s]), near))
    raw, abs_err, trunc, ok, panels = (np.concatenate(part) for part in zip(*blocks))
    values = raw / gam
    size = np.maximum(np.abs(raw), 1e-300)
    errors = (abs_err + trunc) / size
    if not ok.all():
        rel = abs_err / size
        bad = np.flatnonzero(~ok)
        nan = np.isnan(rel[bad])  # a NaN estimate ranks worst; ties go to the larger radius
        worst = bad[nan][-1] if nan.any() else bad[rel[bad] == rel[bad].max()][-1]
        raise ConvergenceError(
            f"quadrature exceeded {cfg.max_panels} panels (worst radius {float(at[worst])})",
            worst_radius=float(at[worst]), errors=rel, panels=panels,
        )
    return _potential_profile(
        f, at, values, errors, alpha, n,
        lambda term: riesz_power(alpha, term.exponent, n).scaled(term.coefficient))


def _profile_table(f, n):
    """f(rho) rho^N at _gauss_points of every grid interval in log(rho).

    The nodes come from _gauss_points, as in _adaptive_gl, so an entry is
    bit-equal to a direct evaluation on a far panel that is one grid interval.
    The far moment tables of _far_regions are built from it.
    """
    logr = np.log(f.radii)
    rho = np.exp(_gauss_points(np.column_stack([logr[:-1], logr[1:]])))
    return f(rho) * rho ** float(n)


def _grid_nodes(radii, logr, at):
    """(index, h): each radius's node index in radii (bit-equal), else -1, and the lattice step.

    h is None unless every log r lies within _LOG_UNIFORM max(1, |log r|) of
    logr[0] + i h: the float spacing of log r grows with |log r|.
    """
    k = np.minimum(np.searchsorted(radii, at), radii.size - 1)
    h = (logr[-1] - logr[0]) / (logr.size - 1)
    off = np.max(np.abs(logr - (logr[0] + np.arange(logr.size) * h)))
    uniform = off <= _LOG_UNIFORM * max(1.0, float(np.max(np.abs(logr))))
    return np.where(radii[k] == at, k, -1), h if uniform else None


def _far_regions(f, logr, n, mu, at, index, rel_tol):
    """Far regions of the grid radii among at (index >= 0) from moment tables of the far series.

    The far kernel is |S^(N-1)| r^-mu sum_k c_k (rho/r)^(2k) for rho <= r/2,
    and |S^(N-1)| rho^-mu sum_k c_k (r/rho)^(2k) for rho >= 2r, so the region
    below node J is |S^(N-1)| r^-mu sum_k c_k (rho_J/r)^(2k) L_k(J), the one
    above it |S^(N-1)| sum_k c_k (r/rho_J)^(2k) U_k(J), with L_k(J) = sum_(j<J)
    int_j f rho^N (rho/rho_J)^(2k) dx and U_k(J) = sum_(j>=J) int_j f rho^alpha
    (rho_J/rho)^(2k) dx over the M grid intervals j (_moment_scan), over the
    nodes the grid radii read, where rho^-mu is finite. In exact arithmetic
    a row sums the whole-interval far panels of _initial_panels on a grid of
    log step at most _FAR_PANEL. Row 0 runs to the last node <= r/2 when r0
    < r/2, row 1 from the first node >= 2r when 2r < r1. A row's bar is its
    quadrature part sum_k |c_k| z^k E_k(J), E the cumulative |K25 - G12|,
    plus its floor; a row whose quadrature part exceeds max(rel_tol |value|,
    floor) is not read and keeps every panel, as at an off-grid radius.
    Returns (node, sums), (2, at.size) and (2, 2, at.size): each row's J,
    else -1, and its (value, error bound), else zeros.
    """
    radii, t = f.radii, np.flatnonzero(index >= 0)
    coef = _kernel_series(n, mu)[0][::-1]  # c_0, c_1, ...
    k = np.arange(coef.size, dtype=float)
    below = max(np.searchsorted(radii, 0.5 * at[t[-1]], "right") - 1, 0)
    above = np.searchsorted(radii, 2.0 * at[t[0]], "left")
    half = 0.5 * (logr[1:] - logr[:-1])
    rho = np.exp(_gauss_points(np.column_stack([logr[:-1], logr[1:]])))
    table, step = _profile_table(f, n), (radii[:-1] / radii[1:]) ** 2  # (rho_j/rho_(j+1))^2
    lo, top = slice(0, below), slice(None, above - 1 if above else None, -1)  # down to above
    lower = _moment_scan(table[lo], (rho[lo] / radii[1:below + 1, None]) ** 2, step[lo], half[lo], k)
    upper = _moment_scan(table[top] * rho[top] ** -mu, (radii[:-1][top, None] / rho[top]) ** 2,
                         step[top], half[top], k)  # column J: L(J); column M - J: U(J)
    il, iu = t[radii[0] < 0.5 * at[t]], t[2.0 * at[t] < radii[-1]]  # radii with rows 0, 1
    jl = np.searchsorted(radii, 0.5 * at[il], "right") - 1  # last node <= r/2
    ju = np.searchsorted(radii, 2.0 * at[iu], "left")  # first node >= 2r
    z = np.concatenate([(radii[jl] / at[il]) ** 2, (at[iu] / radii[ju]) ** 2])
    # term k's floor adds to _ROUNDOFF the tables' roundings: about 4k units in
    # p^k and the scan's step powers, and 2 by which the difference of two
    # rounded sums may understate |K25 - G12|
    weights = np.array([coef, np.abs(coef),
                        np.abs(coef) * (_ROUNDOFF + (4.0 * k + 2.0) * np.finfo(float).eps)])
    acc = 0.0
    for term in range(k.size - 1, -1, -1):  # Horner in z, one term's columns at a time
        sums = np.concatenate([lower[:, term, jl], upper[:, term, radii.size - 1 - ju]], axis=1)
        acc = acc * z + weights[:, term, None] * sums
    value, quad, floor = acc * (sphere_area(n) * np.concatenate([at[il] ** -mu, np.ones(iu.size)]))
    ok = quad <= np.maximum(rel_tol * np.abs(value), floor)
    row, i = np.repeat([0, 1], [il.size, iu.size])[ok], np.concatenate([il, iu])[ok]
    node, out = np.full((2, at.size), -1), np.zeros((2, 2, at.size))
    node[row, i] = np.concatenate([jl, ju])[ok]
    out[row, :, i] = np.column_stack([value, quad + floor])[ok]
    return node, out


def _moment_scan(v, p, step, half, k):
    """(3, k.size, intervals + 1) cumulative rule sums of v p^k: column j sums intervals i < j.

    v is an integrand at each interval's _gauss_points, p the squared ratio
    of each node to the interval's reference end, and step[j] that of the
    reference ends of intervals j - 1 and j, all at most 1. The rows are the
    K25 sums, |K25 - G12| and K25 sums of |v| times half of each interval
    i < j, carried to interval j - 1 by step[i + 1]^k .. step[j - 1]^k: one
    pass over the nodes per term, then a recursive doubling over the intervals.
    """
    _, wg, wk = _gauss_kronrod(_GL_ORDER)
    rows = np.zeros((3,) + v.shape)
    rows[0], rows[1, :, :_GL_ORDER], rows[2] = v * wk, v[:, :_GL_ORDER] * wg, np.abs(v) * wk
    sums, power = np.zeros((3, k.size, v.shape[0] + 1)), np.ones_like(p)
    run = sums[..., 1:]
    for term in range(k.size):
        run[:, term] = np.einsum("cjm,jm->cj", rows, power)
        power *= p
    run[1] = np.abs(run[0] - run[1])
    run *= half
    a, d = step ** k[:, None], 1
    product = np.empty_like(a)  # the products of every step, without a temporary each
    while d < v.shape[0]:
        for row in run:
            row[:, d:] += np.multiply(a[:, d:], row[:, :-d], out=product[:, d:])
        a[:, d:] = np.multiply(a[:, d:], a[:, :-d], out=product[:, d:])
        d *= 2
    return sums


class _NearRows:
    """Rule sums of the near-diagonal panels that grid radii share.

    On a log-uniform grid of step h, node i + k of grid radius i sits at t =
    -log|expm1(k h)|, whatever i is: t[k + K], 0 < |k| <= K, K = min(floor(
    log 2/h) + 1, intervals), or K = 0 for h >= 1, are the near edges that
    _initial_panels gives grid radii. A near group that is not clipped (no
    tail, and r/2 or 2r past the grid) nor within K nodes of a grid end so
    starts from its side's list of panels, built here from t over [log 2 or
    0, t_cap]. Their rule sums are r^alpha times those of f(r(1 + side e^-t))
    times the row of each node, from one _near_row call per side. index and h
    come from _grid_nodes; nothing is built unless h is a lattice step and
    some radius is a node.
    """

    def __init__(self, f, index, h, n, alpha):
        self.f, self.alpha, self.t, self.sides = f, alpha, None, []
        if h is None or np.all(index < 0):
            return
        big = min(int(math.log(2.0) / h) + 1, f.radii.size - 1) if h < 1.0 else 0
        k = np.arange(1.0, big + 1.0) * h
        self.t = np.concatenate([-np.log(-np.expm1(-k[::-1])), [np.nan], -np.log(np.expm1(k))])
        ya = np.log(np.array([2.0, 1.0]))  # log(r/|a - r|) at a = r/2 and at b = 2r
        segs, tag = _panels(ya, np.full(2, _t_cap(alpha)), np.full(2, 6.0), np.full(2, 2),
                            np.repeat([0, 1], big), np.delete(self.t, big))
        for g, side in enumerate((-1.0, 1.0)):
            t = _gauss_points(segs[tag == g])
            self.sides.append((segs[tag == g], 1.0 + side * np.exp(-t),
                               _near_row(side, t, n, n - alpha, alpha)))

    def given(self, segs, tag, r):
        """A given pair of _adaptive_gl: near groups whose panels are a shared list, and their sums.

        Group 4 i + 1 (left) or 4 i + 2 (right) belongs to r[i], and tag
        ascends, as in _riesz_block. A group reads the rows when its initial
        panels equal its side's list bit for bit; sums are formed
        _CHUNK_PANELS panels at a time. None when nothing was built.
        """
        if not self.sides:
            return None
        counts = np.bincount(tag, minlength=4 * r.size)
        start = np.cumsum(counts) - counts
        scale = np.array([x ** self.alpha for x in r])
        hits, sums = [], []
        for row, (shared, ratio, rows) in zip((1, 2), self.sides):
            size = shared.shape[0]
            g = np.flatnonzero(counts[row::4] == size) * 4 + row
            pos = start[g, None] + np.arange(size)
            pos = pos[np.all(segs[pos] == shared, axis=(1, 2))]
            owner = tag[pos[:, 0]] // 4
            out = np.empty((3, owner.size, size))
            step = max(1, _CHUNK_PANELS // size)
            for s in range(0, owner.size, step):
                rho = r[owner[s:s + step], None, None] * ratio
                v = (self.f(rho) * rows).reshape(-1, ratio.shape[1])
                out[:, s:s + step] = np.reshape(_rule_sums(v), (3, -1, size))
            out *= scale[owner, None]
            hits.append(pos.ravel())
            sums.append(out.reshape(3, -1))
        return np.concatenate(hits), np.concatenate(sums, axis=1)


def _runs(counts):
    """Owner and position of each item when owner g holds counts[g] consecutive items."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


def _t_cap(alpha):
    """The end of the near-diagonal pieces in t, where their integrand, O(e^(-alpha t)), is e^-46."""
    return max(40.0, 46.0 / alpha)


def _riesz_block(f, logr, r, index, n, mu, alpha, cfg, tables, near):
    """Raw integrals int f rho^(N-1) K drho (no 1/gamma) at the radii r, all run together.

    The tails cover [0, lo] and [hi, inf), as exact integrals of the far
    kernel's series (_tail_piece) or by a truncation estimate. [lo, hi] is
    summed over the rows of one region table, in order:

        g_lo     [lo, r/2]              side  0   x = log(rho)
        g_left   [max(lo, r/2), r]      side -1   rho = r(1 - e^(-t))
        g_right  [r, min(hi, 2r)]       side +1   rho = r(1 + e^(-t))
        g_hi     [2r, hi]               side  0   x = log(rho)

    A side 0 row is a smooth far region integrated over [log a, log b]. A
    side -+1 row is a near-diagonal piece, f(rho) r^alpha row(t), where t runs
    from the far edge, log(r/|rho - r|), out to t_cap. Every non-empty
    (radius, row) pair is one integral of one _adaptive_gl run. index holds
    the node index of each grid radius, else -1, and logr the log of f's
    grid. tables, when not None, is the (node, sums) of _far_regions for r: a
    g_lo or g_hi row that it covers enters _adaptive_gl with its table sums
    up to node J as a start and keeps its length, and its one initial panel
    is the partial one between node J and r/2 or 2r. The near pieces of a
    grid radius take the offset edges
    of near (a _NearRows) and, when their panels are its shared lists, its
    row sums. Returns (raw, abs_err, trunc, converged, panels) aligned with r.
    """
    r0, r1 = float(f.radii[0]), float(f.radii[-1])
    raw, err, trunc = np.zeros(r.size), np.zeros(r.size), np.zeros(r.size)

    if f.tail_inner is not None:  # inner piece [0, lo] via rho = lo x
        lo = np.minimum(r0, 0.5 * r)
        c, a = f.tail_inner.coefficient, f.tail_inner.exponent
        g = n - 1.0 - a  # > -1 by the tail precondition
        v, e = _tail_piece(g, c * (lo ** (g + 1.0) * r ** -mu), lo / r, n, mu)
        raw += v
        err += e
    else:
        lo = np.full(r.size, r0)
        trunc += _trunc_inner_estimate(f, r, n, mu)

    if f.tail_outer is not None:  # outer piece [hi, inf) via rho = hi/x
        hi = np.maximum(r1, 2.0 * r)
        c, a = f.tail_outer.coefficient, f.tail_outer.exponent
        g = a - alpha - 1.0  # > -1 by the tail precondition
        v, e = _tail_piece(g, c * hi ** (alpha - a), r / hi, n, mu)
        raw += v
        err += e
    else:
        hi = np.full(r.size, r1)
        trunc += _trunc_outer_estimate(f, alpha, sphere_area(n), n - mu)

    # the region table, one group g = 4 i + k per radius i and row k
    a = np.column_stack([lo, np.maximum(lo, 0.5 * r), r, 2.0 * r]).ravel()
    b = np.column_stack([0.5 * r, r, np.minimum(hi, 2.0 * r), hi]).ravel()
    side, rg = np.tile([0.0, -1.0, 1.0, 0.0], r.size), np.repeat(r, 4)
    live = np.flatnonzero(a < b)
    al, bl, rl, far = a[live], b[live], rg[live], side[live] == 0.0
    ya = np.log(np.where(far, al, rl / np.abs(np.where(side[live] < 0.0, al, bl) - rl)))
    yb = np.where(far, np.log(bl), _t_cap(alpha))
    length = np.zeros(a.size)
    length[live] = yb - ya
    start = None
    if tables is not None:
        node, sums = tables
        start = np.zeros((2, r.size, 4))
        start[..., 0], start[..., 3] = sums
        start = start.reshape(2, -1)
        for row, ends, edge, j in ((0, ya, al, node[0]), (3, yb, bl, node[1])):
            i = np.flatnonzero(j >= 0)
            pos = np.searchsorted(live, 4 * i + row)
            ends[pos], edge[pos] = logr[j[i]], f.radii[j[i]]
    lattice = None if near.t is None else (index[live // 4], near.t)
    segs, tag = _initial_panels(f.radii, logr, al, bl, ya, yb, rl, far, lattice)
    tag = live[tag]
    val, e, used, ok = _adaptive_gl(
        _region_integrand(f, n, alpha, rg, side), segs, tag, length, cfg.rel_tol,
        max(cfg.max_panels // 4, 4), near.given(segs, tag, r), start)
    for k in range(4):  # summed row by row, in table order
        raw += val[k::4]
        err += e[k::4]
    return raw, err, trunc, ok.reshape(-1, 4).all(axis=1), used.reshape(-1, 4).sum(axis=1)


def _initial_panels(radii, logr, a, b, ya, yb, r, far, lattice=None):
    """Initial (segs, tag) of groups over rho in (a, b), that is variable in (ya, yb).

    Group g gets an edge at each grid radius inside (a[g], b[g]): the
    interpolant is one cubic between sample nodes, so node-aligned edges let
    no sampled feature slip through. A near group's edge sits at t =
    log(r/|radius - r|), or, with lattice = (index, t) and index[g] >= 0, at
    the offset edge t[k + K] of node index[g] + k, for 2K + 1 = t.size: on a
    log-uniform grid every grid radius then has the same edges. Near groups
    also take the edges of np.linspace(ya[g], yb[g], presplit + 1), bit for
    bit, presplit = max(2, span/6); so do far groups, with max(1, span/1.2),
    unless they lie inside a grid whose log step is at most _FAR_PANEL = 1.2,
    where their grid intervals are their panels. A group with ya >= yb gets
    no panels.
    """
    first = np.searchsorted(radii, a, "right")
    h, j = _runs(np.maximum(np.searchsorted(radii, b, "left") - first, 0))
    i = first[h] + j
    x = logr[i]
    near = ~far[h]
    if lattice is not None:
        index, t = lattice
        k = i - index[h] + t.size // 2
        on = near & (index[h] >= 0) & (k >= 0) & (k < t.size)
        x[on] = t[k[on]]
        near &= ~on
    x[near] = np.log(r[h[near]] / np.abs(radii[i[near]] - r[h[near]]))
    bare = far & (a >= radii[0]) & (b <= radii[-1]) & (np.max(np.diff(logr)) <= _FAR_PANEL)
    return _panels(ya, yb, np.where(far, np.where(bare, np.inf, _FAR_PANEL), 6.0),
                   np.where(far, 1, 2), h, x)


def _panels(ya, yb, width, least, owner, x):
    """(segs, tag) of groups g over (ya[g], yb[g]): presplit edges and the edges x of owner.

    Group g is presplit into max(least[g], span/width[g]) panels of
    np.linspace, bit for bit; each x[i] strictly inside (ya, yb) of its group
    owner[i] is one more edge.
    """
    span = yb - ya
    split = np.maximum(least, (span / width).astype(int))
    g, k = _runs(np.where(span > 0.0, split + 1, 0))
    y = np.where(k == split[g], yb[g], k * (span / split)[g] + ya[g])
    keep = (x > ya[owner]) & (x < yb[owner])
    g, y = np.concatenate([g, owner[keep]]), np.concatenate([y, x[keep]])
    order = np.lexsort((y, g))
    g, y = g[order], y[order]
    pair = (g[1:] == g[:-1]) & (y[1:] != y[:-1])  # adjacent distinct edges of one group
    return np.column_stack([y[:-1][pair], y[1:][pair]]), g[:-1][pair]


def _region_integrand(f, n, alpha, r, side):
    """fun(segs, tag) of _adaptive_gl: the integrand of group g at r[g], side[g].

    Far panels are in x = log(rho), f rho^N K(r, rho). Near-diagonal panels
    are in t, rho = r(1 + side e^-t), f(rho) r^alpha row(side, t): the
    homogeneous form of f rho^(N-1) K delta, delta = r e^-t (see _near_row),
    the same row that _NearRows tabulates. K is the kernel of mu = N - alpha,
    and the near row takes its singular exponent from alpha itself.
    """
    mu = n - alpha

    def fun(segs, tag):
        out = np.empty((tag.size, 2 * _GL_ORDER + 1))
        rg, sg = r[tag], side[tag]
        far = np.flatnonzero(sg == 0.0)
        if far.size:
            rho = np.exp(_gauss_points(segs[far]))
            out[far] = f(rho) * rho ** float(n) * _kernel_sep(rg[far, None], rho, n, mu)
        near = np.flatnonzero(sg != 0.0)
        if near.size:
            t, rn, sn = _gauss_points(segs[near]), rg[near, None], sg[near, None]
            out[near] = f(rn * (1.0 + sn * np.exp(-t))) * rn ** alpha * _near_row(sn, t, n, mu, alpha)
        return out

    return fun


def _tail_piece(g, scale, s, n, mu):
    """scale * int_0^1 x^g K(1, s x) dx over a tail, per radius, for s <= 1/2.

    K(1, s x) is the far series |S^(N-1)| sum_k c_k (s x)^(2k) of
    _kernel_series, at every N, and each term integrates exactly:
    int_0^1 x^g (s x)^(2k) dx = s^(2k)/(g + 2k + 1). Returns (value, error
    bound) per radius; the series is cut below 2^-60 of its sum at s = 1/2,
    so the bound is the rounding floor of _adaptive_gl, _ROUNDOFF |value|.
    """
    far = _kernel_series(n, mu)[0]
    k = np.arange(far.size - 1.0, -1.0, -1.0)  # the degree of each coefficient, highest first
    v = scale * sphere_area(n) * np.polyval(far / (g + 2.0 * k + 1.0), s * s)
    return v, _ROUNDOFF * np.abs(v)


# ---------------------------------------------------------------------------
# Tail rules shared by riesz_radial and inverse_laplacian_radial (alpha = 2)


def _check_tail_windows(f, alpha, n):
    """Reject tails whose integrals diverge: inner exponent >= N or outer <= alpha."""
    if f.tail_inner is not None and not f.tail_inner.exponent < n:
        raise DomainError(f"inner tail exponent {f.tail_inner.exponent} >= N={n}: "
                          "integral diverges at the origin")
    if f.tail_outer is not None and not f.tail_outer.exponent > alpha:
        raise DomainError(f"outer tail exponent {f.tail_outer.exponent} <= alpha={alpha}: "
                          "integral diverges at infinity")


def _potential_profile(f, at, values, errors, alpha, n, image):
    """The potential of f sampled at the radii at, with a tail at each end.

    A tail of f with alpha < a < N maps to the closed form image(term),
    unless that misses the edge value by more than TAIL_CONTINUITY or cannot
    be formed (a DomainError, such as a gamma argument within GAMMA_MARGIN of
    an endpoint). Otherwise a power law is fitted through the two edge
    samples, anchored at the second; a zero or a sign change leaves no tail.
    """
    tails = []
    for term, pair, edge in ((f.tail_inner, slice(2), 0), (f.tail_outer, slice(-2, None), 1)):
        r2, v2 = at[pair], values[pair]
        tail = None
        if term is not None and alpha < term.exponent < n:
            with contextlib.suppress(DomainError):
                tail = image(term)
        if tail is None or _tail_jumps(tail(r2[edge]), v2[edge]):
            a = _edge_slope(r2, v2)
            tail = None if a is None or not math.isfinite(a) else PowerLawTerm(v2[1] * r2[1] ** a, a)
        tails.append(tail)
    return RadialProfile(at, values, *tails, point_errors=errors)


def _edge_slope(r2, v2):
    """Decay exponent of the power law through two samples, None across a zero or sign change."""
    if v2[0] == 0.0 or v2[1] == 0.0 or v2[0] * v2[1] < 0.0:
        return None
    return -math.log(abs(v2[1] / v2[0])) / math.log(r2[1] / r2[0])


def _inner_mass_bound(f, n):
    """Order-of-magnitude bound for int_0^r0 |f| rho^(N-1) drho, the mass below the grid."""
    a_est = _edge_slope(f.radii[:2], f.values[:2]) or 0.0
    if a_est >= n:
        return math.inf
    return abs(f.values[0]) * f.radii[0] ** float(n) / (n - a_est)


def _trunc_inner_estimate(f, r, n, mu):
    """Order-of-magnitude bound for the discarded mass below the grid, times the kernel."""
    if f.values[0] == 0.0:
        return 0.0  # data decays into the edge; nothing measurable is cut
    mass = _inner_mass_bound(f, n)
    if mass == math.inf:
        return mass
    r0 = float(f.radii[0])
    return mass * _kernel_sep(np.maximum(r, r0), 0.5 * np.minimum(r, r0), n, mu)


def _trunc_outer_estimate(f, alpha, scale, power):
    """Order-of-magnitude bound |v| scale r1^power / (a - alpha) for the mass cut above the grid."""
    if f.values[-1] == 0.0:
        return 0.0  # data decays into the edge; nothing measurable is cut
    a_est = _edge_slope(f.radii[-2:], f.values[-2:])
    if a_est is None or a_est <= alpha:
        return math.inf
    return abs(f.values[-1]) * scale * float(f.radii[-1]) ** power / (a_est - alpha)


# ---------------------------------------------------------------------------
# Radial inverse Laplacian (Newton potential, alpha = 2 specialization)


def inverse_laplacian_radial(g, dim):
    """Solve -Lap u = g radially:

        u(r) = (1/(N-2)) [ r^(2-N) int_0^r g rho^(N-1) drho + int_r^inf g rho drho ].

    Each grid interval is one panel of _adaptive_gl's G12/K25 rule, with
    one pass of g over its 25 nodes for both moments: the K25 sum is the
    value and |K25 - G12| the quadrature part of point_errors. Requires inner
    tail exponent < N and outer tail exponent > 2 when tails are attached; a
    missing tail truncates and its estimate is reported in point_errors.
    Returns u on g's grid.
    """
    n = _check_dim(dim)
    _check_tail_windows(g, 2.0, n)
    radii = g.radii
    half = 0.5 * (radii[1:] - radii[:-1])
    rho = _gauss_points(np.column_stack([radii[:-1], radii[1:]]))
    vals = g(rho)
    # (G12, K25, K25 of |.|) sums of int g rho^(N-1) and of int g rho per grid interval
    (mass_g, mass, size_mass), (line_g, line, size_line) = (
        np.array(_rule_sums(vals * rho ** p)) * half for p in (n - 1.0, 1.0))

    def potential(inner, mass, outer, line):
        """(1/(N-2)) [r^(2-N) (inner + cumsum mass) + outer + reverse cumsum line] on the grid."""
        return ((inner + np.concatenate([[0.0], np.cumsum(mass)])) * radii ** (2.0 - n)
                + (outer + np.concatenate([np.cumsum(line[::-1])[::-1], [0.0]]))) / (n - 2.0)

    if g.tail_inner is not None:
        c, a = g.tail_inner.coefficient, g.tail_inner.exponent
        inner0, trunc_in = c * radii[0] ** (n - a) / (n - a), 0.0
    else:
        inner0, trunc_in = 0.0, _inner_mass_bound(g, n)
    if g.tail_outer is not None:
        c, a = g.tail_outer.coefficient, g.tail_outer.exponent
        outer_inf, trunc_out = c * radii[-1] ** (2.0 - a) / (a - 2.0), 0.0
    else:
        outer_inf, trunc_out = 0.0, _trunc_outer_estimate(g, 2.0, 1.0, 2.0)

    u = potential(inner0, mass, outer_inf, line)
    # the K25/G12 differences, floored by the rounding of every summed term
    errors = (potential(_ROUNDOFF * abs(inner0), np.abs(mass - mass_g) + _ROUNDOFF * size_mass,
                        _ROUNDOFF * abs(outer_inf), np.abs(line - line_g) + _ROUNDOFF * size_line)
              + trunc_in * radii ** (2.0 - n) / (n - 2.0) + trunc_out / (n - 2.0))
    errors = errors / np.maximum(np.abs(u), 1e-300)

    return _potential_profile(
        g, radii, u, errors, 2.0, n,
        lambda t: PowerLawTerm(t.coefficient / ((t.exponent - 2.0) * (n - t.exponent)),
                               t.exponent - 2.0))
