"""Discrete moving-plane machinery on uniform Cartesian grids.

A field u sampled on [-L, L]^N is compared with its reflection across the
hyperplane {x1 = lambda}: w_lambda = u - u_lambda on the half-space
{x1 < lambda}. Reflection planes are restricted to multiples of h/2 so
reflected nodes land exactly on nodes and the comparison is free of
interpolation error; the sweep estimates the critical plane lambda0 as the
largest sampled lambda below which the positive part of w_lambda vanishes.

Singular sets are finite point sets on {x1 = 0} (finite sets have zero
2-capacity in dimension >= 3); each point carries an exclusion ball whose
nodes are masked out of every supremum and difference.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special_fn import _check_count

_HYPERPLANE_TOL = 1e-12
_COMMENSURATE_TOL = 1e-9
# elements in one block of whole x1-rows (a row of a larger grid is a block)
_BLOCK = 1 << 16


def _finite(name, x, positive):
    """float(x), which must be finite and positive (non-negative if not positive)."""
    x = float(x)
    if not (0.0 < x < math.inf if positive else 0.0 <= x < math.inf):
        sign = "positive" if positive else "non-negative"
        raise DomainError(f"{name} must be finite and {sign}, got {x}")
    return x


def _check_field_dim(dim):
    """The field dimension, which must be 2 or 3."""
    if dim not in (2, 3):
        raise DomainError(f"field dimension must be 2 or 3, got {dim}")
    return int(dim)


def _check_point(name, p, n, lo, hi, on_plane):
    """p as a float array of shape (n,), finite and in reach of the grid [lo, hi]^n.

    on_plane also requires p to lie on {x1 = 0}. The node farthest from p
    sits at lo or hi on every axis, so its squared distance bounds them all;
    it is summed in Python floats, which overflow to inf without numpy's
    warning.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (n,):
        raise DomainError(f"{name} {p} has wrong dimension")
    if on_plane and abs(p[0]) > _HYPERPLANE_TOL:
        raise DomainError(f"{name} {p} must lie on the hyperplane x1 = 0")
    d2 = 0.0
    for x in p.tolist():
        if not math.isfinite(x):
            raise DomainError(f"{name} {p} must have finite coordinates")
        far = max(abs(lo - x), abs(hi - x))
        d2 += far * far
    if not math.isfinite(d2):
        raise DomainError(f"squared distances from the grid to {name} {p} overflow")
    return p


def _row_blocks(shape, start=0, stop=None):
    """Slices of whole x1-rows from start to stop, _BLOCK elements or one row each.

    Every pass over the grid (the field build, the finiteness check and the
    reductions) works through these, so its temporaries hold one block.
    """
    rows = max(1, _BLOCK // math.prod(shape[1:]))
    stop = shape[0] if stop is None else stop
    return [slice(i, min(i + rows, stop)) for i in range(start, stop, rows)]


def _ball_mask(axis, n, balls, profile=None):
    """(mask, values) on the grid axis^n for balls of (point, radius) pairs.

    The mask holds the nodes inside any ball; balls that cover every node
    raise DomainError. With a profile, values is the sum over balls of
    profile(|x - point|), NaN where a term is not finite and on the mask;
    without one it is None. Rows are filled one block at a time, and d2 is
    summed axis by axis in the order of the whole-grid sum.
    """
    shape = (axis.size,) * n
    mask = np.zeros(shape, dtype=bool)
    values = None if profile is None else np.zeros(shape)
    # per ball, the squared offsets along each axis, shaped to broadcast on it
    squares = [[((axis - c) ** 2).reshape((-1,) + (1,) * (n - 1 - a)) for a, c in enumerate(p)]
               for p, _ in balls]
    for s in _row_blocks(shape):
        for (_, rad), (sq0, *rest) in zip(balls, squares):
            d2 = sum(rest, sq0[s])
            mask[s] |= d2 <= rad * rad
            if profile is not None:
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    term = np.asarray(profile(np.sqrt(d2, out=d2)), dtype=float)
                term[~np.isfinite(term)] = np.nan
                values[s] += term
        if values is not None:
            values[s][mask[s]] = np.nan
    if mask.all():
        raise DomainError("exclusion balls cover every grid node: no data to compare")
    return mask, values


class CartesianField:
    """Scalar field on a uniform grid over [-L, L]^N with masked singular points.

    Axis 0 is the reflection direction x1. `gamma_set` is a list of
    (point, exclusion_radius) pairs; nodes inside any exclusion ball are
    masked and skipped by every comparison; balls that cover every node
    raise DomainError. Each point must have shape (N,), finite coordinates
    and overflow-free squared distances to the grid; check_gamma=False waives
    only the rule that it lie on {x1 = 0}. The node set is closed under every
    coordinate sign flip by construction of the uniform symmetric grid.
    """

    def __init__(self, dim, h, extent, values, gamma_set=(), mask=None, check_gamma=True):
        n = _check_field_dim(dim)
        h, extent = _finite("spacing", h, True), _finite("extent", extent, True)
        steps = 2.0 * extent / h
        if abs(steps - round(steps)) > _COMMENSURATE_TOL:
            raise DomainError(f"extent {extent} is not a whole number of cells of size {h}")
        m = int(round(steps)) + 1
        self.dim, self.h, self.extent, self.shape = n, h, extent, (m,) * n
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise DomainError(f"values shape {values.shape} does not match grid shape {self.shape}")
        self.axis = -extent + h * np.arange(m)
        lo, hi = float(self.axis[0]), float(self.axis[-1])
        self.gamma_set = [(_check_point("singular point", p, n, lo, hi, check_gamma),
                           _finite("exclusion radius", rad, False)) for p, rad in gamma_set]
        if mask is None:
            mask, _ = _ball_mask(self.axis, n, self.gamma_set)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != self.shape:
                raise DomainError("mask shape does not match grid shape")
        self.mask = mask
        if not all(np.all(np.isfinite(values[s]) | mask[s]) for s in _row_blocks(self.shape)):
            raise DomainError("field values must be finite outside the exclusion balls")
        self.values = values

    def unmasked_max(self):
        return max(float(np.max(np.abs(self.values[s]), where=~self.mask[s], initial=0.0))
                   for s in _row_blocks(self.shape))


def sample_field(profile, centers, dim=3, extent=2.0, num=65, exclusion_radius=None,
                 check_centers=True):
    """Build u(x) = sum over centers c of profile(|x - c|) on a uniform grid.

    profile is a RadialProfile or any callable of r >= 0. Centers must lie on
    {x1 = 0}; check_centers=False skips that requirement so negative tests can
    construct deliberately off-axis fields. Each center gets an exclusion ball
    of radius exclusion_radius (default: one grid cell), inside which nodes
    are masked and the stored value is NaN; balls that cover every node
    raise DomainError.
    """
    n = _check_field_dim(dim)
    num = _check_count("num", num, 3)
    extent = _finite("extent", extent, True)
    h = _finite("spacing", 2.0 * extent / (num - 1), True)
    excl = h if exclusion_radius is None else _finite("exclusion radius", exclusion_radius, False)
    axis = -extent + h * np.arange(num)
    balls = [(_check_point("center", c, n, -extent, -extent + h * (num - 1), check_centers), excl)
             for c in centers]
    mask, values = _ball_mask(axis, n, balls, profile)
    return CartesianField(n, h, extent, values, gamma_set=balls, mask=mask, check_gamma=False)


def _plane_index_shift(field, lam):
    """lam as an integer count of h/2 half-cells; rejects non-finite or non-commensurate planes."""
    lam = float(lam)
    halves = 2.0 * lam / field.h
    if not (math.isfinite(halves) and abs(halves - round(halves)) <= _COMMENSURATE_TOL):
        raise DomainError(f"plane lambda={lam} is not a multiple of h/2={field.h / 2}; "
                          "reflected nodes would fall off the grid")
    return int(round(halves))


def reflect(field, lam):
    """u_lambda(x) = u(2*lambda - x1, x2, ...) as an exact index permutation.

    Nodes whose reflection leaves the box, and reflections of masked nodes,
    are masked in the result. lambda must be a multiple of h/2. The half-cell
    count is clamped to +-2m, which leaves every mirror outside the box as
    the exact count does.
    """
    m = field.shape[0]
    m_half = min(max(_plane_index_shift(field, lam), -2 * m), 2 * m)
    i = np.arange(m)
    j = m_half + (m - 1) - i
    valid = (j >= 0) & (j < m)
    jc = np.clip(j, 0, m - 1)
    values = field.values[jc]  # integer indexing copies: the field is left as it is
    mask = field.mask[jc] | ~valid.reshape((-1,) + (1,) * (field.dim - 1))
    values[mask] = np.nan
    lam = float(lam)
    gamma = [(np.concatenate([[2.0 * lam - p[0]], p[1:]]), rad) for p, rad in field.gamma_set]
    return CartesianField(field.dim, field.h, field.extent, values,
                          gamma_set=gamma, mask=mask, check_gamma=False)


def _resolve_tol(field, tol):
    """tol, defaulting to 1e-12 of the largest unmasked magnitude; finite and >= 0."""
    if tol is None:
        return 1e-12 * field.unmasked_max()
    return _finite("tol", tol, False)


def w_plus_sup(field, lam, tol=None):
    """sup over {x1 < lambda} of max(u - u_lambda, 0), masked nodes skipped.

    A supremum within tol of zero (tol >= 0, default 1e-12 times the largest
    unmasked field magnitude) counts as zero. No reflected field is built.
    """
    tol = _resolve_tol(field, tol)
    sup = _row_pair_max(field.values, field.mask, _plane_index_shift(field, lam))
    return sup if sup > tol else 0.0


def _row_pair_max(values, mask, k):
    """max of u - u_lambda over the plane of k half-cells; -inf if it compares no live pair.

    Row i pairs with its mirror row j = k + m-1 - i; only rows with i < j, the
    partner inside the box and neither node masked are compared. Both sides
    are views into values (the partner rows read in reverse), taken one
    block of rows at a time.
    """
    m = values.shape[0]
    c = k + m - 1
    top = -math.inf
    for s in _row_blocks(values.shape, max(0, k), min(m, (c + 1) // 2)):
        part = slice(c - s.stop + 1, c - s.start + 1)
        w = values[s] - values[part][::-1]
        w[mask[s] | mask[part][::-1]] = -np.inf
        top = max(top, float(np.max(w)))
    return top


@dataclass
class MovingPlaneReport:
    """Per-plane suprema, the critical-plane estimate, and monotonicity data.

    lambda0_estimate is the largest sampled lambda such that sup w_t^+ stays
    at zero for every sampled t <= lambda, over the planes that compare a live
    (unmasked) node pair; None when the first such plane fails, or there is
    none. The reverse fields repeat the sweep from the opposite side, reading
    the same rows of the field in reverse order. monotonicity_min is the
    minimum forward x1-difference over nodes with x1 < -h. dim_in_scope is
    False for 2-d smoke-test fields, which the symmetry statements do not
    cover.
    """

    lambdas: np.ndarray
    sup_w_plus: np.ndarray
    lambda0_estimate: float | None
    monotonicity_min: float
    reverse_sup_w_plus: np.ndarray
    reverse_lambda0_estimate: float | None
    tol: float
    dim_in_scope: bool


def default_lambda_grid(field):
    """Planes from -L up to -h, snapped to multiples of h/2.

    Reads only field.h and field.extent. The raw planes start at -L,
    max(0.1, h/4) apart, and -h is appended. Where h/4 > 0.1 they hit every
    multiple of h/2 that planes 0.1 apart would, so the grid is the same while
    its size follows num, not the extent.
    """
    half = field.h / 2.0
    raw = np.append(np.arange(-field.extent, 0.0, max(0.1, half / 2.0)), -field.h)
    snapped = np.round(raw / half) * half
    # sorted, then each value once: np.unique would import numpy.ma (~15 ms)
    planes = np.sort(snapped[snapped < 0.0])
    first = np.ones(planes.size, dtype=bool)
    first[1:] = planes[1:] != planes[:-1]
    return planes[first]


def sweep_lambda0(field, lambda_grid=None, tol=None):
    """Sweep the reflection plane and estimate the critical lambda0.

    Runs the sweep in both directions and reports both estimates. The reverse
    pass reads the same rows of the field in reverse order, so each plane
    compares row slices of one array in place and no second field is built.
    Requires a strictly increasing grid of negative, h/2-commensurate planes.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(field)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0:
        raise DomainError("no admissible reflection planes in the grid")
    if not np.all(np.diff(lambda_grid) > 0.0) or not np.all(lambda_grid < 0.0):
        raise DomainError("lambda grid must be strictly increasing and negative")
    shifts = [_plane_index_shift(field, lam) for lam in lambda_grid]
    tol = _resolve_tol(field, tol)
    values, mask = field.values, field.mask
    max_fwd = np.array([_row_pair_max(values, mask, k) for k in shifts])
    max_rev = np.array([_row_pair_max(values[::-1], mask[::-1], k) for k in shifts])

    return MovingPlaneReport(
        lambdas=lambda_grid,
        sup_w_plus=np.where(max_fwd > tol, max_fwd, 0.0),
        lambda0_estimate=_largest_passing(lambda_grid, max_fwd, tol),
        monotonicity_min=_monotonicity_min(field),
        reverse_sup_w_plus=np.where(max_rev > tol, max_rev, 0.0),
        reverse_lambda0_estimate=_largest_passing(lambda_grid, max_rev, tol),
        tol=tol,
        dim_in_scope=field.dim >= 3,
    )


def _largest_passing(lambdas, maxima, tol):
    """The last plane before the first failing one, skipping planes that compare nothing."""
    best = None
    for lam, top in zip(lambdas, maxima):
        if top > tol:
            break
        if top > -math.inf:
            best = float(lam)
    return best


def _monotonicity_min(field):
    """Minimum forward x1-difference over unmasked node pairs with x1 < -h."""
    k = min(int(np.count_nonzero(field.axis < -field.h)), field.shape[0] - 1)
    values, mask = field.values, field.mask
    low = math.inf
    for s in _row_blocks(field.shape, 0, k):
        up = slice(s.start + 1, s.stop + 1)
        low = min(low, float(np.min(values[up] - values[s], where=~(mask[up] | mask[s]),
                                    initial=math.inf)))
    return low
