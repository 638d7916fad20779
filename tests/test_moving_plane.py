"""Discrete moving-plane machinery: fields, reflections, sweeps."""

import math
import struct
import tracemalloc
import types
import warnings
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartree_singular import (
    CartesianField,
    DomainError,
    PowerLawTerm,
    RadialProfile,
    default_lambda_grid,
    log_grid,
    reflect,
    sample_field,
    sweep_lambda0,
    w_plus_sup,
)
from hartree_singular import moving_plane

DECAY = PowerLawTerm(1.0, 0.5)
ORIGIN = (0.0, 0.0, 0.0)


def small_field(num=17, centers=(ORIGIN,), **kw):
    return sample_field(DECAY, centers, dim=3, extent=2.0, num=num, **kw)


# ---------------------------------------------------------------------------
# Field construction


def test_sample_field_shape_and_axis():
    f = small_field()
    assert f.shape == (17, 17, 17)
    assert f.h == pytest.approx(0.25)
    assert f.axis[0] == -2.0 and f.axis[-1] == 2.0
    assert f.dim == 3


def test_equal_shells_get_bitwise_equal_values():
    # grid nodes are dyadic, so |x|^2 is computed exactly; all nodes on the
    # same integer shell must carry the identical double
    f = small_field()
    shells = defaultdict(set)
    scale = f.h * f.h
    for idx in np.ndindex(f.shape):
        if f.mask[idx]:
            continue
        x = np.array([f.axis[i] for i in idx])
        key = int(round(float(x @ x) / scale))
        shells[key].add(float(f.values[idx]))
    assert len(shells) > 50
    assert all(len(vals) == 1 for vals in shells.values())


def test_two_center_field_is_even_in_every_axis():
    f = sample_field(DECAY, [(0.0, 0.5, 0.0), (0.0, -0.5, 0.0)], num=17)
    for ax in range(3):
        assert np.array_equal(f.values, np.flip(f.values, axis=ax), equal_nan=True)
        assert np.array_equal(f.mask, np.flip(f.mask, axis=ax))


def test_masking_marks_exclusion_balls():
    f = small_field()
    # default exclusion radius is one cell: the center plus 6 face neighbors
    assert int(f.mask.sum()) == 7
    assert np.all(np.isnan(f.values[f.mask]))
    assert np.all(np.isfinite(f.values[~f.mask]))
    wider = small_field(exclusion_radius=0.4)  # reaches the 12 edge diagonals
    assert int(wider.mask.sum()) == 19


def test_empty_center_list_gives_zero_field():
    f = sample_field(DECAY, [], num=9)
    assert not f.mask.any()
    assert np.all(f.values == 0.0)
    assert f.unmasked_max() == 0.0


def test_center_validation():
    with pytest.raises(DomainError):
        sample_field(DECAY, [(0.5, 0.0, 0.0)], num=9)
    # the same center is accepted when the hyperplane check is waived
    f = sample_field(DECAY, [(0.5, 0.0, 0.0)], num=9, check_centers=False)
    assert f.mask.any()
    with pytest.raises(DomainError):
        sample_field(DECAY, [(0.0, 0.0)], dim=3, num=9)  # wrong length
    with pytest.raises(DomainError):
        sample_field(DECAY, [ORIGIN], num=2)
    with pytest.raises(DomainError):
        sample_field(DECAY, [ORIGIN], dim=4, num=9)
    for num in (3.7, math.inf, math.nan):
        with pytest.raises(DomainError):
            sample_field(DECAY, [ORIGIN], num=num)
    with pytest.raises(DomainError):
        sample_field(DECAY, [ORIGIN], dim=3.5, num=9)
    for rad in (-1.0, math.inf):
        with pytest.raises(DomainError):
            sample_field(DECAY, [ORIGIN], num=9, exclusion_radius=rad)
    with pytest.raises(DomainError):
        sample_field(DECAY, [ORIGIN], num=9, extent=math.inf)
    for center in ((0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)):
        with pytest.raises(DomainError):
            sample_field(DECAY, [center], num=9)  # not a silent all-zero field
    with pytest.raises(DomainError):
        sample_field(DECAY, [ORIGIN], num=9, extent=1e200)  # squared distances overflow
    with pytest.raises(DomainError):
        sample_field(DECAY, [(0.0, 1e200, 0.0)], num=9)


def test_cartesian_field_validation():
    with pytest.raises(DomainError):
        CartesianField(3, 0.25, 2.0, np.zeros((5, 5, 5)))  # wrong shape
    with pytest.raises(DomainError):
        CartesianField(3, 0.3, 1.0, np.zeros((8, 8, 8)))  # non-commensurate
    bad = np.zeros((9, 9, 9))
    bad[0, 0, 0] = math.nan
    with pytest.raises(DomainError):
        CartesianField(3, 0.5, 2.0, bad)  # NaN outside any mask
    with pytest.raises(DomainError):
        CartesianField(3, 0.5, 2.0, np.zeros((9, 9, 9)),
                       gamma_set=[((0.5, 0.0, 0.0), 0.5)])  # point off x1 = 0
    for check_gamma in (True, False):  # check_gamma waives only the x1 = 0 rule
        with pytest.raises(DomainError, match="wrong dimension"):
            CartesianField(3, 0.5, 2.0, np.zeros((9, 9, 9)),
                           gamma_set=[(np.zeros(2), 0.5)], check_gamma=check_gamma)
    with pytest.raises(DomainError):
        CartesianField(3, 0.5, 2.0, np.zeros((9, 9, 9)),
                       mask=np.zeros((5, 5, 5), dtype=bool))
    with pytest.raises(DomainError):
        CartesianField(3.5, 0.5, 2.0, np.zeros((9, 9, 9)))
    with pytest.raises(DomainError):
        CartesianField(3, 0.5, math.inf, np.zeros((9, 9, 9)))
    with pytest.raises(DomainError):
        CartesianField(3, math.inf, 2.0, np.zeros((1, 1, 1)))
    with pytest.raises(DomainError):
        CartesianField(3, 0.5, 2.0, np.zeros((9, 9, 9)),
                       gamma_set=[((0.0, 0.0, 0.0), -0.5)])  # negative exclusion radius
    for point in ((0.0, math.inf, 0.0), (0.0, 1e200, 0.0)):  # non-finite, overflowing
        with pytest.raises(DomainError):
            CartesianField(3, 0.5, 2.0, np.zeros((9, 9, 9)), gamma_set=[(point, 0.5)])
        with pytest.raises(DomainError):  # also with an explicit mask and no x1 = 0 rule
            CartesianField(3, 0.5, 2.0, np.zeros((9, 9, 9)), gamma_set=[(point, 0.5)],
                           mask=np.zeros((9, 9, 9), dtype=bool), check_gamma=False)
    with pytest.raises(DomainError):
        CartesianField(3, 2.5e199, 1e200, np.zeros((9, 9, 9)), gamma_set=[(ORIGIN, 0.5)])


def test_exclusion_balls_covering_every_node_are_rejected():
    # no node left to compare: a sweep would report a symmetry verdict about no data
    with pytest.raises(DomainError, match="exclusion balls cover every grid node"):
        sample_field(DECAY, [ORIGIN], num=9, exclusion_radius=10.0)
    with pytest.raises(DomainError, match="exclusion balls cover every grid node"):
        CartesianField(3, 0.5, 2.0, np.zeros((9, 9, 9)), gamma_set=[(ORIGIN, 4.0)])
    # one node outside the balls is enough: the corners sit at distance 2*sqrt(3)
    f = CartesianField(3, 0.5, 2.0, np.zeros((9, 9, 9)), gamma_set=[(ORIGIN, 3.4)])
    assert int((~f.mask).sum()) == 8
    # a reflection whose partners all leave the box is an explicit mask, and stays valid
    assert reflect(small_field(), -3.0).mask.all()


# ---------------------------------------------------------------------------
# Row blocks: every pass over the grid works through blocks of whole x1-rows


def _ball_mask_whole(axis, n, balls, profile=None):
    """_ball_mask over the whole grid at once, as first written: its reference."""
    mask = np.zeros((axis.size,) * n, dtype=bool)
    values = None if profile is None else np.zeros(mask.shape)
    grids = np.meshgrid(*([axis] * n), indexing="ij", sparse=True)
    for p, rad in balls:
        d2 = sum((g - c) ** 2 for g, c in zip(grids, p))
        mask |= d2 <= rad * rad
        if profile is not None:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                term = np.asarray(profile(np.sqrt(d2)), dtype=float)
            term[~np.isfinite(term)] = np.nan
            values += term
    if mask.all():
        raise DomainError("exclusion balls cover every grid node: no data to compare")
    if values is not None:
        values[mask] = np.nan
    return mask, values


def _unmasked_max_whole(field):
    return float(np.max(np.abs(field.values), where=~field.mask, initial=0.0))


def _row_pair_max_whole(values, mask, k):
    """The whole-array _row_pair_max, and the differences it reduced: its reference."""
    m = values.shape[0]
    c = k + m - 1
    lo, hi = max(0, k), min(m, (c + 1) // 2)
    if lo >= hi:
        return -math.inf, np.empty(0)
    part = slice(c - hi + 1, c - lo + 1)
    w = values[lo:hi] - values[part][::-1]
    w[mask[lo:hi] | mask[part][::-1]] = -np.inf
    return float(np.max(w)), w


def _monotonicity_min_whole(field):
    """The whole-array _monotonicity_min, and the differences it reduced: its reference."""
    k = min(int(np.count_nonzero(field.axis < -field.h)), field.shape[0] - 1)
    values, mask = field.values, field.mask
    d = values[1:k + 1] - values[:k]
    live = ~(mask[1:k + 1] | mask[:k])
    return float(np.min(d, where=live, initial=math.inf)), d[live]


def _same_bits(got, want, reduced):
    """got is want bit for bit, signed zeros included.

    Where want is a zero and the reduced values hold zeros of both signs,
    numpy's whole-array min or max picks the sign by its SIMD lane layout
    (the same values in another order can give the other sign), so there
    only the value is fixed.
    """
    signs = np.signbit(reduced[reduced == 0.0])
    if want == 0.0 and signs.any() and not signs.all():
        return got == 0.0
    return struct.pack("d", got) == struct.pack("d", want)


PROFILES = [DECAY, PowerLawTerm(2.0, -1.0),
            RadialProfile.from_power(PowerLawTerm(1.5, 1.2), log_grid(0.05, 5.0, 40))]


@st.composite
def ball_cases(draw):
    """A grid axis, 0-3 balls centred on or off its lattice, and a profile."""
    dim = draw(st.sampled_from([2, 3]))
    num = draw(st.integers(3, 17))
    axis = -2.0 + 4.0 / (num - 1) * np.arange(num)
    node = st.tuples(*[st.integers(0, num - 1)] * dim).map(lambda idx: axis[list(idx)])
    point = st.one_of(node, st.tuples(*[COORD] * dim).map(np.array))
    radius = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 6.0))
    balls = draw(st.lists(st.tuples(point, radius), max_size=3))
    return dim, axis, balls, draw(st.sampled_from(PROFILES))


def _hand_built(rng, dim, axis, mask, values):
    """A field with finite values on its masked nodes and signed zeros among the others.

    A third of the draws keep the sampled values and zero a fifth of the
    nodes, a third hold only signed zeros, and a third rise by one per
    x1-row from a zero row i, with -0.0 on about half of row i+1: their
    monotonicity minimum is a -0.0 whenever such a pair is compared.
    """
    shape = mask.shape
    mask = mask | (rng.random(shape) < 0.2)
    zeros = rng.choice([0.0, -0.0], shape)
    kind = rng.integers(3)
    if kind == 0:
        values = np.where(rng.random(shape) < 0.2, zeros, values)
    elif kind == 1:
        values = zeros
    else:
        i = rng.integers(shape[0] - 1)
        values = np.repeat(np.arange(shape[0]) - float(i), mask[0].size).reshape(shape)
        values[i + 1] = np.where(np.signbit(zeros[i + 1]), -0.0, 1.0)
    values[mask] = rng.choice([-1e300, -1.0, 1.0, 1e300], int(mask.sum()))
    return CartesianField(dim, 4.0 / (axis.size - 1), 2.0, values, mask=mask, check_gamma=False)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(case=ball_cases(), block=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_row_blocks_match_the_whole_array_forms_bit_for_bit(case, block, seed):
    # a block smaller than a row, or not a whole number of rows, leaves ragged edges
    dim, axis, balls, profile = case
    m = axis.size
    with mock.patch.object(moving_plane, "_BLOCK", block):
        try:
            mask, values = _ball_mask_whole(axis, dim, balls, profile)
        except DomainError:
            for prof in (None, profile):
                with pytest.raises(DomainError, match="cover every grid node"):
                    moving_plane._ball_mask(axis, dim, balls, prof)
            mask, values = np.zeros((m,) * dim, dtype=bool), np.ones((m,) * dim)
        else:
            got_mask, got = moving_plane._ball_mask(axis, dim, balls, profile)
            assert got_mask.tobytes() == mask.tobytes()
            assert got.tobytes() == values.tobytes()
            assert np.array_equal(np.isnan(got), np.isnan(values))
            assert moving_plane._ball_mask(axis, dim, balls)[0].tobytes() == mask.tobytes()
        rng = np.random.default_rng(seed)
        f = _hand_built(rng, dim, axis, mask, values)
        assert _same_bits(f.unmasked_max(), _unmasked_max_whole(f), np.empty(0))
        for vals, msk in ((f.values, f.mask), (f.values[::-1], f.mask[::-1])):
            for k in range(-m - 1, m + 2):
                want, reduced = _row_pair_max_whole(vals, msk, k)
                assert _same_bits(moving_plane._row_pair_max(vals, msk, k), want, reduced), k
        want, reduced = _monotonicity_min_whole(f)
        assert _same_bits(moving_plane._monotonicity_min(f), want, reduced)
        live = np.flatnonzero(~f.mask)
        if live.size:  # a NaN in any block is found
            bad = f.values.copy()
            bad.flat[rng.choice(live)] = math.nan
            with pytest.raises(DomainError, match="finite outside"):
                CartesianField(dim, f.h, f.extent, bad, mask=f.mask)


def test_field_build_and_sweep_hold_block_sized_temporaries():
    # tracemalloc sees numpy's buffers; the whole-grid forms held several
    # grids of d2, terms and differences at once
    num = 97
    block = max(1, moving_plane._BLOCK // num ** 2) * num ** 2 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        f = sample_field(DECAY, [(0.0, 0.3, -0.2), (0.0, -0.5, 0.4)], num=num)
        build = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        sweep_lambda0(f)
        sweep = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert build <= f.values.nbytes + f.mask.nbytes + 4 * block
    assert sweep <= 4 * block


# ---------------------------------------------------------------------------
# Reflection


def test_reflect_about_zero_is_parity():
    f = small_field()
    r = reflect(f, 0.0)
    assert np.array_equal(r.values, f.values, equal_nan=True)


def test_reflect_is_an_involution_where_defined():
    f = small_field()
    r2 = reflect(reflect(f, -0.5), -0.5)
    live = ~r2.mask
    assert live.any()
    assert np.array_equal(r2.values[live], f.values[live])
    # nodes reflected out of the box are masked
    assert r2.mask.sum() >= f.mask.sum()


def test_reflect_transports_gamma_and_mask():
    f = small_field()
    r = reflect(f, -0.5)
    point, rad = r.gamma_set[0]
    assert point[0] == pytest.approx(-1.0)
    assert rad == f.gamma_set[0][1]
    i = int(round((-1.0 + 2.0) / f.h))
    c = 8  # index of 0.0
    assert r.mask[i, c, c]


def test_reflect_commensurability_required():
    f = small_field()
    with pytest.raises(DomainError):
        reflect(f, -0.07)
    with pytest.raises(DomainError):
        reflect(f, -0.1)  # not a multiple of h/2 = 0.125
    reflect(f, -0.125)  # half-cell planes are fine


def test_non_finite_planes_are_rejected():
    # round() of a non-finite half-cell count raised OverflowError or ValueError;
    # -1e308 is finite but 2 lambda / h is not
    f = small_field()
    for lam in (math.inf, -math.inf, math.nan, -1e308):
        with pytest.raises(DomainError, match="not a multiple of h/2"):
            w_plus_sup(f, lam)
        with pytest.raises(DomainError, match="not a multiple of h/2"):
            reflect(f, lam)
    for lam in (-math.inf, -1e308):
        with pytest.raises(DomainError, match="not a multiple of h/2"):
            sweep_lambda0(f, lambda_grid=[lam])


def test_far_planes_mask_everything_or_reject_the_mirrored_point():
    # a huge finite plane put 2 lambda/h past int64 (OverflowError); it now
    # reflects like any plane outside the box, and a mirrored singular point
    # whose squared distances overflow is the usual DomainError
    f = small_field()
    plain = CartesianField(3, f.h, f.extent, np.ones(f.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (2.25, -2.25, 1e19, -1e19):
            r = reflect(f, lam)
            assert r.mask.all() and np.isnan(r.values).all(), lam
            assert r.gamma_set[0][0][0] == 2.0 * lam, lam
        for lam in (1e300, -1e300):
            assert reflect(plain, lam).mask.all(), lam
            with pytest.raises(DomainError, match="overflow"):
                reflect(f, lam)


# ---------------------------------------------------------------------------
# w_plus_sup


def test_w_plus_vanishes_exactly_for_even_decreasing_field():
    f = small_field()
    for lam in default_lambda_grid(f):
        assert w_plus_sup(f, lam) == 0.0, lam


def test_w_plus_zero_for_constant_field():
    f = sample_field(lambda r: np.ones_like(np.asarray(r, dtype=float)),
                     [ORIGIN], num=9)
    assert w_plus_sup(f, -0.5) == 0.0


def test_w_plus_matches_brute_force_on_shifted_field():
    f = sample_field(DECAY, [(-0.5, 0.0, 0.0)], num=17, check_centers=False)
    m = f.shape[0]
    for lam in (-1.0, -0.75, -0.5, -0.25):
        m_half = int(round(2.0 * lam / f.h))
        best = 0.0
        for i in range(m):
            j = m_half + (m - 1) - i
            if not 0 <= j < m:
                continue
            if not f.axis[i] < lam:
                continue
            for a in range(m):
                for b in range(m):
                    if f.mask[i, a, b] or f.mask[j, a, b]:
                        continue
                    w = f.values[i, a, b] - f.values[j, a, b]
                    if w > best:
                        best = w
        assert w_plus_sup(f, lam, tol=0.0) == best, lam


def test_w_plus_detects_asymmetry_past_the_balance_plane():
    f = sample_field(DECAY, [(-0.5, 0.0, 0.0)], num=17, check_centers=False)
    assert w_plus_sup(f, -0.5) == 0.0  # plane through the center balances
    assert w_plus_sup(f, -0.75) == 0.0  # left of the center still balances
    assert w_plus_sup(f, -0.25) > 0.0  # right of the center does not


def test_w_plus_tolerance_snaps_noise():
    # a field constant in x1 up to a 1e-15-scale tilt has w positive but far
    # below the default tolerance (1e-12 of the field max): it must snap to
    # exactly zero, while tol=0 sees the raw positive part
    f = small_field()
    x1 = f.axis.reshape(-1, 1, 1)
    tilted = CartesianField(3, f.h, f.extent,
                            np.broadcast_to(1.0 - 1e-15 * x1, f.shape).copy())
    assert w_plus_sup(tilted, -0.5) == 0.0
    assert w_plus_sup(tilted, -0.5, tol=0.0) > 0.0


def _w_plus_sup_by_reflection(field, lam, tol=None):
    """The reflect-based w_plus_sup that the in-place row comparison replaced: its reference."""
    if tol is None:
        tol = 1e-12 * field.unmasked_max()
    refl = reflect(field, lam)
    sel = field.axis < float(lam)
    if not sel.any():
        return 0.0
    u = field.values[sel]
    ur = refl.values[sel]
    live = ~(field.mask[sel] | refl.mask[sel])
    if not live.any():
        return 0.0
    w = u[live] - ur[live]
    w[w <= tol] = 0.0
    sup = float(np.max(w, initial=0.0))
    return sup


COORD = st.floats(-2.0, 2.0)


@st.composite
def fields_and_planes(draw):
    dim = draw(st.sampled_from([2, 3]))
    num = draw(st.integers(5, 33))
    centers = draw(st.lists(st.tuples(*[COORD] * dim), min_size=1, max_size=3))
    decay = draw(st.floats(0.25, 1.5))
    f = sample_field(PowerLawTerm(1.0, decay), centers, dim=dim, extent=2.0, num=num,
                     check_centers=False)
    if draw(st.booleans()):
        f = CartesianField(f.dim, f.h, f.extent, f.values[::-1], mask=f.mask[::-1])
    # planes k h/2 from past -L (partners leave the box) to past +L; odd k are half-cell planes
    k = draw(st.integers(-num - 1, num + 1))
    return f, k * f.h / 2.0


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(case=fields_and_planes(), tol=st.sampled_from([0.0, None]))
def test_w_plus_matches_reflection_reference_bit_for_bit(case, tol):
    f, lam = case
    assert w_plus_sup(f, lam, tol=tol) == _w_plus_sup_by_reflection(f, lam, tol=tol)


@st.composite
def fields_and_grids(draw):
    f, _ = draw(fields_and_planes())
    m = f.shape[0]
    ks = draw(st.lists(st.integers(-m - 1, -1), min_size=1, max_size=8, unique=True))
    return f, np.sort(ks) * f.h / 2.0


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(case=fields_and_grids(), tol=st.sampled_from([0.0, None]))
def test_sweep_reverse_pass_matches_the_mirrored_field_bit_for_bit(case, tol):
    f, grid = case
    mirror = CartesianField(f.dim, f.h, f.extent, f.values[::-1], mask=f.mask[::-1])
    report = sweep_lambda0(f, lambda_grid=grid, tol=tol)
    for i, lam in enumerate(grid):
        assert report.sup_w_plus[i] == w_plus_sup(f, lam, tol=tol)
        assert report.reverse_sup_w_plus[i] == w_plus_sup(mirror, lam, tol=tol)


def test_w_plus_rejects_bad_tolerance():
    f = small_field()
    for bad in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(DomainError):
            w_plus_sup(f, -0.5, tol=bad)
        with pytest.raises(DomainError):
            sweep_lambda0(f, tol=bad)


# ---------------------------------------------------------------------------
# Sweep


def test_default_lambda_grid_properties():
    f = small_field(num=33)
    grid = default_lambda_grid(f)
    assert np.all(grid < 0.0)
    assert np.all(np.diff(grid) > 0.0)
    half = f.h / 2.0
    assert np.max(np.abs(grid / half - np.round(grid / half))) < 1e-9
    assert grid[-1] == pytest.approx(-f.h)
    assert grid[0] >= -f.extent


def _default_grid_by_arange(field):
    """The default plane grid as first written, from planes 0.1 apart: its reference."""
    half = field.h / 2.0
    raw = np.append(np.arange(-field.extent, 0.0, 0.1), -field.h)
    snapped = np.round(raw / half) * half
    return np.unique(snapped[snapped < 0.0])


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(num=st.integers(2, 300), log_extent=st.floats(-2.0, 5.0),
       nudge=st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9]))
def test_default_lambda_grid_is_bit_identical_to_np_unique(num, log_extent, nudge):
    # the grid deduplicates by sort and neighbour comparison; np.unique of the
    # same snapped planes is its reference, in value and dtype
    extent = 10.0 ** log_extent
    f = types.SimpleNamespace(h=2.0 * extent / (num - 1) * (1.0 + nudge), extent=extent)
    half = f.h / 2.0
    raw = np.append(np.arange(-f.extent, 0.0, max(0.1, half / 2.0)), -f.h)
    snapped = np.round(raw / half) * half
    ref = np.unique(snapped[snapped < 0.0])
    grid = default_lambda_grid(f)
    assert grid.dtype == ref.dtype and np.array_equal(grid, ref)


def test_default_lambda_grid_matches_arange_reference():
    extents = (0.01, 0.1, 0.35, 1.0, 2.0, 2.5, 7.3, 40.0, 1e3)
    pairs = [(num, extent) for num in (2, 3, 4, 5, 9, 11, 17, 21, 33, 65, 129, 257)
             for extent in extents]
    # h/2 at and next to 0.2, where the raw plane step leaves 0.1 for h/4
    pairs += [(num, 0.2 * (num - 1) * (1.0 + eps)) for num in (3, 6, 11, 101)
              for eps in (0.0, 1e-12, -1e-12, 1e-9, -1e-9)]
    for num, extent in pairs:
        f = types.SimpleNamespace(h=2.0 * extent / (num - 1), extent=extent)
        grid, ref = default_lambda_grid(f), _default_grid_by_arange(f)
        assert grid.dtype == ref.dtype and np.array_equal(grid, ref), (num, extent)


def test_default_lambda_grid_size_follows_num_not_extent():
    f = types.SimpleNamespace(h=2e20 / 8, extent=1e20)  # num = 9
    assert np.array_equal(default_lambda_grid(f), np.arange(-8.0, 0.0) * 1.25e19)


def test_sweep_centered_field_passes_every_plane():
    f = small_field(num=33)
    report = sweep_lambda0(f)
    assert np.all(report.sup_w_plus == 0.0)
    assert np.all(report.reverse_sup_w_plus == 0.0)
    assert report.lambda0_estimate == pytest.approx(report.lambdas[-1])
    assert report.reverse_lambda0_estimate == pytest.approx(report.lambdas[-1])
    assert report.monotonicity_min > 0.0
    assert report.dim_in_scope is True
    assert report.tol == pytest.approx(1e-12 * f.unmasked_max())


def test_sweep_recovers_shifted_balance_plane():
    delta = 0.5
    f = sample_field(DECAY, [(-delta, 0.0, 0.0)], num=33, check_centers=False)
    report = sweep_lambda0(f)
    assert report.lambda0_estimate == pytest.approx(-delta, abs=2.0 * f.h)
    # past the balance plane the sweep must fail
    past = report.lambdas > -delta + 1e-12
    assert np.all(report.sup_w_plus[past] > report.tol)
    # from the other side every sampled (negative) plane balances
    assert report.reverse_lambda0_estimate == pytest.approx(report.lambdas[-1])


def test_sweep_two_dimensional_smoke_flagged_out_of_scope():
    f = sample_field(DECAY, [(0.0, 0.0)], dim=2, num=33)
    report = sweep_lambda0(f)
    assert report.dim_in_scope is False
    assert np.all(report.sup_w_plus == 0.0)
    assert report.lambda0_estimate == pytest.approx(-f.h)


def test_planes_comparing_no_live_pair_are_skipped():
    # u = |x| rises away from its centre, so every plane that compares a node
    # pair fails; the first default plane, -L, pairs no rows and decides nothing
    f = sample_field(PowerLawTerm(1.0, -1.0), [ORIGIN], num=17)
    report = sweep_lambda0(f)
    assert report.lambdas[0] == -2.0 and report.sup_w_plus[0] == 0.0
    assert w_plus_sup(f, -2.0) == 0.0
    assert np.all(report.sup_w_plus[1:] > report.tol)
    assert np.all(report.reverse_sup_w_plus[1:] > report.tol)
    assert report.lambda0_estimate is None and report.reverse_lambda0_estimate is None
    # a plane far outside the box compares nothing either, and before a
    # compared plane it does not move the estimate
    g = small_field()
    assert sweep_lambda0(g, lambda_grid=[-1e300]).lambda0_estimate is None
    assert sweep_lambda0(g, lambda_grid=[-1e300, -2.0, -1.0]).lambda0_estimate == -1.0


def test_sweep_validation_errors():
    f = small_field()
    with pytest.raises(DomainError):
        sweep_lambda0(f, lambda_grid=[])
    with pytest.raises(DomainError):
        sweep_lambda0(f, lambda_grid=[-0.5, -0.75])  # not increasing
    with pytest.raises(DomainError):
        sweep_lambda0(f, lambda_grid=[-0.5, 0.25])  # positive plane
    with pytest.raises(DomainError):
        sweep_lambda0(f, lambda_grid=[-0.07])  # not commensurate


def test_sweep_empty_monotonicity_region_is_inf():
    # a 3-node axis has no pair of nodes with x1 < -h
    f = CartesianField(2, 2.0, 2.0, np.ones((3, 3)))
    report = sweep_lambda0(f)
    assert math.isinf(report.monotonicity_min)
    assert report.lambda0_estimate == pytest.approx(-1.0)
