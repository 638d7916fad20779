"""Property tests for the angular kernel: symmetry and homogeneity at N >= 4."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartree_singular import angular_kernel

DIMS = st.sampled_from([4, 5, 6])
MU_SHARE = st.floats(0.05, 0.95)  # mu = share * N covers mu < N-1 and N-1 <= mu < N
LOG_R = st.floats(-3.0, 3.0)
LOG_SCALE = st.floats(-3.0, 3.0)
# rho/r = 1 - gap: gaps below 0.5 take the near-diagonal path, from 0.5 on the
# separated path; the smallest gap keeps rounding of the scaled pair below 1e-12
NEAR_GAP = st.floats(1e-4, 0.5, exclude_max=True)
SEP_GAP = st.floats(0.5, 0.99)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@PROPERTY
@given(n=DIMS, share=MU_SHARE, log_r=LOG_R, gap=st.one_of(NEAR_GAP, SEP_GAP))
def test_kernel_symmetric(n, share, log_r, gap):
    r = 10.0 ** log_r
    rho = r * (1.0 - gap)
    mu = share * n
    assert angular_kernel(r, rho, n, mu) == pytest.approx(angular_kernel(rho, r, n, mu), rel=1e-14)


@PROPERTY
@given(n=DIMS, share=MU_SHARE, log_r=LOG_R, log_scale=LOG_SCALE,
       gap=st.one_of(NEAR_GAP, SEP_GAP))
def test_kernel_homogeneous_of_degree_minus_mu(n, share, log_r, log_scale, gap):
    r, lam = 10.0 ** log_r, 10.0 ** log_scale
    mu = share * n
    base = angular_kernel(r, r * (1.0 - gap), n, mu)
    scaled = angular_kernel(lam * r, lam * r * (1.0 - gap), n, mu)
    # rounding the scaled pair moves delta = r*gap by up to 2^-52 r / (r gap),
    # at most ~2e-12 relative for gap >= 1e-4, and K follows delta near the diagonal
    assert scaled == pytest.approx(base * lam ** -mu, rel=2e-11)
