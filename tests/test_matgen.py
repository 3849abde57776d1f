"""Test-matrix generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mixfactor import (
    column_norm_stats,
    gen_condition,
    gen_correlated,
    gen_devils_stairs,
    gen_gap,
    gen_heavytail,
    gen_kahan,
    gen_prescribed,
    house_qrcp,
    jacobi_svd,
)


def test_kahan_two_by_two():
    s = np.sqrt(1.0 - 0.01)
    assert_allclose(gen_kahan(2, c=0.1, tau=0.0),
                    [[1.0, -0.1], [0.0, s]], rtol=1e-15)


def test_kahan_structure():
    a = gen_kahan(6, c=0.3, tau=0.0)
    s = np.sqrt(1.0 - 0.09)
    # row i is scaled by s^i, off-diagonal entries are -c times that scale
    assert_allclose(np.diagonal(a), s ** np.arange(6), rtol=1e-15)
    assert_allclose(a[0, 1:], -0.3, rtol=1e-15)
    assert np.all(a[np.tril_indices(6, k=-1)] == 0.0)


def test_kahan_tau_damps_columns():
    plain = gen_kahan(4, c=0.1, tau=0.0)
    damped = gen_kahan(4, c=0.1, tau=1e-7)
    scale = (1.0 - 1e-7) ** np.arange(4)
    assert_allclose(damped, plain * scale, rtol=1e-15)


def test_kahan_defeats_column_pivoting():
    # the classical property: QRCP finds nothing to pivot, so the factor
    # hides the smallest singular value in the last diagonal entry, by a
    # factor that grows exponentially with the dimension
    a = gen_kahan(20)
    f = house_qrcp(a)
    assert_array_equal(f.perm, np.arange(20))

    def hiding_ratio(m):
        a = gen_kahan(m)
        return abs(a[-1, -1]) / jacobi_svd(a, want_vectors=False).sigma[-1]

    r20, r90 = hiding_ratio(20), hiding_ratio(90)
    assert r20 > 1.0
    assert r90 > 1e2 * r20


def test_kahan_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_kahan(3, c=1.0)
    with pytest.raises(ValueError):
        gen_kahan(3, tau=1.0)
    with pytest.raises(ValueError):
        gen_kahan(0)


def test_gap_spectrum():
    g = gen_gap(16, 8, gap=1e-6, rng=0)
    assert g.sigma.shape == (16,)
    assert_allclose(g.sigma[7] / g.sigma[8], 1e6, rtol=1e-12)
    # decay is geometric on both sides of the cliff
    assert_allclose(g.sigma[1:7] / g.sigma[:6], 0.99, rtol=1e-12)
    computed = jacobi_svd(g.a, want_vectors=False).sigma
    assert_allclose(computed, g.sigma, atol=1e-13 * g.sigma[0])


def test_gap_rejects_bad_split():
    with pytest.raises(ValueError):
        gen_gap(8, 0)
    with pytest.raises(ValueError):
        gen_gap(8, 8)


def test_devils_stairs_profile():
    g = gen_devils_stairs(32, stair_len=8, jump=0.1, rng=1)
    expected = 0.1 ** (np.arange(32) // 8)
    assert_allclose(g.sigma, expected, rtol=1e-15)


def test_condition_spectrum_endpoints():
    g = gen_condition(10, 6, kappa=1e4, rng=2)
    assert_allclose(g.sigma[0], 1.0)
    assert_allclose(g.sigma[-1], 1e-4, rtol=1e-12)
    computed = np.linalg.svd(g.a, compute_uv=False)
    assert_allclose(computed, g.sigma, atol=1e-14)


def test_condition_kappa_one_is_orthonormal():
    g = gen_condition(5, 5, kappa=1.0, rng=3)
    assert_allclose(g.sigma, 1.0)
    assert_allclose(g.a.T @ g.a, np.eye(5), atol=1e-13)


def test_correlated_contains_near_duplicate_columns():
    a = gen_correlated(50, 30, p=5, e=1e-6, rng=4)
    assert a.shape == (50, 30)
    # at least p column pairs sit within a few noise lengths of each other
    d = np.linalg.norm(a[:, :, None] - a[:, None, :], axis=0)
    d[np.diag_indices(30)] = np.inf
    close = np.count_nonzero(d.min(axis=0) < 1e-4)
    assert close >= 10  # each duplicated pair contributes two columns


def test_correlated_p_zero_is_well_conditioned():
    a = gen_correlated(40, 60, p=0, e=1e-4, rng=5)
    sigma = np.linalg.svd(a, compute_uv=False)
    assert sigma[0] / sigma[-1] < 1e3


def test_correlated_rejects_too_many_duplicates():
    with pytest.raises(ValueError):
        gen_correlated(10, 10, p=6, e=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (-1, 4)])
def test_correlated_and_heavytail_reject_empty_shapes(m, n):
    # such a matrix could not be written as a file its own reader accepts
    with pytest.raises(ValueError, match="dimensions must be positive"):
        gen_correlated(m, n, 0, 0.0)
    with pytest.raises(ValueError, match="dimensions must be positive"):
        gen_heavytail(m, n)


def test_heavytail_normalization_and_spread():
    a = gen_heavytail(250, 250, rng=6)
    stats = column_norm_stats(a)
    assert_allclose(stats.mean, 1.0, rtol=1e-12)
    assert stats.stdev > 0.1


def test_heavytail_default_shape():
    assert gen_heavytail(rng=7).shape == (250, 250)


def test_prescribed_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gen_prescribed(4, 4, [1.0, 2.0, 0.5, 0.1])
    with pytest.raises(ValueError):
        gen_prescribed(4, 4, [1.0, -0.5])
    with pytest.raises(ValueError):
        gen_prescribed(2, 2, [1.0, 0.5, 0.2])


@settings(deadline=None, max_examples=25)
@given(
    sigma=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_prescribed_spectrum_is_recovered(sigma, seed):
    sigma = np.sort(np.asarray(sigma))[::-1]
    a = gen_prescribed(8, 8, sigma, rng=seed)
    computed = np.linalg.svd(a, compute_uv=False)
    assert_allclose(computed[: sigma.size], sigma, rtol=1e-10, atol=1e-12 * sigma[0])
    assert_allclose(computed[sigma.size :], 0.0, atol=1e-12 * sigma[0])
