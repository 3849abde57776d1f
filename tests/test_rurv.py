"""Randomized URV/VLU factorizations and Haar sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mixfactor import (
    RosOperator,
    haar_sample,
    jacobi_svd,
    mix_apply,
    ros_apply,
    rurv_haar,
    rurv_ros,
    rurv_ros_partial,
    rvlu_ros,
    urv_reconstruct,
    vlu_reconstruct,
)

SHAPES = [(1, 1), (6, 6), (9, 4), (4, 9), (30, 30), (25, 40), (40, 25)]


def random_matrix(m, n, seed):
    return np.random.default_rng(seed).standard_normal((m, n))


# ---------------------------------------------------------------------------
# Haar sampling


def test_haar_sample_is_orthogonal():
    q = haar_sample(30, np.random.default_rng(0))
    assert_allclose(q.T @ q, np.eye(30), atol=100 * 30 * np.finfo(float).eps)


def test_haar_sample_one_by_one():
    values = {float(haar_sample(1, np.random.default_rng(s))[0, 0]) for s in range(20)}
    assert values <= {1.0, -1.0}
    assert len(values) == 2


def test_haar_sample_entry_mean_is_centered():
    # with the R-diagonal sign fix the law is exactly Haar, so E[Q(1,1)] = 0;
    # without it the QR convention would bias the diagonal positive
    total = 0.0
    for s in range(10_000):
        total += haar_sample(2, np.random.default_rng(s))[0, 0]
    assert abs(total / 10_000) < 0.03


def test_haar_sample_deterministic_given_seed():
    assert_array_equal(haar_sample(8, np.random.default_rng(42)),
                       haar_sample(8, np.random.default_rng(42)))


# ---------------------------------------------------------------------------
# RURV


@pytest.mark.parametrize("m,n", SHAPES)
def test_rurv_haar_reconstructs(m, n):
    a = random_matrix(m, n, seed=m * 64 + n)
    fac = rurv_haar(a, rng=1)
    assert isinstance(fac.v, np.ndarray)
    assert_allclose(urv_reconstruct(fac), a, atol=1e-12 * max(np.linalg.norm(a), 1))


@pytest.mark.parametrize("m,n", SHAPES)
def test_rurv_ros_reconstructs(m, n):
    a = random_matrix(m, n, seed=m * 64 + n)
    fac = rurv_ros(a, num_mixes=2, rng=2)
    assert isinstance(fac.v, RosOperator)
    assert_allclose(urv_reconstruct(fac), a, atol=1e-12 * max(np.linalg.norm(a), 1))


def test_rurv_zero_matrix():
    fac = rurv_ros(np.zeros((4, 6)), rng=3)
    assert np.all(fac.r == 0.0)


def test_rurv_preserves_singular_values():
    a = random_matrix(20, 12, seed=4)
    sigma = np.linalg.svd(a, compute_uv=False)
    for fac in (rurv_haar(a, rng=5), rurv_ros(a, rng=6)):
        sigma_r = np.linalg.svd(fac.r, compute_uv=False)
        assert_allclose(sigma_r, sigma, atol=1e-13 * sigma[0])


def test_rurv_ros_leading_diagonal_is_max_column_norm():
    # presorting puts the largest mixed column first and unpivoted QR makes
    # |R(1,1)| exactly that column's norm
    a = random_matrix(10, 10, seed=7)
    fac = rurv_ros(a, rng=np.random.default_rng(8))
    mixed = ros_apply(fac.v, a, "right-transpose")
    assert_allclose(abs(fac.r[0, 0]), np.linalg.norm(mixed, axis=0).max(), rtol=1e-15)


def test_rurv_ros_presort_orders_columns():
    a = random_matrix(12, 12, seed=9) * np.logspace(0, -6, 12)
    fac = rurv_ros(a, rng=10)
    mixed = ros_apply(fac.v, a, "right-transpose")
    norms = np.linalg.norm(mixed, axis=0)
    assert np.all(norms[:-1] >= norms[1:] * (1 - 1e-14))


def test_partial_matches_full_prefix_bit_for_bit():
    a = random_matrix(14, 10, seed=13)
    full = rurv_ros(a, rng=14)
    part = rurv_ros_partial(a, 4, rng=14)
    assert part.u.steps == 4
    assert_array_equal(part.u.packed[:, :4], full.u.packed[:, :4])
    assert_array_equal(part.r[:4], full.r[:4])


def test_partial_matches_full_prefix_past_one_panel():
    # k = 100 ends inside the second 64-column panel
    a = random_matrix(200, 300, seed=19)
    full = rurv_ros(a, rng=20)
    part = rurv_ros_partial(a, 100, rng=20)
    assert_array_equal(part.u.packed[:, :100], full.u.packed[:, :100])
    assert_array_equal(part.u.taus, full.u.taus[:100])
    assert_array_equal(part.r[:100], full.r[:100])


def test_partial_reconstructs_low_rank_exactly():
    left = random_matrix(18, 3, seed=15)
    right = random_matrix(3, 12, seed=16)
    a = left @ right
    fac = rurv_ros_partial(a, 3, rng=17)
    assert_allclose(urv_reconstruct(fac), a, atol=1e-12 * np.linalg.norm(a))


def test_partial_rejects_bad_rank():
    a = random_matrix(5, 5, seed=18)
    with pytest.raises(ValueError):
        rurv_ros_partial(a, 0)
    with pytest.raises(ValueError):
        rurv_ros_partial(a, 6)


def test_rurv_gap_is_visible_in_diagonal():
    # a spectrum with a 1e-10 cliff at index 32 shows up as a comparable drop
    # between consecutive R diagonal entries
    from mixfactor import gen_gap

    g = gen_gap(64, 32, gap=1e-10, rng=np.random.default_rng(19))
    fac = rurv_ros(g.a, rng=20)
    d = np.abs(np.diagonal(fac.r))
    assert d[31] / d[32] > 1e6


# ---------------------------------------------------------------------------
# RVLU


@pytest.mark.parametrize("m,n", [(1, 1), (3, 8), (8, 3), (10, 10), (7, 20)])
def test_rvlu_reconstructs(m, n):
    a = random_matrix(m, n, seed=m * 64 + n + 1)
    fac = rvlu_ros(a, num_mixes=1, rng=21)
    assert_allclose(vlu_reconstruct(fac), a, atol=1e-12 * max(np.linalg.norm(a), 1))


def test_rvlu_factor_shapes():
    fac = rvlu_ros(random_matrix(5, 9, seed=22), rng=23)
    assert fac.l.shape == (5, 5)
    assert np.all(fac.l[np.triu_indices(5, k=1)] == 0.0)


def test_rvlu_row_vector_mixing_norm():
    # V mixes the single row; its image under L U must keep the 2-norm
    fac = rvlu_ros(np.array([[1.0, 1.0]]), rng=24)
    assert_allclose(abs(fac.l[0, 0]), np.sqrt(2.0), rtol=1e-15)


# ---------------------------------------------------------------------------
# mix_apply


def test_mix_apply_promotes_vectors():
    op = rurv_ros(random_matrix(6, 6, seed=25), rng=26).v
    x = np.arange(6.0)
    left = mix_apply(op, x, "left")
    right = mix_apply(op, x, "right")
    assert left.shape == (6,)
    assert right.shape == (6,)
    dense = mix_apply(op, np.eye(6), "left")
    assert_allclose(left, dense @ x, atol=1e-13)
    assert_allclose(right, x @ dense, atol=1e-13)


def test_mix_apply_dense_passthrough():
    q = haar_sample(5, np.random.default_rng(27))
    a = random_matrix(5, 5, seed=28)
    assert_allclose(mix_apply(q, a, "left"), q @ a)
    assert_allclose(mix_apply(q, a, "right-transpose"), a @ q.T)


def test_factorizations_deterministic_given_seed():
    a = random_matrix(9, 9, seed=29)
    assert_array_equal(rurv_ros(a, rng=30).r, rurv_ros(a, rng=30).r)
    assert_array_equal(rurv_haar(a, rng=31).r, rurv_haar(a, rng=31).r)
