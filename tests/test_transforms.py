"""DCT kernels and the random orthogonal system operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from mixfactor import (
    column_norm_stats,
    dct2,
    dct3,
    ros_apply,
    ros_dense,
    ros_sample,
)

CRITERION_LENGTHS = list(range(1, 33)) + [100, 250, 257, 1024]
# the benchmark's smooth, prime and wide lengths
LARGE_LENGTHS = [1000, 1009, 1500]


def dct2_oracle(x):
    """Direct O(n^2) cosine sum, the defining formula."""
    n = x.size
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    table = np.cos(np.pi * k * (2 * j + 1) / (2.0 * n))
    weights = np.full(n, np.sqrt(2.0 / n))
    weights[0] = np.sqrt(1.0 / n)
    return weights * (table @ x)


# ---------------------------------------------------------------------------
# DCT


@pytest.mark.parametrize("n", CRITERION_LENGTHS + LARGE_LENGTHS)
def test_dct2_matches_cosine_sum(n):
    x = np.random.default_rng(n + 1000).standard_normal(n)
    assert_allclose(dct2(x), dct2_oracle(x), atol=1e-12 * np.linalg.norm(x))


@pytest.mark.parametrize("n", CRITERION_LENGTHS + LARGE_LENGTHS)
def test_dct3_inverts_dct2(n):
    x = np.random.default_rng(n + 2000).standard_normal(n)
    assert_allclose(dct3(dct2(x)), x, atol=1e-13 * np.linalg.norm(x))


def test_dct2_first_basis_vector():
    # DCT-II of e_1 at n = 4: first entry 1/2, the rest cos(k pi / 8) / sqrt(2)
    out = dct2(np.array([1.0, 0.0, 0.0, 0.0]))
    expected = [0.5,
                np.cos(np.pi / 8) / np.sqrt(2.0),
                np.cos(2 * np.pi / 8) / np.sqrt(2.0),
                np.cos(3 * np.pi / 8) / np.sqrt(2.0)]
    assert_allclose(out, expected, atol=1e-15)


def test_dct_is_orthonormal():
    n = 20
    basis = dct2(np.eye(n), axis=0)
    assert_allclose(basis.T @ basis, np.eye(n), atol=1e-14)
    # DCT-III is its transpose
    assert_allclose(dct3(np.eye(n), axis=0), basis.T, atol=1e-14)


def test_dct_along_chosen_axis():
    x = np.random.default_rng(3).standard_normal((4, 6))
    out = dct2(x, axis=0)
    for j in range(6):
        assert_allclose(out[:, j], dct2(x[:, j]), atol=1e-13)
    # a 2-D batch along axis 1, as ros_apply mixes columns
    out = dct2(x, axis=1)
    for i in range(4):
        assert_allclose(out[i], dct2_oracle(x[i]), atol=1e-13)
    assert_allclose(dct3(out, axis=1), x, atol=1e-13)


@settings(deadline=None, max_examples=30)
@given(x=arrays(np.float64, st.integers(min_value=1, max_value=64),
                elements=st.floats(min_value=-1e6, max_value=1e6)))
def test_dct_roundtrip_property(x):
    assert_allclose(dct3(dct2(x)), x, atol=1e-12 * max(np.linalg.norm(x), 1.0))


# ---------------------------------------------------------------------------
# ROS operator


def test_ros_sample_shapes_and_signs():
    op = ros_sample(17, 3, np.random.default_rng(4))
    assert op.n == 17
    assert op.signs.shape == (3, 17)
    assert np.all(np.abs(op.signs) == 1)
    assert op.presort is None


def test_ros_dense_is_orthogonal():
    op = ros_sample(12, 2, np.random.default_rng(5))
    v = ros_dense(op)
    assert_allclose(v.T @ v, np.eye(12), atol=1e-14)


def test_ros_two_point_example():
    # n = 2, one mix with signs (+1, -1): V = F diag(1, -1), all entries
    # +-1/sqrt(2), worked out by hand from the 2x2 cosine table
    op = ros_sample(2, 1, np.random.default_rng(0))
    op.signs[0] = [1.0, -1.0]
    r = 1.0 / np.sqrt(2.0)
    assert_allclose(ros_dense(op), [[r, -r], [r, r]], atol=1e-15)
    assert_allclose(ros_apply(op, np.eye(2), "right-transpose"),
                    [[r, r], [-r, r]], atol=1e-15)


@pytest.mark.parametrize("mode", ["right-transpose", "right", "left", "left-transpose"])
@pytest.mark.parametrize("num_mixes", [1, 2, 3])
def test_ros_apply_matches_dense(mode, num_mixes):
    rng = np.random.default_rng(6)
    op = ros_sample(7, num_mixes, rng)
    op.presort = rng.permutation(7)
    v = ros_dense(op)
    a = rng.standard_normal((7, 7))
    dense = {"right-transpose": a @ v.T, "right": a @ v,
             "left": v @ a, "left-transpose": v.T @ a}[mode]
    assert_allclose(ros_apply(op, a, mode), dense, atol=1e-13)


def test_ros_apply_inverts():
    op = ros_sample(9, 2, np.random.default_rng(7))
    a = np.random.default_rng(8).standard_normal((5, 9))
    assert_allclose(ros_apply(op, ros_apply(op, a, "right-transpose"), "right"),
                    a, atol=1e-13)


def test_ros_apply_rejects_unknown_mode():
    op = ros_sample(4, 1, np.random.default_rng(9))
    with pytest.raises(ValueError):
        ros_apply(op, np.eye(4), "sideways")


def test_ros_preserves_frobenius_norm():
    op = ros_sample(16, 1, np.random.default_rng(10))
    a = np.random.default_rng(11).standard_normal((6, 16))
    mixed = ros_apply(op, a, "right-transpose")
    assert_allclose(np.linalg.norm(mixed), np.linalg.norm(a), rtol=1e-14)


# ---------------------------------------------------------------------------
# column statistics


def test_column_norm_stats_two_columns():
    stats = column_norm_stats(np.diag([1.0, 3.0]))
    assert_allclose(stats.mean, 2.0)
    assert_allclose(stats.stdev, np.sqrt(2.0))
    assert_allclose(stats.min, 1.0)
    assert_allclose(stats.max, 3.0)


def test_column_norm_stats_identity():
    stats = column_norm_stats(np.eye(3))
    assert stats.mean == 1.0
    assert stats.stdev == 0.0


def test_column_norm_stats_single_column():
    stats = column_norm_stats(np.array([[3.0], [4.0]]))
    assert stats.stdev == 0.0
    assert stats.mean == 5.0
