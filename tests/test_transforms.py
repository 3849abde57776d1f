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


def dct3_oracle(c):
    """The transposed cosine table applied to the weighted coefficients."""
    n = c.size
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    table = np.cos(np.pi * k * (2 * j + 1) / (2.0 * n))
    weights = np.full(n, np.sqrt(2.0 / n))
    weights[0] = np.sqrt(1.0 / n)
    return table.T @ (weights * c)


# ---------------------------------------------------------------------------
# DCT


@pytest.mark.parametrize("n", CRITERION_LENGTHS + LARGE_LENGTHS)
def test_dct2_matches_cosine_sum(n):
    x = np.random.default_rng(n + 1000).standard_normal(n)
    assert_allclose(dct2(x), dct2_oracle(x), atol=1e-12 * np.linalg.norm(x))


@pytest.mark.parametrize("n", CRITERION_LENGTHS + LARGE_LENGTHS)
def test_dct3_matches_transposed_cosine_table(n):
    x = np.random.default_rng(n + 3000).standard_normal(n)
    assert_allclose(dct3(x), dct3_oracle(x), atol=1e-12 * np.linalg.norm(x))


@pytest.mark.parametrize("shape", [(1000, 3), (1009, 3), (1500, 2)])
def test_dct_along_axis_0_of_large_blocks(shape):
    # the real-FFT kernels transform along the last axis of a moved view;
    # along axis 0 each column must come out as its own 1-D transform
    x = np.random.default_rng(shape[0]).standard_normal(shape)
    for dct in (dct2, dct3):
        out = dct(x, axis=0)
        assert out.shape == shape
        for j in range(shape[1]):
            assert_allclose(out[:, j], dct(x[:, j]), atol=1e-14 * np.linalg.norm(x[:, j]))


@pytest.mark.parametrize("n", [2, 4, 1024])
def test_dct_even_length_nyquist_coefficient(n):
    # coefficient n/2 is real-FFT bin n/2, its own conjugate partner; its
    # basis vector is sqrt(2/n) cos(pi (2j + 1) / 4) = +-1/sqrt(n) in the
    # sign pattern + - - + + - - + ...
    basis = np.where(np.isin(np.arange(n) % 4, (0, 3)), 1.0, -1.0) / np.sqrt(n)
    unit = np.zeros(n)
    unit[n // 2] = 1.0
    assert_allclose(dct3(unit), basis, atol=1e-15)
    assert_allclose(dct2(basis), unit, atol=1e-15)


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


@pytest.mark.parametrize("mode", ["right-transpose", "right", "left", "left-transpose"])
@pytest.mark.parametrize("presort", [False, True])
def test_ros_apply_leaves_input_unmodified(mode, presort):
    rng = np.random.default_rng(12)
    op = ros_sample(9, 2, rng)
    if presort:
        op.presort = rng.permutation(9)
    a = rng.standard_normal((4, 9) if mode.startswith("right") else (9, 4))
    before = a.copy()
    out = ros_apply(op, a, mode)
    assert np.array_equal(a, before)
    assert not np.shares_memory(out, a)


@pytest.mark.parametrize("mode", ["right-transpose", "right", "left", "left-transpose"])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_ros_apply_presort_equals_fancy_indexing(mode, layout):
    # the presort is a gather (np.take) on the way out and a gather by the
    # inverse permutation on the way in; both are plain copies, so they
    # must give the bits of the fancy-indexed gather and scatter
    rng = np.random.default_rng(13)
    n = 300
    op = ros_sample(n, 2, rng)
    perm = rng.permutation(n)
    right = mode.startswith("right")
    a = np.asarray(rng.standard_normal((70, n) if right else (n, 70)), order=layout)
    if mode in ("right-transpose", "left"):
        out = ros_apply(op, a, mode)
        expected = out[:, perm] if right else out[perm, :]
    else:
        unsorted = np.empty_like(a)
        if right:
            unsorted[:, perm] = a
        else:
            unsorted[perm, :] = a
        expected = ros_apply(op, unsorted, mode)
    op.presort = perm
    assert np.array_equal(ros_apply(op, a, mode), expected)


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
