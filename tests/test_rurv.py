"""Randomized URV/VLU factorizations and Haar sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mixfactor import (
    HaarOperator,
    RosOperator,
    form_q,
    haar_operator,
    haar_sample,
    jacobi_svd,
    mix_apply,
    ros_apply,
    ros_dense,
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


# Reconstructions past the 64-column panel, against the dense products.
LARGE_URV = [
    ("partial-wide", 200, 300, lambda a: rurv_ros_partial(a, 100, rng=32)),
    ("partial-tall", 300, 200, lambda a: rurv_ros_partial(a, 100, rng=33)),
    ("ros-wide", 200, 300, lambda a: rurv_ros(a, num_mixes=2, rng=34)),
    ("ros-tall", 300, 200, lambda a: rurv_ros(a, num_mixes=2, rng=35)),
    ("haar-wide", 200, 300, lambda a: rurv_haar(a, rng=36)),
    ("haar-tall", 300, 200, lambda a: rurv_haar(a, rng=37)),
]


@pytest.mark.parametrize("name,m,n,factor", LARGE_URV, ids=[c[0] for c in LARGE_URV])
def test_urv_reconstruct_matches_dense_product_past_one_panel(name, m, n, factor):
    a = random_matrix(m, n, seed=m + 2 * n)
    fac = factor(a)
    k = fac.u.steps
    r_before = fac.r.copy()
    r_k = np.zeros((m, n))
    r_k[:k] = fac.r[:k]
    v = fac.v if isinstance(fac.v, np.ndarray) else ros_dense(fac.v)
    dense = form_q(fac.u) @ r_k @ v
    assert_allclose(urv_reconstruct(fac), dense, rtol=0, atol=1e-13 * np.linalg.norm(a))
    assert_array_equal(fac.r, r_before)


@pytest.mark.parametrize("m,n", [(300, 200), (200, 300)])
def test_vlu_reconstruct_matches_dense_product_past_one_panel(m, n):
    a = random_matrix(m, n, seed=m + 3 * n)
    fac = rvlu_ros(a, rng=38)
    l_before = fac.l.copy()
    dense = ros_dense(fac.v).T @ fac.l @ form_q(fac.u, "thin").T
    out = vlu_reconstruct(fac)
    assert_allclose(out, dense, rtol=0, atol=1e-13 * np.linalg.norm(a))
    assert_allclose(out, a, rtol=0, atol=1e-13 * np.linalg.norm(a))
    assert_array_equal(fac.l, l_before)


def test_partial_error_equals_trailing_block():
    # ||A - A_k||_F = ||R22||_F since U and V are orthogonal: the identity the
    # benchmark's low-rank check relies on
    m, n, k = 300, 256, 8
    a = random_matrix(m, k, seed=39) @ random_matrix(k, n, seed=40) + 1e-3 * random_matrix(m, n, seed=41)
    fac = rurv_ros_partial(a, k, rng=42)
    err = np.linalg.norm(a - urv_reconstruct(fac))
    slack = max(m, n) * np.finfo(float).eps * np.linalg.norm(a)
    assert abs(err - np.linalg.norm(fac.r[k:, k:])) <= slack
    tail = np.linalg.norm(np.linalg.svd(a, compute_uv=False)[k:])
    assert err >= tail - slack


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
    for op in (rurv_ros(random_matrix(6, 6, seed=25), rng=26).v, haar_operator(6, 26)):
        x = np.arange(6.0)
        left = mix_apply(op, x, "left")
        right = mix_apply(op, x, "right")
        assert left.shape == (6,)
        assert right.shape == (6,)
        dense = mix_apply(op, np.eye(6), "left")
        assert_allclose(left, dense @ x, atol=1e-13)
        assert_allclose(right, x @ dense, atol=1e-13)


def test_mix_apply_dense_passthrough():
    # the implicit Haar handle of the same draw stands in for the dense V
    q = haar_sample(5, np.random.default_rng(27))
    a = random_matrix(5, 5, seed=28)
    for v in (q, haar_operator(5, np.random.default_rng(27))):
        assert_allclose(mix_apply(v, a, "left"), q @ a)
        assert_allclose(mix_apply(v, a, "right-transpose"), a @ q.T)


@pytest.mark.parametrize("n", [5, 150, 300])
def test_haar_operator_matches_dense_sample_of_the_same_seed(n):
    # 150 and 300 run past the 64-column panel and the 128-row recursion
    v = haar_operator(n, n + 2)
    assert isinstance(v, HaarOperator)
    assert set(v.flips) == {1.0, -1.0}  # both signs, so the flips are exercised
    q = haar_sample(n, n + 2)
    assert_array_equal(form_q(v.f, "full") * v.flips, q)
    dense = {"left": q, "left-transpose": q.T, "right": q, "right-transpose": q.T}
    rng = np.random.default_rng(n + 1)
    for mode, d in dense.items():
        shape = (n, 7) if mode.startswith("left") else (7, n)
        for x in (rng.standard_normal(n), rng.standard_normal(shape)):
            kept = x.copy()
            got = mix_apply(v, x, mode)
            want = d @ x if mode.startswith("left") else x @ d
            assert got.shape == x.shape
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(x)
            assert_array_equal(x, kept)


def test_mix_apply_rejects_unknown_mode_for_every_handle():
    a = random_matrix(4, 4, seed=29)
    for v in (np.eye(4), haar_operator(4, 30), rurv_ros(a, rng=31).v):
        with pytest.raises(ValueError, match="mode must be one of"):
            mix_apply(v, a, "sideways")


@pytest.mark.parametrize("mode", ["left", "left-transpose", "right", "right-transpose"])
def test_mix_apply_checks_operand_size_for_every_handle(mode):
    # one wording for every handle: the mixed axis and the operator dimension
    axis = 1 if mode.startswith("right") else 0
    block = random_matrix(*((3, 4) if axis else (4, 3)), seed=32)
    ros = rurv_ros(random_matrix(5, 5, seed=33), rng=34).v
    for v in (haar_sample(5, 35), haar_operator(5, 35), ros):
        for x in (block, np.ones(4)):
            with pytest.raises(ValueError, match=f"operand size 4 along axis {axis} does not match operator dimension 5"):
                mix_apply(v, x, mode)


def test_factorizations_deterministic_given_seed():
    a = random_matrix(9, 9, seed=29)
    assert_array_equal(rurv_ros(a, rng=30).r, rurv_ros(a, rng=30).r)
    assert_array_equal(rurv_haar(a, rng=31).r, rurv_haar(a, rng=31).r)
