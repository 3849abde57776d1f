"""Householder QR/QRCP, triangular solves, and the one-sided Jacobi SVD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mixfactor import (
    SingularMatrixError,
    apply_q,
    apply_qt,
    back_substitute,
    extract_r,
    form_q,
    forward_substitute,
    house_qr,
    house_qrcp,
    jacobi_svd,
)
from mixfactor import linalg

EPS = np.finfo(np.float64).eps


def random_matrix(m, n, seed):
    return np.random.default_rng(seed).standard_normal((m, n))


# ---------------------------------------------------------------------------
# QR


@pytest.mark.parametrize("m,n", [(1, 1), (4, 4), (7, 3), (3, 7), (20, 20), (33, 17)])
def test_house_qr_reconstructs(m, n):
    a = random_matrix(m, n, seed=m * 100 + n)
    f = house_qr(a)
    q = form_q(f)
    r = extract_r(f)
    assert_allclose(q @ r, a, atol=50 * max(m, n) * EPS * np.linalg.norm(a))
    assert_allclose(q.T @ q, np.eye(m), atol=50 * m * EPS)


def test_house_qr_r_is_triangular():
    f = house_qr(random_matrix(9, 5, seed=1))
    r = extract_r(f)
    below = np.tril(np.ones((9, 5), dtype=bool), k=-1)
    assert np.all(r[below] == 0.0)


def test_tau_range():
    # every reflector with something to eliminate has tau in (0, 2]; tau == 0
    # marks a column that needed no reflection
    f = house_qr(random_matrix(35, 30, seed=2))
    assert np.all((f.taus > 0.0) & (f.taus <= 2.0))
    f = house_qr(np.triu(random_matrix(6, 6, seed=3)))
    assert np.all(f.taus == 0.0)


def test_partial_qr_matches_full_prefix():
    a = random_matrix(12, 8, seed=4)
    full = house_qr(a)
    part = house_qr(a, steps=3)
    assert part.steps == 3
    # the first three columns of the packed factor agree bit for bit
    assert_array_equal(part.packed[:, :3], full.packed[:, :3])
    assert_array_equal(part.taus, full.taus[:3])


@pytest.mark.parametrize("k", [65, 100, 127])
def test_partial_qr_matches_full_prefix_past_one_panel(k):
    # k ends inside the second or at the edge of the third 64-column panel
    a = random_matrix(300, 200, seed=k)
    full = house_qr(a)
    part = house_qr(a, steps=k)
    assert_array_equal(part.packed[:, :k], full.packed[:, :k])
    assert_array_equal(part.taus, full.taus[:k])
    assert_array_equal(extract_r(part)[:k], extract_r(full)[:k])


def test_chunked_rank1_updates_are_bit_identical(monkeypatch):
    # house_qrcp updates its whole trailing block one reflector at a time; at
    # 500 x 300 the default chunk splits those updates into up to three row
    # chunks; one chunk per update is the plain whole-block formula
    a = random_matrix(500, 300, seed=9)
    chunked = house_qrcp(a)
    monkeypatch.setattr(linalg, "_UPDATE_CHUNK", a.size)
    whole = house_qrcp(a)
    assert_array_equal(chunked.packed, whole.packed)
    assert_array_equal(chunked.taus, whole.taus)
    assert_array_equal(chunked.perm, whole.perm)


PANEL_SHAPES = [(300, 200), (200, 300), (257, 257)]


@pytest.mark.parametrize("m,n", PANEL_SHAPES)
def test_house_qr_matches_lapack(m, n):
    # LAPACK's geqrf uses the same reflector convention, so the packed
    # factors agree entry for entry up to rounding
    a = random_matrix(m, n, seed=m + n)
    f = house_qr(a)
    h, tau = np.linalg.qr(a, mode="raw")
    assert np.linalg.norm(f.packed - h.T) <= 1e-13 * np.linalg.norm(h)
    assert_allclose(f.taus, tau, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("m,n", PANEL_SHAPES)
def test_apply_roundtrip_past_one_panel(m, n):
    f = house_qr(random_matrix(m, n, seed=m + n))
    for b in (random_matrix(m, 1, seed=1)[:, 0], random_matrix(m, 5, seed=2)):
        back = apply_q(f, apply_qt(f, b))
        assert back.shape == b.shape
        assert_allclose(back, b, atol=100 * m * EPS)


@pytest.mark.parametrize("m,n", PANEL_SHAPES)
def test_form_q_orthogonal_past_one_panel(m, n):
    f = house_qr(random_matrix(m, n, seed=m + n))
    k = min(m, n)
    for shape, cols in (("full", m), ("thin", k)):
        q = form_q(f, shape)
        assert q.shape == (m, cols)
        assert_allclose(q.T @ q, np.eye(cols), atol=100 * m * EPS)


@pytest.mark.parametrize("m,n", PANEL_SHAPES)
def test_apply_qt_of_partial_factorization(m, n):
    # Q_k.T A is R in the first k rows and the unreduced trailing block below
    a = random_matrix(m, n, seed=m + n)
    f = house_qr(a, steps=100)
    assert_allclose(apply_qt(f, a), extract_r(f), atol=100 * m * EPS * np.linalg.norm(a))


def test_apply_qt_then_q_roundtrips():
    a = random_matrix(10, 6, seed=5)
    f = house_qr(a)
    b = random_matrix(10, 3, seed=6)
    assert_allclose(apply_q(f, apply_qt(f, b)), b, atol=1e-13)


def test_qt_times_a_is_r():
    a = random_matrix(8, 8, seed=7)
    f = house_qr(a)
    assert_allclose(apply_qt(f, a), extract_r(f), atol=1e-13)


def test_form_q_thin():
    f = house_qr(random_matrix(11, 4, seed=8))
    q = form_q(f, shape="thin")
    assert q.shape == (11, 4)
    assert_allclose(q.T @ q, np.eye(4), atol=1e-13)


def test_house_qr_rejects_bad_input():
    with pytest.raises(ValueError):
        house_qr(np.ones(3))
    with pytest.raises(ValueError):
        house_qr(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        house_qr(np.ones((2, 3)), steps=5)


@settings(deadline=None, max_examples=40)
@given(
    m=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_qr_reconstruction_property(m, n, seed):
    a = random_matrix(m, n, seed)
    f = house_qr(a)
    assert_allclose(form_q(f) @ extract_r(f), a,
                    atol=100 * max(m, n) * EPS * max(np.linalg.norm(a), 1.0))


# ---------------------------------------------------------------------------
# QRCP


def test_qrcp_pivots_by_column_norm():
    # columns with clearly separated norms come out in decreasing order
    a = np.diag([1.0, 4.0, 2.0, 8.0])
    f = house_qrcp(a)
    assert_array_equal(f.perm, [3, 1, 2, 0])


def test_qrcp_reconstructs_permuted():
    a = random_matrix(10, 7, seed=9)
    f = house_qrcp(a)
    assert_allclose(form_q(f) @ extract_r(f), a[:, f.perm], atol=1e-12)


def test_qrcp_diagonal_is_non_increasing():
    a = random_matrix(25, 25, seed=10)
    d = np.abs(np.diagonal(extract_r(house_qrcp(a))))
    assert np.all(d[:-1] >= d[1:] - 1e-12)


def test_qrcp_ties_take_lowest_index():
    f = house_qrcp(np.eye(5))
    assert_array_equal(f.perm, np.arange(5))


# ---------------------------------------------------------------------------
# triangular solves


def test_back_substitute_known_solution():
    r = np.array([[2.0, 1.0], [0.0, 3.0]])
    assert_allclose(back_substitute(r, np.array([5.0, 6.0])), [1.5, 2.0])


def test_forward_substitute_known_solution():
    l = np.array([[2.0, 0.0], [1.0, 3.0]])
    assert_allclose(forward_substitute(l, np.array([4.0, 7.0])), [2.0, 5.0 / 3.0])


def test_substitution_matrix_rhs():
    r = np.triu(random_matrix(6, 6, seed=11)) + 4 * np.eye(6)
    b = random_matrix(6, 2, seed=12)
    assert_allclose(r @ back_substitute(r, b), b, atol=1e-12)
    assert_allclose(r.T @ forward_substitute(r.T, b), b, atol=1e-12)


def test_singular_triangle_reports_index():
    r = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 4.0], [0.0, 0.0, 5.0]])
    with pytest.raises(SingularMatrixError) as info:
        back_substitute(r, np.ones(3))
    assert info.value.index == 1


# ---------------------------------------------------------------------------
# Jacobi SVD


def test_jacobi_hilbert_3x3():
    # singular values of the 3x3 Hilbert matrix, computed independently in
    # extended precision
    a = np.array([[1 / (i + j + 1) for j in range(3)] for i in range(3)])
    expected = [1.4083189271236539, 0.12232706585390584, 0.0026873403557735292]
    result = jacobi_svd(a)
    assert_allclose(result.sigma, expected, rtol=1e-14)


def test_jacobi_matches_reference_svd():
    a = random_matrix(40, 25, seed=13)
    assert_allclose(jacobi_svd(a, want_vectors=False).sigma,
                    np.linalg.svd(a, compute_uv=False), rtol=1e-12)


def test_jacobi_factors_reconstruct():
    a = random_matrix(15, 15, seed=14)
    res = jacobi_svd(a)
    assert_allclose((res.u * res.sigma) @ res.v.T, a, atol=1e-12)
    assert_allclose(res.u.T @ res.u, np.eye(15), atol=1e-13)
    assert_allclose(res.v.T @ res.v, np.eye(15), atol=1e-13)


def test_jacobi_high_relative_accuracy_on_graded_columns():
    # column scaling spans 12 orders of magnitude; every singular value keeps
    # close to full relative precision
    rng = np.random.default_rng(15)
    q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    scales = np.logspace(0, -12, 30)
    a = q * scales
    sigma = jacobi_svd(a, want_vectors=False).sigma
    assert_allclose(sigma, np.sort(scales)[::-1], rtol=1e-12)


def test_jacobi_rank_deficient():
    a = np.outer(np.arange(1.0, 5.0), np.ones(3))
    sigma = jacobi_svd(a, want_vectors=False).sigma
    assert sigma[0] > 1.0
    assert_allclose(sigma[1:], 0.0, atol=1e-14)


def test_jacobi_rejects_wide_input():
    with pytest.raises(ValueError):
        jacobi_svd(np.ones((2, 5)))
