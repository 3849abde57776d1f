"""Householder QR/QRCP, triangular solves, and the one-sided Jacobi SVD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mixfactor import (
    ConvergenceError,
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
from mixfactor import gen_gap, gen_kahan, linalg
from mixfactor.linalg import HouseholderQR

EPS = np.finfo(np.float64).eps


def random_matrix(m, n, seed):
    return np.random.default_rng(seed).standard_normal((m, n))


# ---------------------------------------------------------------------------
# QR


# the later shapes end their last panel past m, a wide last panel holding
# fewer reflectors than columns, some after a recursively factored panel
@pytest.mark.parametrize("m,n", [(1, 1), (4, 4), (7, 3), (3, 7), (20, 20), (33, 17),
                                 (70, 200), (3, 100), (1, 5), (200, 3), (130, 300), (300, 130)])
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


# k on both sides of every leaf (16 columns), node (32) and panel (64)
# boundary of the first three panels, and inside the second panel
@pytest.mark.parametrize("k", [65, 100, 127, 1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64,
                               79, 80, 81, 95, 96, 97, 128, 129, 191, 192, 193])
def test_partial_qr_matches_full_prefix_past_one_panel(k):
    for m, n, seed in ((300, 200, k), (150, 300, 1000 + k)):
        if k > min(m, n):
            continue
        a = random_matrix(m, n, seed=seed)
        full = house_qr(a)
        part = house_qr(a, steps=k)
        assert_array_equal(part.packed[:, :k], full.packed[:, :k])
        assert_array_equal(part.taus, full.taus[:k])
        assert_array_equal(extract_r(part)[:k], extract_r(full)[:k])


@pytest.mark.parametrize("m,n,k", [(40, 60, 10), (60, 40, 40), (50, 90, 50), (90, 50, 30),
                                   (300, 200, 100), (200, 300, 100)])
def test_extract_r_matches_mask(m, n, k):
    # partial, full wide, full tall, and steps ending inside the second panel
    f = house_qr(random_matrix(m, n, seed=m + n + k), steps=k)
    i = np.arange(m)[:, None]
    j = np.arange(n)[None, :]
    expected = f.packed.copy()
    expected[(i > j) & (j < k)] = 0.0
    r = extract_r(f)
    assert_array_equal(r, expected)
    assert not np.shares_memory(r, f.packed)


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


@pytest.mark.parametrize("m,n,steps", [(300, 200, None), (200, 300, None), (300, 200, 100)])
def test_kept_and_formed_panel_factors_agree_bit_for_bit(m, n, steps):
    # house_qr keeps the T it formed; a factor built from packed and taus
    # alone forms each T on its first apply, by the same recursion tree
    f = house_qr(random_matrix(m, n, seed=m + n), steps=steps)
    bare = HouseholderQR(f.packed.copy(), f.taus.copy())
    b = random_matrix(m, 3, seed=4)
    assert_array_equal(apply_qt(f, b), apply_qt(bare, b))
    assert_array_equal(apply_q(f, b), apply_q(bare, b))
    for shape in ("full", "thin"):
        assert_array_equal(form_q(f, shape), form_q(bare, shape))


# k = 64 fills one panel, 65 and 130 start a second and a third, and the
# shapes have more than _RECURSE_ROWS = 128 rows, so the panels are recursive
@pytest.mark.parametrize("m,n", [(300, 200), (200, 300)])
@pytest.mark.parametrize("k", [1, 63, 64, 65, 130, None])
def test_apply_q_of_short_operand_is_q_of_zero_padded_operand(m, n, k):
    f = house_qr(random_matrix(m, n, seed=m + n), steps=k)
    rng = np.random.default_rng(f.steps)
    for rows in sorted({f.steps, f.steps + 7, m} & set(range(m + 1))):
        for b in (rng.standard_normal(rows), rng.standard_normal((rows, 5))):
            padded = np.zeros((m,) + b.shape[1:])
            padded[:rows] = b
            out = apply_q(f, b)
            assert out.shape == padded.shape
            assert np.max(np.abs(out - apply_q(f, padded))) <= 1e-14 * np.linalg.norm(b)


def test_short_operand_is_rejected_where_it_has_no_meaning():
    f = house_qr(random_matrix(300, 200, seed=14), steps=65)
    for rows in (64, 301):
        with pytest.raises(ValueError, match=f"operand has {rows} rows"):
            apply_q(f, np.ones((rows, 2)))
    for rows in (65, 299):
        with pytest.raises(ValueError, match=f"operand has {rows} rows"):
            apply_qt(f, np.ones((rows, 2)))


def test_pivoted_factor_forms_each_panel_factor_once(monkeypatch):
    f = house_qrcp(random_matrix(200, 150, seed=11))
    calls = []
    original = linalg._node_t
    monkeypatch.setattr(linalg, "_node_t", lambda *args, **kw: calls.append(1) or original(*args, **kw))
    b = random_matrix(200, 2, seed=12)
    first = apply_qt(f, b)
    formed = len(calls)
    assert formed > 0
    assert_array_equal(apply_qt(f, b), first)
    assert_allclose(apply_q(f, first), b, atol=1e-12)
    assert len(calls) == formed


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


def reference_qrcp_perm(a):
    """Pivots of a QRCP that recomputes every trailing column norm exactly."""
    r = a.copy()
    m, n = r.shape
    perm = np.arange(n)
    for j in range(min(m, n)):
        piv = j + int(np.argmax(np.linalg.norm(r[j:, j:], axis=0)))
        r[:, [j, piv]] = r[:, [piv, j]]
        perm[[j, piv]] = perm[[piv, j]]
        v = r[j:, j].copy()
        v[0] += np.copysign(np.linalg.norm(v), v[0])
        vv = v @ v
        if vv > 0.0:
            r[j:, j:] -= np.outer(v, (2.0 / vv) * (v @ r[j:, j:]))
    return perm


def check_qrcp(a, f, steps):
    """A[:, perm] = Q R, taus in [0, 2], |diag R| non-increasing over ``steps``."""
    assert_allclose(form_q(f) @ extract_r(f), a[:, f.perm],
                    atol=100 * max(a.shape) * EPS * np.linalg.norm(a))
    assert np.all((f.taus >= 0.0) & (f.taus <= 2.0))
    d = np.abs(np.diagonal(f.packed))[:steps]
    assert np.all(d[1:] <= d[:-1] * (1.0 + 1e-12))


@pytest.mark.parametrize("m,n", PANEL_SHAPES)
def test_qrcp_past_one_panel(m, n):
    a = random_matrix(m, n, seed=2 * m + n)
    f = house_qrcp(a)
    assert_array_equal(f.perm, reference_qrcp_perm(a))
    check_qrcp(a, f, min(m, n))


def test_qrcp_ties_take_lowest_index_across_panels():
    f = house_qrcp(np.eye(130))
    assert_array_equal(f.perm, np.arange(130))


def test_qrcp_stale_norms_end_a_panel_early():
    # The first 30 pivots are scaled unit columns and need no reflection, so
    # each step removes one integer entry of the top block from the other
    # columns' squared norms, exactly.  After step 30 those norms are 0 in
    # floating point while the columns still hold the 1e-10 bottom block:
    # they go stale inside the first panel, which ends there, and are
    # recomputed.  The bottom block's columns are scaled apart, so every
    # later pivot is determined.
    rng = np.random.default_rng(16)
    a = np.zeros((120, 110))
    a[:30, :30] = np.diag(2.0 ** np.arange(40, 10, -1))
    a[:30, 30:] = rng.integers(1, 4, (30, 80)) * rng.choice([-1.0, 1.0], (30, 80))
    a[30:, 30:] = 1e-10 * rng.standard_normal((90, 80)) * 0.9 ** rng.permutation(80)
    f = house_qrcp(a)
    assert_array_equal(f.perm, reference_qrcp_perm(a))
    check_qrcp(a, f, 110)


@pytest.mark.parametrize("seed", range(16, 22))
def test_qrcp_recomputes_norms_after_a_rank_drop(seed):
    # Past the gap at step 40 the trailing norms fall by ten digits.  A norm
    # recomputed only at the rounding level of its downdate keeps a noise
    # value there, and the pivots after the gap would follow that noise.
    a = gen_gap(100, 40, rng=seed).a
    f = house_qrcp(a)
    assert_array_equal(f.perm, reference_qrcp_perm(a))
    check_qrcp(a, f, 100)


@pytest.mark.parametrize("m", [*range(20, 201, 20), 32, 48, 250])
def test_qrcp_keeps_identity_on_kahan(m):
    # criterion 08 (m = 20 .. 200) and the benchmark (32, 48, 250) rely on
    # pivoting leaving the Kahan matrix alone
    assert_array_equal(house_qrcp(gen_kahan(m)).perm, np.arange(m))


@pytest.mark.parametrize("m", [20, 64, 65, 100, 250])
def test_qrcp_factor_of_kahan_is_unchanged_by_skipped_updates(m):
    # Every column of the triangular Kahan matrix needs no reflection, so F
    # stays zero and house_qrcp skips the updates F drives.  A kernel that
    # does those updates subtracts exact zeros: with the identity pivots its
    # factor is the input itself, with every tau 0.
    a = gen_kahan(m)
    f = house_qrcp(a)
    assert_array_equal(f.packed, a)
    assert_array_equal(f.taus, np.zeros(m))
    assert_array_equal(f.perm, np.arange(m))


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
    for m, n, seed in ((15, 15, 14), (300, 64, 16)):
        a = random_matrix(m, n, seed=seed)
        res = jacobi_svd(a)
        assert res.u.shape == (m, n) and res.v.shape == (n, n)
        assert_allclose((res.u * res.sigma) @ res.v.T, a, atol=1e-12)
        assert_allclose(res.u.T @ res.u, np.eye(n), atol=1e-13)
        assert_allclose(res.v.T @ res.v, np.eye(n), atol=1e-13)


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


# the schedule of an odd order is padded with a dummy index, so each round
# drops the pair that meets it
@pytest.mark.parametrize("n", [249, 250])
def test_jacobi_matches_reference_svd_on_triangles(n):
    a = extract_r(house_qr(random_matrix(n, n, seed=n)))
    res = jacobi_svd(a, want_vectors=False)
    assert_allclose(res.sigma, np.linalg.svd(a, compute_uv=False), rtol=1e-12)
    assert 1 < res.sweeps <= linalg._MAX_SWEEPS


def test_jacobi_high_relative_accuracy_on_rotated_graded_columns():
    # A = Q D G, with Q orthogonal, D spanning 12 decades and G rotating
    # each pair of neighbouring columns: the singular values are exactly D,
    # and Jacobi must undo every rotation of G to find the small ones
    n = 200
    rng = np.random.default_rng(17)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    scales = np.logspace(0, -12, n)
    theta = rng.uniform(0.0, np.pi, n // 2)
    i = np.arange(0, n, 2)
    g = np.zeros((n, n))
    g[i, i] = g[i + 1, i + 1] = np.cos(theta)
    g[i + 1, i] = np.sin(theta)
    g[i, i + 1] = -np.sin(theta)
    res = jacobi_svd((q * scales) @ g, want_vectors=False)
    assert res.sweeps > 1
    assert_allclose(res.sigma, scales, rtol=1e-12)


def test_jacobi_leaves_orthogonal_pairs_untouched():
    # Columns 20..39 are scaled unit vectors on rows no other column uses,
    # so every round pairs some of them (never rotated) beside active pairs
    # of the Gaussian columns 0..19; their singular values and right
    # singular vectors come out exactly.
    a = np.zeros((60, 40))
    a[:30, :20] = random_matrix(30, 20, seed=18)
    scales = 2.0 ** -np.arange(20)
    a[30 + np.arange(20), 20 + np.arange(20)] = scales
    res = jacobi_svd(a)
    assert res.sweeps > 1
    for k, scale in enumerate(scales):
        (at,) = np.flatnonzero(res.sigma == scale)
        assert_array_equal(res.v[:, at], np.eye(40)[20 + k])
    assert_allclose(res.sigma, np.linalg.svd(a, compute_uv=False), rtol=1e-13)
    assert_allclose((res.u * res.sigma) @ res.v.T, a, atol=1e-13)


def test_jacobi_sweep_cap_raises_with_residual(monkeypatch):
    n = 40
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError) as info:
        jacobi_svd(random_matrix(n, n, seed=19))
    assert info.value.residual > n * EPS
