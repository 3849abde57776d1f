"""Rank-revealing diagnostics: interlacing ratios, R-values, QLP."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mixfactor import (
    HouseholderQR,
    extract_r,
    gen_devils_stairs,
    gen_gap,
    gen_kahan,
    house_qr,
    house_qrcp,
    jacobi_svd,
    qlp,
    rr_conditions,
    rurv_ros,
    rvalue_ratios,
)
from mixfactor.diagnostics import FIRST_FACTORIZATIONS


def test_rr_conditions_diagonal_matrix():
    sigma = np.array([4.0, 2.0, 1.0])
    report = rr_conditions(sigma, np.diag(sigma), k=1)
    assert report.k == 1
    assert_allclose(report.max_ratio_r11, 1.0)
    assert_allclose(report.max_ratio_r22, 1.0)
    assert report.strong_norm == 0.0


def test_rr_conditions_interlacing_holds():
    # sigma_j(R11) <= sigma_j(A) and sigma_j(R22) >= sigma_{k+j}(A): both
    # ratio families stay at or above one for any QR-type factor
    a = np.random.default_rng(0).standard_normal((20, 14))
    sigma = np.linalg.svd(a, compute_uv=False)
    r = extract_r(house_qrcp(a))
    for k in (1, 5, 13):
        report = rr_conditions(sigma, r, k)
        assert np.all(report.ratios_r11 >= 1.0 - 1e-12)
        assert np.all(report.ratios_r22 >= 1.0 - 1e-12)


def test_rr_conditions_detects_hidden_rank():
    # unpivoted QR of the gap matrix in its natural column order can smear
    # the cliff; the ratios say how badly
    g = gen_gap(32, 16, gap=1e-8, rng=1)
    report_plain = rr_conditions(g.sigma, extract_r(house_qr(g.a)), k=16)
    report_mixed = rr_conditions(g.sigma, rurv_ros(g.a, rng=2).r, k=16)
    assert report_mixed.max_ratio_r11 < 1e3
    assert report_mixed.max_ratio_r22 < 1e3
    assert report_plain.max_ratio_r11 >= report_mixed.max_ratio_r11 * 0.1


@pytest.mark.parametrize("backend", ["qrcp", "rurv-ros"])
def test_rr_conditions_strong_norm_value(backend):
    g = gen_gap(64, 32, rng=4)
    r = extract_r(house_qrcp(g.a)) if backend == "qrcp" else rurv_ros(g.a, rng=5).r
    report = rr_conditions(g.sigma, r, k=32)
    expected = np.linalg.norm(np.linalg.solve(r[:32, :32], r[:32, 32:]), 2)
    assert_allclose(report.strong_norm, expected, rtol=1e-8)


def test_rr_conditions_singular_leading_block():
    r = np.array([[0.0, 1.0], [0.0, 1.0]])
    report = rr_conditions(np.array([2.0, 0.5]), r, k=1)
    assert report.strong_norm == np.inf


def test_rr_conditions_validates_arguments():
    r = np.triu(np.ones((4, 4)))
    with pytest.raises(ValueError):
        rr_conditions(np.ones(4), r, k=0)
    with pytest.raises(ValueError):
        rr_conditions(np.ones(4), r, k=4)
    with pytest.raises(ValueError):
        rr_conditions(np.ones(2), r, k=2)


def test_rvalue_ratios_golden_ratio_bounds():
    # for [[1, 1], [0, 1]] the enclosure is exactly [1/phi, phi]
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    sigma = np.array([phi, 1.0 / phi])
    report = rvalue_ratios(np.array([[1.0, 1.0], [0.0, 1.0]]), sigma)
    assert_allclose(report.lower_bound, 1.0 / phi, rtol=1e-12)
    assert_allclose(report.upper_bound, phi, rtol=1e-12)
    assert_allclose(report.ratios, [1.0 / phi, phi], rtol=1e-12)
    assert report.min >= report.lower_bound * (1 - 1e-12)
    assert report.max <= report.upper_bound * (1 + 1e-12)


def test_rvalue_ratios_identity():
    report = rvalue_ratios(np.eye(3), np.ones(3))
    assert_allclose(report.ratios, 1.0)
    assert_allclose([report.lower_bound, report.upper_bound], 1.0)
    assert report.median == 1.0


def test_rvalue_ratios_pivoted_factor_within_bounds():
    a = np.random.default_rng(3).standard_normal((30, 30))
    sigma = np.linalg.svd(a, compute_uv=False)
    r = extract_r(house_qrcp(a))
    report = rvalue_ratios(r, sigma)
    assert report.min >= report.lower_bound * (1 - 1e-10)
    assert report.max <= report.upper_bound * (1 + 1e-10)


def test_rvalue_ratios_power_iteration_bounds_past_order_512():
    # past order 512 the enclosure comes from power iteration, not Jacobi
    g = gen_gap(600, 300, 1e-10, rng=31)
    r = extract_r(house_qrcp(g.a))
    report = rvalue_ratios(r, g.sigma)
    sigma_y = np.linalg.svd((r / np.diagonal(r)[:, None]).T, compute_uv=False)
    assert_allclose(report.lower_bound, 1.0 / sigma_y[0], rtol=1e-8)
    assert_allclose(report.upper_bound, 1.0 / sigma_y[-1], rtol=1e-8)
    assert report.lower_bound <= report.min
    assert report.max <= report.upper_bound


def test_rvalue_ratios_rejects_zero_diagonal():
    with pytest.raises(ValueError):
        rvalue_ratios(np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones(2))


def test_rvalue_ratios_rejects_rectangular():
    with pytest.raises(ValueError):
        rvalue_ratios(np.ones((3, 2)), np.ones(2))


def test_qlp_diagonal_is_exact():
    report = qlp(np.diag([5.0, 3.0, 1.0]), first="qrcp")
    assert_allclose(report.l_values, [5.0, 3.0, 1.0], rtol=1e-14)
    assert report.first_factorization == "qrcp"


@pytest.mark.parametrize("first", ["qr", "qrcp", "rurv-haar", "rurv-ros"])
def test_qlp_tracks_staircase_spectrum(first):
    g = gen_devils_stairs(32, stair_len=8, jump=0.1, rng=4)
    report = qlp(g.a, first=first, rng=5)
    # L-values land within a small factor of the true staircase
    ratio = report.l_values / g.sigma
    assert np.all(ratio > 0.1) and np.all(ratio < 10.0)


def test_qlp_sharpens_gap_estimate():
    g = gen_gap(64, 32, gap=1e-10, rng=6)
    report = qlp(g.a, first="rurv-ros", rng=7)
    lv = report.l_values
    assert lv[31] / lv[32] > 1e6


def test_qlp_rejects_unknown_backend():
    with pytest.raises(ValueError):
        qlp(np.eye(3), first="lu")


def test_qlp_rectangular_input():
    a = np.random.default_rng(8).standard_normal((12, 7))
    report = qlp(a, first="qr")
    sigma = np.linalg.svd(a, compute_uv=False)
    assert report.l_values.shape == (7,)
    assert_allclose(report.l_values, sigma, rtol=0.5)


def test_kahan_rvalues_underestimate_badly_without_pivot_help():
    # the Kahan matrix's final R-value sits far above sigma_min, the exact
    # failure the randomized mixing is meant to expose
    a = gen_kahan(60)
    sigma = jacobi_svd(a, want_vectors=False).sigma
    report = rvalue_ratios(a, sigma)  # A is already upper triangular
    assert report.max > 1e2
    assert report.max <= report.upper_bound * (1 + 1e-10)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("m,n", [(300, 200), (200, 300)])
@pytest.mark.parametrize("first", list(FIRST_FACTORIZATIONS))
def test_qlp_l_values_are_the_diagonal_of_the_second_r(first, m, n, layout):
    # read from the second QR's packed factor, they hold extract_r's bits
    a = np.asarray(np.random.default_rng(m + n).standard_normal((m, n)), order=layout)
    report = qlp(a, first, 2, np.random.default_rng(5))
    r = extract_r(FIRST_FACTORIZATIONS[first](a, 2, np.random.default_rng(5)))
    r = r[: min(r.shape), :]
    want = np.sort(np.abs(np.diagonal(extract_r(house_qr(r.T)))))[::-1]
    assert np.array_equal(report.l_values, want)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("m,n", [(300, 200), (200, 300)])
@pytest.mark.parametrize("first", list(FIRST_FACTORIZATIONS))
def test_first_factorizations_hand_on_the_packed_factor(first, m, n, layout):
    # a full factorization's R is the upper triangle of its packed factor,
    # with extract_r's bits and strides, also on wide input
    a = np.asarray(np.random.default_rng(m + 2 * n).standard_normal((m, n)), order=layout)
    f = FIRST_FACTORIZATIONS[first](a, 2, np.random.default_rng(9))
    assert isinstance(f, HouseholderQR)
    assert f.steps == min(m, n)
    r, want = np.triu(f.packed), extract_r(f)
    assert np.array_equal(r, want)
    assert r.strides == want.strides
