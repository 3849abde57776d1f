"""Least-squares solvers: overdetermined, basic, and minimum-norm routes."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mixfactor import (
    BASIC_METHODS,
    OVERDETERMINED_METHODS,
    RankDeficiencyError,
    apply_qt,
    back_substitute,
    extract_r,
    forward_substitute,
    gen_condition,
    gen_correlated,
    gen_kahan,
    haar_sample,
    house_qr,
    mix_apply,
    rurv_ros,
    rurv_ros_partial,
    solve_basic,
    solve_min_norm,
    solve_overdetermined,
)
from mixfactor import cli, lstsq
from mixfactor.lstsq import SOLVERS, _basis, _cond2_estimate, _factor, _triangle_operators
from mixfactor.rurv import _mix_and_sort


def random_system(m, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)), rng.standard_normal(m)


# ---------------------------------------------------------------------------
# overdetermined


@pytest.mark.parametrize("method", OVERDETERMINED_METHODS)
def test_overdetermined_matches_reference(method):
    a, b = random_system(50, 20, seed=1)
    sol = solve_overdetermined(a, b, method=method, rng=2)
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    assert_allclose(sol.x, expected, atol=1e-12)
    assert sol.method == method
    assert_allclose(sol.residual_norm, np.linalg.norm(a @ sol.x - b), rtol=1e-12)
    assert_allclose(sol.solution_norm, np.linalg.norm(sol.x), rtol=1e-12)


def test_overdetermined_exact_system_has_zero_residual():
    a, _ = random_system(30, 10, seed=3)
    x_true = np.arange(1.0, 11.0)
    sol = solve_overdetermined(a, a @ x_true)
    assert sol.residual_norm < 1e-12 * np.linalg.norm(a @ x_true)
    assert_allclose(sol.x, x_true, atol=1e-12)


def test_overdetermined_rejects_wide():
    with pytest.raises(ValueError):
        solve_overdetermined(np.ones((2, 5)), np.ones(2))


@pytest.mark.parametrize("method", OVERDETERMINED_METHODS)
def test_overdetermined_rank_deficient_raises_with_index(method):
    a = np.ones((6, 3))
    with pytest.raises(RankDeficiencyError) as info:
        solve_overdetermined(a, np.ones(6), method=method, rng=3)
    assert info.value.index == 1


@pytest.mark.parametrize("num_mixes", [1, 2])
def test_ros_overdet_solve_is_the_solve_of_rurv_ros(num_mixes):
    # 300 x 200 runs past the 64-column panel and the 128-row recursion; the
    # solver's own mix, sort and QR give the bits of rurv_ros's factor
    a, b = random_system(300, 200, seed=52)
    sol = solve_overdetermined(a, b, method="rurv-ros-overdet", rng=53, num_mixes=num_mixes)
    fac = rurv_ros(a, num_mixes, np.random.default_rng(53))
    y = back_substitute(fac.r[:200, :200], apply_qt(fac.u, b)[:200])
    assert np.array_equal(sol.x, mix_apply(fac.v, y, "left-transpose"))


def test_overdetermined_column_rhs():
    a, b = random_system(12, 5, seed=4)
    sol = solve_overdetermined(a, b[:, None])
    assert sol.x.shape == (5,)


@pytest.mark.parametrize("method", list(SOLVERS))
def test_solvers_reject_bad_right_hand_sides(method):
    shape = (12, 5) if method in OVERDETERMINED_METHODS else (5, 12)
    a, b = random_system(*shape, seed=54)
    m = shape[0]
    for bad, message in [
        (np.where(np.arange(m) == 2, np.nan, b), "right-hand side entries must be finite"),
        (np.where(np.arange(m) == 0, -np.inf, b), "right-hand side entries must be finite"),
        (np.ones((m, 2)), rf"right-hand side must be a vector or a single column, got shape \({m}, 2\)"),
        (np.ones((m, 1, 1)), "right-hand side must be a vector or a single column"),
        (np.ones(m + 1), f"right-hand side has {m + 1} entries, expected {m}"),
    ]:
        with pytest.raises(ValueError, match=message):
            SOLVERS[method](a, bad, 55, 1)


# ---------------------------------------------------------------------------
# basic solutions


@pytest.mark.parametrize("method", BASIC_METHODS)
def test_basic_solves_consistent_system(method):
    a, b = random_system(8, 20, seed=5)
    sol = solve_basic(a, b, method=method, rng=6)
    assert sol.method == method
    assert sol.residual_norm < 1e-11 * np.linalg.norm(b)


def test_basic_trailing_coordinates_are_exact_zeros():
    # the defining property of a basic solution: before unmixing, only the
    # leading m coordinates are nonzero
    a, b = random_system(6, 15, seed=7)
    for method in BASIC_METHODS:
        solve = _basis(a, method, np.random.default_rng(8), 1)
        y, x = solve(b)
        assert y.shape == (15,)
        assert np.all(y[6:] == 0.0)
        assert np.linalg.norm(a @ x - b) < 1e-11 * np.linalg.norm(b)


def test_plain_qr_basic_explodes_on_adversarial_column_order():
    # leading columns nearly dependent: taking them as the basis produces an
    # enormous solution, while mixing first keeps it modest
    a = np.array([[1.0, 0.0, 0.0, 0.0],
                  [0.0, 1.0, 1.0, 1.0],
                  [0.0, 0.0, 1e-10, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    naive = solve_basic(a, b, method="qr-basic")
    mixed = solve_basic(a, b, method="rurv-ros-basic", rng=9)
    assert naive.solution_norm > 1e9
    assert mixed.solution_norm < 1e2
    assert mixed.residual_norm < 1e-10


def test_basic_rejects_tall():
    with pytest.raises(ValueError):
        solve_basic(np.ones((5, 2)), np.ones(5))


def test_basic_unknown_method():
    with pytest.raises(ValueError):
        solve_basic(np.ones((2, 5)), np.ones(2), method="cholesky")


@pytest.mark.parametrize("method", OVERDETERMINED_METHODS + ("rvlu-minnorm",))
def test_basic_rejects_non_basic_methods(method):
    a, b = random_system(4, 9, seed=49)
    with pytest.raises(ValueError, match="method must be one of"):
        solve_basic(a, b, method=method)


@pytest.mark.parametrize("method", BASIC_METHODS)
def test_overdetermined_rejects_basic_methods(method):
    a, b = random_system(9, 4, seed=50)
    with pytest.raises(ValueError, match="method must be one of"):
        solve_overdetermined(a, b, method=method)


# ---------------------------------------------------------------------------
# minimum norm


def test_min_norm_matches_pseudoinverse():
    a, b = random_system(10, 25, seed=10)
    sol = solve_min_norm(a, b, rng=11)
    assert sol.method == "rvlu-minnorm"
    assert_allclose(sol.x, np.linalg.pinv(a) @ b, atol=1e-11)


def test_min_norm_is_smallest_among_solutions():
    a, b = random_system(7, 18, seed=12)
    mn = solve_min_norm(a, b, rng=13)
    for method in BASIC_METHODS:
        basic = solve_basic(a, b, method=method, rng=14)
        assert mn.solution_norm <= basic.solution_norm * (1 + 1e-12)


def test_min_norm_single_row():
    sol = solve_min_norm(np.array([[1.0, 1.0]]), np.array([2.0]), rng=15)
    assert_allclose(sol.x, [1.0, 1.0], rtol=1e-14)


def test_min_norm_diagonal_system():
    a = np.hstack([np.diag([2.0, 4.0]), np.zeros((2, 3))])
    sol = solve_min_norm(a, np.array([2.0, 4.0]), rng=16)
    assert_allclose(sol.x, [1.0, 1.0, 0.0, 0.0, 0.0], atol=1e-13)


def test_min_norm_rank_deficient_raises():
    a = np.zeros((3, 6))
    a[0] = 1.0
    with pytest.raises(RankDeficiencyError):
        solve_min_norm(a, np.ones(3), rng=17)


# ---------------------------------------------------------------------------
# conditioning behavior across routes


def test_moderately_conditioned_overdetermined():
    g = gen_condition(80, 30, kappa=1e6, rng=18)
    x_true = np.random.default_rng(19).standard_normal(30)
    b = g.a @ x_true
    for method in OVERDETERMINED_METHODS:
        sol = solve_overdetermined(g.a, b, method=method, rng=20)
        # normal-equation residual is the right stability measure here
        lhs = np.linalg.norm(g.a.T @ (g.a @ sol.x - b))
        assert lhs < 1e-12 * (np.linalg.norm(sol.x) + np.linalg.norm(b))


def test_correlated_wide_system_all_methods_small_residual():
    a = gen_correlated(40, 60, p=0, e=1e-4, rng=21)
    b = np.random.default_rng(22).standard_normal(40)
    for method in BASIC_METHODS:
        sol = solve_basic(a, b, method=method, rng=23)
        assert sol.residual_norm < 1e-10
    assert solve_min_norm(a, b, rng=24).residual_norm < 1e-10


# ---------------------------------------------------------------------------
# checked-and-redrawn mixing for the basic solve


def mixed_leading_triangle(m, seed):
    """R11 of a mixed, sorted Gaussian m x 1.5m block: what the redraw rule judges."""
    rng = np.random.default_rng(seed)
    _, mixed, order = _mix_and_sort(rng.standard_normal((m, m + m // 2)), 1, rng)
    return extract_r(house_qr(mixed[:, order[:m]]))[:m, :m]


@pytest.mark.parametrize("m, seed", [(200, 30), (200, 31), (200, 32), (1000, 33), (1000, 34)])
def test_cond_estimate_matches_exact_two_norm(m, seed):
    # accept/redraw decisions near cond/m = 10 need the estimate within 10%;
    # both norms are approached from below, so it never overshoots
    r = mixed_leading_triangle(m, seed)
    exact = np.linalg.cond(r, 2)
    assert 0.9 * exact <= _cond2_estimate(r) <= (1.0 + 1e-8) * exact


def test_cond_estimate_on_graded_triangle():
    r = extract_r(house_qr(gen_condition(150, 150, kappa=1e10, rng=35).a))
    exact = np.linalg.cond(r, 2)
    assert 0.9 * exact <= _cond2_estimate(r) <= (1.0 + 1e-8) * exact


def test_cond_estimate_is_scale_free():
    # the inverse steps grow like ||R^-1||^2, which overflows at this scale
    # unless R is normalized first
    r = mixed_leading_triangle(60, 36)
    assert_allclose(_cond2_estimate(r * 1e-152), _cond2_estimate(r), rtol=1e-10)


def row_loop_cond2_estimate(r):
    """The estimate with dense products and row-by-row substitutions."""
    m = r.shape[0]
    r = r / np.max(np.abs(r))
    norm = lstsq._largest_singular_value(lambda x: r @ x, lambda y: r.T @ y, m, lstsq._POWER_STEPS)
    inv_norm = lstsq._largest_singular_value(
        lambda x: forward_substitute(r.T, x), lambda y: back_substitute(r, y), m, lstsq._INVERSE_STEPS
    )
    return norm * inv_norm


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 129, 1000])
def test_cond_estimate_matches_row_loop_reference(m):
    # orders on, around and past one _PANEL block and over many blocks
    r = mixed_leading_triangle(m, 60 + m)
    assert_allclose(_cond2_estimate(r), row_loop_cond2_estimate(r), rtol=1e-12)


def test_cond_estimate_matches_row_loop_reference_when_ill_conditioned():
    graded = extract_r(house_qr(gen_condition(150, 150, kappa=1e10, rng=35).a))
    for r in (graded, gen_kahan(250)):
        assert_allclose(_cond2_estimate(r), row_loop_cond2_estimate(r), rtol=1e-12)


@pytest.mark.parametrize("m", [65, 300])
@pytest.mark.parametrize("cols", [(4,), ()], ids=["block", "vector"])
def test_triangle_operators_match_products_and_substitutions(m, cols):
    r = mixed_leading_triangle(m, 61)
    kept = r.copy()
    x = np.random.default_rng(62).standard_normal((m, *cols))
    times, times_t, solve, solve_t = _triangle_operators(r)
    for got, want in [(times(x), r @ x), (times_t(x), r.T @ x),
                      (solve(x), back_substitute(r, x)), (solve_t(x), forward_substitute(r.T, x))]:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    _cond2_estimate(r)
    assert np.array_equal(r, kept)


def test_cond_estimate_is_inf_when_the_inverse_overflows():
    # unit diagonal passes the rank check, but R^-1 holds 2^(j-i-1) above
    # its diagonal, past the float64 range at this order
    m = 1100
    r = np.eye(m) + np.triu(-np.ones((m, m)), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _cond2_estimate(r) == np.inf


def test_ros_basic_redraws_a_draw_judged_inf(monkeypatch):
    scripted = [np.inf, 20.0]
    judged = []

    def scripted_estimate(r):
        judged.append(r)
        return scripted[len(judged) - 1]

    monkeypatch.setattr(lstsq, "_cond2_estimate", scripted_estimate)
    a, b = random_system(30, 50, seed=63)
    solve = _basis(a, "rurv-ros-basic", np.random.default_rng(64), 1)
    assert solve.draws == len(judged) == 2
    assert solve.r is judged[1]
    assert solve.cond_estimate == 20.0
    _, x = solve(b)
    assert np.linalg.norm(a @ x - b) < 1e-11 * np.linalg.norm(b)


def test_ros_basic_redraws_only_ill_conditioned_mixes():
    m = 120
    for seed in range(12):
        rng = np.random.default_rng(seed)
        a = gen_correlated(m, 180, 6, 1e-4, rng)
        sol = solve_basic(a, rng.standard_normal(m), method="rurv-ros-basic", rng=rng)
        assert 1 <= sol.draws <= 3
        assert sol.cond_estimate <= 10 * m or sol.draws == 3
        assert sol.residual_norm < 1e-10


@pytest.mark.parametrize("limit, kept", [(0.0, 1), (np.inf, 0)])
def test_ros_basic_stops_at_first_passing_draw_else_keeps_best(monkeypatch, limit, kept):
    # limit 0 rejects every draw, limit inf accepts the first; the scripted
    # estimates put the best of three draws in the middle
    scripted = [50.0, 20.0, 90.0]
    judged = []

    def scripted_estimate(r):
        judged.append(r)
        return scripted[len(judged) - 1]

    monkeypatch.setattr(lstsq, "_COND_LIMIT", limit)
    monkeypatch.setattr(lstsq, "_cond2_estimate", scripted_estimate)
    a, b = random_system(30, 50, seed=36)
    solve = _basis(a, "rurv-ros-basic", np.random.default_rng(37), 1)
    assert solve.draws == len(judged) == (3 if limit == 0.0 else 1)
    assert solve.r is judged[kept]
    assert solve.cond_estimate == scripted[kept]
    _, x = solve(b)
    assert np.linalg.norm(a @ x - b) < 1e-11 * np.linalg.norm(b)


@pytest.mark.parametrize("m,n", [(96, 144), (150, 260)])
def test_haar_basic_solve_matches_dense_mix_of_the_same_draw(m, n):
    # the solver applies the Haar reflectors and never forms V; the same
    # solve written with the dense haar_sample V of the same draw agrees
    a, b = random_system(m, n, seed=m + n)
    sol = solve_basic(a, b, method="rurv-haar-basic", rng=7)
    v = haar_sample(n, np.random.default_rng(7))
    f = house_qr((a @ v.T)[:, :m])
    r = extract_r(f)[:m, :m]

    def solve(rhs):
        return v.T @ np.concatenate((back_substitute(r, apply_qt(f, rhs)[:m]), np.zeros(n - m)))

    x = solve(b)
    x += solve(b - a @ x)
    assert np.linalg.norm(sol.x - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("method", ["qr-basic", "qrcp", "rurv-haar-basic"])
def test_unchecked_basic_methods_report_one_draw(method):
    a, b = random_system(8, 20, seed=38)
    sol = solve_basic(a, b, method=method, rng=39)
    assert sol.draws == 1
    assert sol.cond_estimate is None


def test_other_solvers_report_one_draw():
    a, b = random_system(20, 8, seed=40)
    wide, rhs = random_system(8, 20, seed=41)
    for sol in (solve_overdetermined(a, b, method="rurv-ros-overdet", rng=42),
                solve_min_norm(wide, rhs, rng=43)):
        assert sol.draws == 1
        assert sol.cond_estimate is None


@pytest.mark.parametrize("limit", [10.0, 0.0])
def test_ros_basic_same_seed_same_bits(monkeypatch, limit):
    # limit 0 forces every solve through all three draws
    monkeypatch.setattr(lstsq, "_COND_LIMIT", limit)
    a = gen_correlated(60, 90, 4, 1e-4, rng=44)
    b = np.random.default_rng(45).standard_normal(60)
    first = solve_basic(a, b, method="rurv-ros-basic", rng=46)
    second = solve_basic(a, b, method="rurv-ros-basic", rng=46)
    assert np.array_equal(first.x, second.x)
    assert (first.draws, first.cond_estimate) == (second.draws, second.cond_estimate)


def test_ros_basic_row_rank_deficient_raises_after_every_draw(monkeypatch):
    draws = []

    def counted(*args, **kwargs):
        draws.append(1)
        return _mix_and_sort(*args, **kwargs)

    monkeypatch.setattr(lstsq, "_mix_and_sort", counted)
    rng = np.random.default_rng(47)
    a = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 30))
    with pytest.raises(RankDeficiencyError) as info:
        solve_basic(a, rng.standard_normal(12), method="rurv-ros-basic", rng=48)
    assert info.value.index == 3
    assert len(draws) == 3


# ---------------------------------------------------------------------------
# solver map


def test_solvers_keys_are_the_cli_choices_in_order():
    parser = cli._build_parser()
    subcommands = next(a for a in parser._actions if a.dest == "subcommand")
    method = next(a for a in subcommands.choices["solve"]._actions if a.dest == "method")
    assert tuple(SOLVERS) == tuple(method.choices)
    assert tuple(SOLVERS) == OVERDETERMINED_METHODS + BASIC_METHODS + ("rvlu-minnorm",)


@pytest.mark.parametrize("method", list(SOLVERS))
def test_solvers_entry_equals_direct_call(method):
    if method in OVERDETERMINED_METHODS:
        a, b = random_system(18, 12, seed=49)
        direct = solve_overdetermined(a, b, method=method, rng=50, num_mixes=2)
    else:
        a, b = random_system(12, 18, seed=51)
        if method in BASIC_METHODS:
            direct = solve_basic(a, b, method=method, rng=50, num_mixes=2)
        else:
            direct = solve_min_norm(a, b, rng=50, num_mixes=2)
    mapped = SOLVERS[method](a, b, 50, 2)
    assert mapped.method == method
    assert np.array_equal(mapped.x, direct.x)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_mixed_column_gathers_equal_fancy_indexing(layout):
    # rurv_ros_partial and the ROS solves gather the sorted mixed columns
    # with np.take, a plain copy: the factors must be those of the
    # fancy-indexed gather, bit for bit
    a = np.asarray(np.random.default_rng(41).standard_normal((150, 260)), order=layout)
    _, mixed, order = _mix_and_sort(a, 2, np.random.default_rng(42))
    part = rurv_ros_partial(a, 70, 2, np.random.default_rng(42))
    assert np.array_equal(part.u.packed, house_qr(mixed[:, order], steps=70).packed)
    f, _ = _factor(a, "rurv-ros-basic", 150, np.random.default_rng(42), 2)
    assert np.array_equal(f.packed, house_qr(mixed[:, order[:150]]).packed)
