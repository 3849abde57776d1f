"""Least-squares solvers: overdetermined, basic, and minimum-norm routes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mixfactor import (
    BASIC_METHODS,
    OVERDETERMINED_METHODS,
    RankDeficiencyError,
    extract_r,
    gen_condition,
    gen_correlated,
    house_qr,
    solve_basic,
    solve_min_norm,
    solve_overdetermined,
)
from mixfactor import cli, lstsq
from mixfactor.lstsq import SOLVERS, _basis, _cond2_estimate
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


def test_overdetermined_rank_deficient_raises_with_index():
    a = np.ones((6, 3))
    with pytest.raises(RankDeficiencyError) as info:
        solve_overdetermined(a, np.ones(6))
    assert info.value.index == 1


def test_overdetermined_column_rhs():
    a, b = random_system(12, 5, seed=4)
    sol = solve_overdetermined(a, b[:, None])
    assert sol.x.shape == (5,)


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
