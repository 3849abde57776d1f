"""Least-squares solvers on top of the randomized factorizations.

Three problem shapes are covered: overdetermined solves (m >= n), basic
solutions of underdetermined systems (m < n, trailing coefficients pinned to
zero before unmixing), and minimum-norm solutions via the VLU factorization.
Every solver checks the triangular factor for numerical rank deficiency and
raises instead of silently truncating.

Extension beyond the paper: "rurv-ros-basic" is a checked-and-redrawn (Las
Vegas) algorithm.  The paper takes the first mix as it comes, but the
leading m x m block of a mixed matrix behaves like a square Gaussian matrix,
whose 2-norm condition number has a heavy tail (Edelman 1988:
P(kappa > c m) -> 1 - exp(-2/c - 2/c^2), about 20% at c = 10).  A bad draw
leaves an accurate but needlessly long solution whose residual floor grows
with ||x||.  So after each QR the solver estimates kappa_2(R11) in O(m^2)
and accepts the draw when the estimate is at most 10 m; otherwise it redraws
the mix from the same generator, up to 3 draws in total, and keeps the
best-conditioned one if none passes.  A draw whose R11 is numerically
singular counts as kappa = inf; RankDeficiencyError is raised only when
every draw is.  "rurv-haar-basic", the paper's reference method, stays a
single draw: a dense Haar redraw costs far more than the check.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError
from .linalg import (
    HouseholderQR,
    apply_q,
    apply_qt,
    as_matrix,
    back_substitute,
    extract_r,
    form_q,
    forward_substitute,
    house_qr,
    house_qrcp,
    jacobi_svd,
)
from .rurv import _mix_and_sort, haar_sample, mix_apply, rurv_ros, rvlu_ros

_EPS = float(np.finfo(np.float64).eps)

# Las Vegas redraw of the ROS mix (see the module docstring): accept a draw
# when cond_2(R11) <= _COND_LIMIT * m, and draw at most _MAX_DRAWS mixes.
_COND_LIMIT = 10.0
_MAX_DRAWS = 3
# Condition estimate: block power iteration on R.T R and on (R.T R)^-1 with
# _COND_BLOCK vectors, finished by a Rayleigh-Ritz step.  The soft upper
# edge of the spectrum converges slowly, the hard lower edge in a few steps.
_COND_BLOCK = 4
_POWER_STEPS = 20
_INVERSE_STEPS = 4

OVERDETERMINED_METHODS = ("qr-overdet", "rurv-ros-overdet")
BASIC_METHODS = ("qr-basic", "qrcp", "rurv-haar-basic", "rurv-ros-basic")


@dataclass
class LsSolution:
    """Solution vector with its residual and solution norms.

    residual_norm is ||A x - b||_2 recomputed from the returned x, not the
    solver's internal estimate.  draws counts the mixes the solver drew,
    the kept one included; cond_estimate is its estimate of the 2-norm
    condition number of the triangle it solved with, or None for solvers
    that do not estimate it.
    """

    x: np.ndarray
    residual_norm: float
    solution_norm: float
    method: str
    draws: int = 1
    cond_estimate: float | None = None


def _check_full_rank(diag):
    """Raise if any |diag[i]| falls under n*eps*|diag[0]|."""
    n = diag.size
    ref = abs(diag[0])
    if ref == 0.0:
        raise RankDeficiencyError(0)
    bad = np.abs(diag) < n * _EPS * ref
    if np.any(bad):
        raise RankDeficiencyError(int(np.flatnonzero(bad)[0]))


def _largest_singular_value(apply, apply_t, m, steps):
    """Estimate the 2-norm of the m x m operator ``apply`` in O(steps m^2).

    Block power iteration on apply_t(apply(.)) from a fixed start (the
    all-ones vector and the next low-frequency cosines), then the largest
    singular value of the operator restricted to the final block.  The
    result is a lower bound that rises toward the true norm.
    """
    p = min(_COND_BLOCK, m)
    x = np.cos(np.outer(np.arange(m) + 0.5, np.arange(p)) * (np.pi / m))
    for _ in range(steps):
        x = form_q(house_qr(apply_t(apply(x))), "thin")
    return float(jacobi_svd(apply(x), want_vectors=False).sigma[0])


def _cond2_estimate(r):
    """Estimate cond_2 of a nonsingular upper triangle R without drawing randomness.

    ||R|| comes from power steps with R and R.T; ||R^-1|| from inverse steps,
    each one forward substitution with R.T and one back substitution with R.
    R is first scaled to unit largest entry: the inverse steps grow like
    ||R^-1||^2, which overflows for a well-conditioned R of tiny scale.
    """
    m = r.shape[0]
    r = r / np.max(np.abs(r))
    norm = _largest_singular_value(lambda x: r @ x, lambda y: r.T @ y, m, _POWER_STEPS)
    inv_norm = _largest_singular_value(
        lambda x: forward_substitute(r.T, x), lambda y: back_substitute(r, y), m, _INVERSE_STEPS
    )
    return norm * inv_norm


def _finish(a, b, x, method, draws=1, cond_estimate=None):
    residual = float(np.linalg.norm(a @ x - b))
    return LsSolution(
        x=x,
        residual_norm=residual,
        solution_norm=float(np.linalg.norm(x)),
        method=method,
        draws=draws,
        cond_estimate=cond_estimate,
    )


def _as_rhs(b, m):
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.size != m:
        raise ValueError(f"right-hand side has {b.size} entries, expected {m}")
    return b


def solve_overdetermined(a, b, method="qr-overdet", rng=None, num_mixes=1):
    """Least squares for m >= n via y = R^-1 (U.T b), x = V.T y.

    method "qr-overdet" factors A directly (V is the identity);
    "rurv-ros-overdet" mixes the columns first and unmixes the solution.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"solve_overdetermined needs m >= n, got {a.shape}")
    b = _as_rhs(b, m)
    if method not in OVERDETERMINED_METHODS:
        raise ValueError(f"method must be one of {OVERDETERMINED_METHODS}, got {method!r}")
    _, x = _basis(a, method, rng, num_mixes)(b)
    return _finish(a, b, x, method)


@dataclass
class _Basis:
    """A factored basis of k = min(m, n) columns, reusable for refinement passes.

    Calling it with a right-hand side returns (y, x): y is the coefficient
    vector in the factored basis, whose trailing n - k entries (none when
    m >= n) are exact zeros by construction, and x = to_x(y) is the
    solution in the original coordinates.
    """

    f: HouseholderQR
    r: np.ndarray
    n: int
    to_x: Callable[[np.ndarray], np.ndarray]
    draws: int = 1
    cond_estimate: float | None = None

    def __call__(self, rhs):
        k = self.r.shape[0]
        y1 = back_substitute(self.r, apply_qt(self.f, rhs)[:k])
        y = np.concatenate((y1, np.zeros(self.n - k)))
        return y, self.to_x(y)


def _draw_mixed_basis(a, rng, num_mixes):
    """Mix, sort and factor until the leading block is well conditioned.

    Returns (v, f, r, draws, cond) for the first draw whose estimated
    cond_2(R11) is at most _COND_LIMIT * m, or for the best of _MAX_DRAWS.
    """
    m = a.shape[0]
    best = None
    for draws in range(1, _MAX_DRAWS + 1):
        v, mixed, order = _mix_and_sort(a, num_mixes, rng)
        # only the leading m sorted columns are factored; the rest never
        # enter the triangular solve because their coefficients are zero
        f = house_qr(mixed[:, order[:m]])
        r = extract_r(f)[:m, :m]
        try:
            _check_full_rank(np.diagonal(r))
        except RankDeficiencyError as exc:
            # a numerically singular R11 counts as cond = inf
            error = exc
            continue
        cond = _cond2_estimate(r)
        if best is None or cond < best[0]:
            best = (cond, v, f, r)
        if cond <= _COND_LIMIT * m:
            break
    if best is None:
        raise error
    cond, v, f, r = best
    return v, f, r, draws, cond


def _basis(a, method, rng, num_mixes):
    """Factor once and return the _Basis that ``method`` solves with.

    method is one of OVERDETERMINED_METHODS or BASIC_METHODS; each public
    solver checks that it got one of its own.
    """
    m, n = a.shape
    k = min(m, n)
    rng = np.random.default_rng(rng)
    if method == "rurv-ros-basic":
        v, f, r, draws, cond = _draw_mixed_basis(a, rng, num_mixes)
        return _Basis(f, r, n, lambda y: mix_apply(v, y, "left-transpose"), draws, cond)
    if method in ("qr-overdet", "qr-basic"):
        # no mixing at all: factor the leading k columns as they stand
        f = house_qr(a[:, :k])
        to_x = np.copy
    elif method == "rurv-ros-overdet":
        # a tall mix keeps every column, so cond(R) = cond(A) for every
        # draw and a redraw cannot help: no condition check here
        fac = rurv_ros(a, num_mixes, rng)
        f = fac.u
        to_x = lambda y: mix_apply(fac.v, y, "left-transpose")
    elif method == "qrcp":
        f = house_qrcp(a)

        def to_x(y):
            x = np.empty(n)
            x[f.perm] = y
            return x

    elif method == "rurv-haar-basic":
        v = haar_sample(n, rng)
        f = house_qr((a @ v.T)[:, :k])
        to_x = lambda y: v.T @ y
    r = extract_r(f)[:k, :k]
    _check_full_rank(np.diagonal(r))
    return _Basis(f, r, n, to_x)


def solve_basic(a, b, method="rurv-ros-basic", rng=None, num_mixes=1):
    """Basic solution of an underdetermined full-rank system (m < n).

    Mixing methods mix all n columns, sort them by decreasing norm, factor
    the leading m, and unmix; "qr-basic" factors A[:, :m] as given, which is
    exactly the fragile strategy the mixed variants repair.
    "rurv-ros-basic" redraws its mix, up to 3 draws, while the leading
    triangle's estimated 2-norm condition number exceeds 10 m (see the
    module docstring); the returned draws and cond_estimate report it.

    The system is consistent whenever A has full row rank, so after the
    triangular solve one refinement pass against the original matrix pulls
    the residual down to the rounding floor; without it the mix and unmix
    rounding would sit in the result at a few extra ulps.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m >= n:
        raise ValueError(f"solve_basic needs m < n, got {a.shape}")
    b = _as_rhs(b, m)
    if method not in BASIC_METHODS:
        raise ValueError(f"method must be one of {BASIC_METHODS}, got {method!r}")
    solve = _basis(a, method, rng, num_mixes)
    _, x = solve(b)
    _, dx = solve(b - a @ x)
    return _finish(a, b, x + dx, method, solve.draws, solve.cond_estimate)


def solve_min_norm(a, b, rng=None, num_mixes=1):
    """Minimum-norm solution of an underdetermined full-row-rank system.

    Uses A = V.T L U from the VLU factorization: x = U.T L^-1 V b.  The
    result lies in the row space of A, which is what makes its norm minimal
    among all solutions.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m >= n:
        raise ValueError(f"solve_min_norm needs m < n, got {a.shape}")
    b = _as_rhs(b, m)
    fac = rvlu_ros(a, num_mixes, rng)
    ldiag = np.diagonal(fac.l)
    _check_full_rank(ldiag)
    z = forward_substitute(fac.l[:m, :m], mix_apply(fac.v, b, "left"))
    padded = np.zeros(n)
    padded[:m] = z
    x = apply_q(fac.u, padded)
    return _finish(a, b, x, "rvlu-minnorm")


def _fixed_method(solve, method):
    return lambda a, b, rng, num_mixes: solve(a, b, method, rng, num_mixes)


# name -> f(a, b, rng, num_mixes) returning an LsSolution; the order is the
# order of CLI choices and of experiment rows
SOLVERS = {
    **{name: _fixed_method(solve_overdetermined, name) for name in OVERDETERMINED_METHODS},
    **{name: _fixed_method(solve_basic, name) for name in BASIC_METHODS},
    "rvlu-minnorm": solve_min_norm,
}
