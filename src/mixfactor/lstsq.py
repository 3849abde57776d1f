"""Least-squares solvers on top of the randomized factorizations.

Three problem shapes are covered: overdetermined solves (m >= n), basic
solutions of underdetermined systems (m < n, trailing coefficients pinned to
zero before unmixing), and minimum-norm solutions via the VLU factorization.
Every solver checks the triangular factor for numerical rank deficiency and
raises instead of silently truncating, and raises NumericalError when an
overflow leaves the factor or the solution non-finite.

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
every draw is.  A nonsingular R11 whose inverse overflows the estimate also
counts as kappa = inf, but can still be kept.  "rurv-haar-basic", the
paper's reference method, stays a single draw: a Haar redraw costs another
n x n QR, far more than the check.
Every solve through a triangle R11 runs that loop (_basis), one factor step
and one rank check a draw, but only "rurv-ros-basic" draws more than once.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RankDeficiencyError
from .linalg import (
    _PANEL,
    HouseholderQR,
    apply_q,
    apply_qt,
    as_matrix,
    back_substitute,
    form_q,
    forward_substitute,
    house_qr,
    house_qrcp,
    jacobi_svd,
)
from .rurv import _mix_and_sort, haar_operator, mix_apply, rvlu_ros

_EPS = float(np.finfo(np.float64).eps)

# Las Vegas redraw of the ROS mix (see the module docstring): accept a draw
# when cond_2(R11) <= _COND_LIMIT * m, and draw at most _MAX_DRAWS mixes.
_COND_LIMIT = 10.0
_MAX_DRAWS = 3
# Condition estimate: block power iteration on R.T R and on (R.T R)^-1 with
# _COND_BLOCK vectors, finished by a Rayleigh-Ritz step.  The soft upper
# edge of the spectrum converges slowly, the hard lower edge in a few steps.
# Every step applies R, R.T, R^-1 or R^-T by row blocks of linalg._PANEL
# (_triangle_operators): the products read only the stored triangle, and
# the solves multiply by R's diagonal-block inverses, formed once per
# estimate, so the only loop over R's rows is the one that forms them.
_COND_BLOCK = 4
_POWER_STEPS = 20
_INVERSE_STEPS = 4

OVERDETERMINED_METHODS = ("qr-overdet", "rurv-ros-overdet")
BASIC_METHODS = ("qr-basic", "qrcp", "rurv-haar-basic", "rurv-ros-basic")


@dataclass
class LsSolution:
    """Solution vector with its residual and solution norms.

    residual_norm is ||A x - b||_2 recomputed from the returned x, not the
    solver's internal estimate; both norms are computed scale-safely.
    draws counts the mixes the solver drew, the kept one included;
    cond_estimate is its estimate of the 2-norm condition number of the
    triangle it solved with, or None for solvers that do not estimate it.
    """

    x: np.ndarray
    residual_norm: float
    solution_norm: float
    method: str
    draws: int = 1
    cond_estimate: float | None = None


def _check_full_rank(diag):
    """Raise if any |diag[i]| falls under n*eps*|diag[0]|, or is not finite.

    A non-finite entry comes from an overflow in the factorization: it is a
    NumericalError, which a redraw cannot cure, not a rank deficiency.
    """
    if not np.all(np.isfinite(diag)):
        index = int(np.flatnonzero(~np.isfinite(diag))[0])
        raise NumericalError(f"triangular factor has a non-finite diagonal entry at index {index}")
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
    result is a lower bound that rises toward the true norm, or inf once a
    product overflows.
    """
    p = min(_COND_BLOCK, m)
    x = np.cos(np.outer(np.arange(m) + 0.5, np.arange(p)) * (np.pi / m))
    for _ in range(steps):
        y = apply_t(apply(x))
        if not np.all(np.isfinite(y)):
            return np.inf
        x = form_q(house_qr(y), "thin")
    y = apply(x)
    if not np.all(np.isfinite(y)):
        return np.inf
    return float(jacobi_svd(y, want_vectors=False).sigma[0])


def _triangle_operators(r):
    """R x, R.T y, R^-1 x and R^-T y for an upper triangle R, by row blocks.

    The blocks are _PANEL rows and columns.  The products read only the
    stored triangle.  The solves are block substitutions: each inverts the
    diagonal block of its block row with the inverse formed here once (one
    back substitution per block, a loop over the m rows in all), so a solve
    is two small matrix products per block row.  They are not backward
    stable as a row-by-row substitution is, which the estimate does not need.
    """
    m = r.shape[0]
    blocks = [(i, min(i + _PANEL, m)) for i in range(0, m, _PANEL)]
    inverses = [back_substitute(r[i:e, i:e], np.eye(e - i)) for i, e in blocks]

    def times(x):
        return np.concatenate([r[i:e, i:] @ x[i:] for i, e in blocks])

    def times_t(y):
        return np.concatenate([r[:e, i:e].T @ y[:e] for i, e in blocks])

    def solve(x):
        y = np.empty_like(x)
        for (i, e), inverse in zip(blocks[::-1], inverses[::-1]):
            y[i:e] = inverse @ (x[i:e] - r[i:e, e:] @ y[e:])
        return y

    def solve_t(y):
        x = np.empty_like(y)
        for (i, e), inverse in zip(blocks, inverses):
            x[i:e] = inverse.T @ (y[i:e] - r[:i, i:e].T @ x[:i])
        return x

    return times, times_t, solve, solve_t


def _cond2_estimate(r):
    """Estimate cond_2 of a nonsingular upper triangle R without drawing randomness.

    ||R|| comes from power steps with R and R.T; ||R^-1|| from inverse steps,
    each one solve with R.T and one with R.  All four operators work by row
    blocks (_triangle_operators), the solves through R's diagonal-block
    inverses, formed once per estimate.  R is first scaled to unit largest
    entry: the inverse steps grow like ||R^-1||^2, which overflows for a
    well-conditioned R of tiny scale.  An R^-1 too large for floating point
    gives inf, judged like a singular R.
    """
    m = r.shape[0]
    r = r / np.max(np.abs(r))
    with np.errstate(over="ignore", invalid="ignore"):
        times, times_t, solve, solve_t = _triangle_operators(r)
        norm = _largest_singular_value(times, times_t, m, _POWER_STEPS)
        inv_norm = _largest_singular_value(solve_t, solve, m, _INVERSE_STEPS)
    return norm * inv_norm


def _norm(v):
    """||v||_2 of a finite vector, safe from overflow and underflow in the squares.

    While max|v_i| lies in [2^-500, 2^500] this is np.linalg.norm(v), bit
    for bit: for fewer than 2^23 entries the sum of squares cannot
    overflow, and a square that underflows errs by at most 2^-1074, far
    below the rounding of the largest square.  Outside that band v is
    divided by 2^e, e the exponent of max|v_i|, which is exact but for
    entries too small to count, and the norm is multiplied back.
    """
    top = float(np.max(np.abs(v)))
    if top == 0.0 or 2.0**-500 <= top <= 2.0**500:
        return float(np.linalg.norm(v))
    scale = np.ldexp(1.0, int(np.frexp(top)[1]))
    return float(scale * np.linalg.norm(v / scale))


def _finish(a, b, x, method, draws=1, cond_estimate=None):
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{method} gave a non-finite solution")
    return LsSolution(
        x=x,
        residual_norm=_norm(a @ x - b),
        solution_norm=_norm(x),
        method=method,
        draws=draws,
        cond_estimate=cond_estimate,
    )


def _system(a, b, solver, wide):
    """Return A as a finite matrix and b as a vector of m finite entries.

    A must be wide (m < n) when ``wide`` is set and tall or square
    otherwise, as ``solver`` needs; b may be a vector or a single column.
    """
    a = as_matrix(a)
    m, n = a.shape
    if (m < n) != wide:
        raise ValueError(f"{solver} needs m {'<' if wide else '>='} n, got {a.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 and b.shape[1:] != (1,):
        raise ValueError(f"right-hand side must be a vector or a single column, got shape {b.shape}")
    b = b.ravel()
    if b.size != m:
        raise ValueError(f"right-hand side has {b.size} entries, expected {m}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side entries must be finite")
    return a, b


def solve_overdetermined(a, b, method="qr-overdet", rng=None, num_mixes=1):
    """Least squares for m >= n via y = R^-1 (U.T b), x = V.T y.

    method "qr-overdet" factors A directly (V is the identity);
    "rurv-ros-overdet" mixes the columns first and unmixes the solution.
    """
    a, b = _system(a, b, "solve_overdetermined", wide=False)
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
        if not np.all(np.isfinite(y1)):
            # an overflow, caught here before to_x unmixes it
            raise NumericalError("triangular solve gave non-finite coefficients")
        y = np.concatenate((y1, np.zeros(self.n - k)))
        return y, self.to_x(y)


def _factor(a, method, k, rng, num_mixes):
    """Draw and factor once for ``method``: (f, to_x) of a _Basis.

    f has taken k elimination steps, so the upper triangle of
    f.packed[:k, :k] is R11.
    """
    if method in ("qr-overdet", "qr-basic"):
        # no mixing at all: factor the leading k columns as they stand
        return house_qr(a[:, :k]), np.copy
    if method == "qrcp":
        f = house_qrcp(a)
        # y holds the coefficients of the columns perm: x[perm] = y
        return f, lambda y: y[np.argsort(f.perm)]
    if method == "rurv-haar-basic":
        v = haar_operator(a.shape[1], rng)
        f = house_qr(mix_apply(v, a, "right-transpose")[:, :k])
    else:
        # only the leading k sorted columns are gathered and factored (every
        # column when m >= n); the rest never enter the triangular solve
        # because their coefficients are zero
        v, block = _mix_and_sort(a, k, num_mixes, rng)
        f = house_qr(block)
    return f, lambda y: mix_apply(v, y, "left-transpose")


def _basis(a, method, rng, num_mixes):
    """Draw, factor and rank-check R11 until ``method`` has its _Basis.

    method is one of OVERDETERMINED_METHODS or BASIC_METHODS; each public
    solver checks that it got one of its own.  Only "rurv-ros-basic" draws
    again, while its estimated cond_2(R11) exceeds _COND_LIMIT * m (see the
    module docstring); every other method draws once, and its check raises.
    """
    m, n = a.shape
    k = min(m, n)
    rng = np.random.default_rng(rng)
    # a tall mix keeps every column, so cond(R) = cond(A) for every draw and
    # a redraw cannot help: "rurv-ros-overdet" is never checked or redrawn
    checked = method == "rurv-ros-basic"
    best = None
    for draws in range(1, (_MAX_DRAWS if checked else 1) + 1):
        f, to_x = _factor(a, method, k, rng, num_mixes)
        r = np.triu(f.packed[:k, :k])
        try:
            _check_full_rank(np.diagonal(r))
        except RankDeficiencyError as exc:
            # a numerically singular R11 counts as cond = inf
            error = exc
            continue
        cond = _cond2_estimate(r) if checked else None
        if best is None or cond < best.cond_estimate:
            best = _Basis(f, r, n, to_x, cond_estimate=cond)
        if not checked or cond <= _COND_LIMIT * m:
            break
    if best is None:
        raise error
    best.draws = draws
    return best


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
    a, b = _system(a, b, "solve_basic", wide=True)
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
    a, b = _system(a, b, "solve_min_norm", wide=True)
    fac = rvlu_ros(a, num_mixes, rng)
    # L = R.T, R the leading triangle of the packed factor
    r = np.triu(fac.u.packed[: a.shape[0]])
    _check_full_rank(np.diagonal(r))
    z = forward_substitute(r.T, mix_apply(fac.v, b, "left"))
    # x = Q [z; 0], the zero rows never formed
    x = apply_q(fac.u, z)
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
