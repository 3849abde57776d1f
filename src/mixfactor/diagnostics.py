"""Rank-revealing quality measurements for triangular factors.

Given a split index k, a factorization is rank-revealing when the leading
k x k block's singular values track the largest k singular values of A and
the trailing block's track the rest, both within a modest factor.  The
functions here sample those ratios, the strong-condition norm
||R11^-1 R12||, and the diagonal-based singular-value estimates (R-values
after one triangularization, L-values after two).
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError
from .linalg import back_substitute, extract_r, forward_substitute, house_qr, house_qrcp, jacobi_svd
from .rurv import rurv_haar, rurv_ros

# name -> f(a, num_mixes, rng) returning the full-height triangular factor R;
# the order is the order of CLI choices and of experiment rows
FIRST_FACTORIZATIONS = {
    "qr": lambda a, num_mixes, rng: extract_r(house_qr(a)),
    "qrcp": lambda a, num_mixes, rng: extract_r(house_qrcp(a)),
    "rurv-haar": lambda a, num_mixes, rng: rurv_haar(a, rng).r,
    "rurv-ros": lambda a, num_mixes, rng: rurv_ros(a, num_mixes, rng).r,
}


@dataclass
class RankRevealReport:
    """Sampled rank-revealing ratios for one triangular factor and split.

    ratios_r11[i] = sigma_i(A) / sigma_i(R11); at least 1 for any QR-type
    factorization, and far above 1 exactly when the factorization hides a
    large singular value inside the trailing block.  ratios_r22[j] =
    sigma_j(R22) / sigma_(k+j)(A), at least 1 likewise.  strong_norm is
    ||R11^-1 R12||_2, or +inf when R11 is numerically singular.
    """

    k: int
    max_ratio_r11: float
    max_ratio_r22: float
    strong_norm: float
    ratios_r11: np.ndarray
    ratios_r22: np.ndarray


@dataclass
class RvalueReport:
    """R-value to singular-value ratios with their theoretical enclosure.

    For R = D Y.T with D the diagonal of R, every |R(i,i)|/sigma_i ratio of
    a column-pivoted factorization lies in [1/||Y||, ||Y^-1||].
    """

    ratios: np.ndarray
    min: float
    median: float
    max: float
    lower_bound: float
    upper_bound: float


@dataclass
class QlpReport:
    """L-values (sorted descending) from a two-pass triangularization."""

    l_values: np.ndarray
    first_factorization: str


def _spectral_norm(apply, apply_t, v, tol=1e-10, max_iter=1000):
    """2-norm of the operator ``apply`` by power iteration on apply_t(apply(.)).

    v is the unit start vector.  The estimate is 0 once an iterate's image
    is exactly zero.
    """
    estimate = 0.0
    for _ in range(max_iter):
        w = apply(v)
        previous, estimate = estimate, float(np.linalg.norm(w))
        if estimate == 0.0:
            return 0.0
        if abs(estimate - previous) <= tol * estimate:
            break
        v = apply_t(w)
        v /= np.linalg.norm(v)
    return estimate


def _dense_spectral_norm(x):
    """2-norm of a dense block, started on its largest column.

    That column's image is nonzero unless the whole block is zero, so the
    iteration cannot stall at zero.
    """
    v = np.zeros(x.shape[1])
    v[int(np.argmax(np.linalg.norm(x, axis=0)))] = 1.0
    return _spectral_norm(lambda u: x @ u, lambda w: x.T @ w, v)


def _singular_values(block):
    rows, cols = block.shape
    if rows <= cols:
        return jacobi_svd(block.T, want_vectors=False).sigma
    return jacobi_svd(block, want_vectors=False).sigma


def rr_conditions(sigma_a, r, k):
    """Measure how well a triangular factor reveals rank at split k.

    Parameters
    ----------
    sigma_a : singular values of the original matrix (true profile or a
        high-accuracy computation), at least min(r.shape) of them
    r : upper triangular/trapezoidal factor, full height allowed
    k : split index, 1 <= k < min(r.shape)
    """
    r = np.asarray(r, dtype=np.float64)
    rk = min(r.shape)
    if not 1 <= k < rk:
        raise ValueError(f"split must lie in [1, {rk - 1}], got {k}")
    sigma_a = np.asarray(sigma_a, dtype=np.float64)
    if sigma_a.size < rk:
        raise ValueError(f"need at least {rk} reference singular values, got {sigma_a.size}")
    sigma_11 = _singular_values(r[:k, :k])
    sigma_22 = _singular_values(r[k:rk, k:])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios_11 = sigma_a[:k] / sigma_11
        ratios_22 = sigma_22 / sigma_a[k : k + sigma_22.size]
    try:
        solved = back_substitute(r[:k, :k], r[:k, k:])
        strong = _dense_spectral_norm(solved)
    except SingularMatrixError:
        strong = float("inf")
    return RankRevealReport(
        k=k,
        max_ratio_r11=float(np.max(ratios_11)),
        max_ratio_r22=float(np.max(ratios_22)),
        strong_norm=strong,
        ratios_r11=ratios_11,
        ratios_r22=ratios_22,
    )


def rvalue_ratios(r, sigma):
    """Compare the R-values |R(i,i)| against reference singular values.

    The R-values are sorted by decreasing magnitude before the comparison
    (already the natural order for a pivoted factorization).  The returned
    bounds are 1/||Y|| and ||Y^-1|| for R = D Y.T; for a column-pivoted R
    every ratio is guaranteed to lie between them.
    """
    r = np.asarray(r, dtype=np.float64)
    n = r.shape[0]
    if r.ndim != 2 or r.shape[1] != n:
        raise ValueError("rvalue_ratios needs a square triangular matrix")
    diag = np.diagonal(r)
    if np.any(diag == 0.0):
        raise ValueError("triangular factor has a zero diagonal entry")
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.size != n:
        raise ValueError(f"need {n} reference singular values, got {sigma.size}")
    rvalues = np.sort(np.abs(diag))[::-1]
    with np.errstate(divide="ignore"):
        ratios = rvalues / sigma
    y = (r / diag[:, None]).T
    if n <= 512:
        # small enough to get the enclosure exactly; power iteration can
        # sit a few ulps on the wrong side of a tight bound
        sigma_y = jacobi_svd(y, want_vectors=False).sigma
        lower = 1.0 / sigma_y[0] if sigma_y[0] > 0.0 else float("inf")
        upper = 1.0 / sigma_y[-1] if sigma_y[-1] > 0.0 else float("inf")
    else:
        lower = 1.0 / _dense_spectral_norm(y)
        # ||Y^-1|| by solves with the unit triangle instead of inversion
        yt = y.T.copy()
        start = np.full(n, 1.0 / np.sqrt(n))
        upper = _spectral_norm(lambda u: forward_substitute(y, u), lambda w: back_substitute(yt, w), start)
    return RvalueReport(
        ratios=ratios,
        min=float(np.min(ratios)),
        median=float(np.median(ratios)),
        max=float(np.max(ratios)),
        lower_bound=lower,
        upper_bound=upper,
    )


def qlp(a, first="qrcp", num_mixes=1, rng=None):
    """L-values: triangularize once, then QR the transposed triangle.

    The second pass is always unpivoted QR.  Its diagonal magnitudes,
    sorted descending, estimate the singular values far more tightly than
    the R-values from the first pass alone.
    """
    if first not in FIRST_FACTORIZATIONS:
        raise ValueError(f"first must be one of {tuple(FIRST_FACTORIZATIONS)}, got {first!r}")
    r = FIRST_FACTORIZATIONS[first](a, num_mixes, rng)
    r = r[: min(r.shape), :]
    second = house_qr(r.T)
    l_values = np.abs(np.diagonal(extract_r(second)))
    return QlpReport(l_values=np.sort(l_values)[::-1], first_factorization=first)
