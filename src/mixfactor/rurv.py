"""Randomized URV and VLU factorizations.

A = U R V with orthogonal U, V and upper-triangular R.  U always stays in
packed Householder form; V is a dense Haar-distributed orthogonal matrix,
an implicit HaarOperator, or an implicit RosOperator, and mix_apply applies
any of them.  The VLU variant mixes rows instead and factors the transpose,
giving A = V.T L U for minimum-norm solves: it is the URV of A.T.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import HouseholderQR, apply_q, apply_qt, as_matrix, extract_r, form_q, house_qr
from .transforms import _ROS_MODES, RosOperator, ros_apply, ros_sample


@dataclass
class UrvFactorization:
    """A = U R V.

    u : packed Householder factorization whose Q is U and whose upper
        triangle holds R; u.steps is the number of elimination steps
        performed
    v : dense orthogonal matrix or RosOperator

    R is kept only in u.packed.  ``r`` builds the full-height (m, n) R from
    it (extract_r) each time it is read; after a partial factorization its
    rows >= u.steps still hold the unreduced trailing block.
    """

    u: HouseholderQR
    v: "np.ndarray | RosOperator"

    @property
    def r(self):
        return extract_r(self.u)


@dataclass
class VluFactorization(UrvFactorization):
    """A = V.T L U with L lower triangular and U having orthonormal rows.

    The record is the URV of A.T: (V A).T = Q R gives A.T = Q R V, so u is
    the packed QR of the row-mixed transpose, U = Q.T, L = R.T, and v is a
    RosOperator with no presort.  ``l`` is the transposed view of the
    leading min(m, n) rows of ``r``, built each time it is read.
    """

    @property
    def l(self):
        return self.r[: min(self.u.shape), :].T


@dataclass
class HaarOperator:
    """Implicit Haar matrix V = Q diag(flips), never formed.

    f : packed QR of an n x n standard Gaussian matrix, holding Q as reflectors
    flips : (n,) array of +-1.0, the signs of that QR's R diagonal
    """

    f: HouseholderQR
    flips: np.ndarray


def haar_operator(n, rng):
    """Draw an n x n orthogonal matrix from the Haar distribution, implicitly.

    QR of a standard Gaussian matrix, with each Q column flipped so the
    implied R diagonal is non-negative.  Without that sign normalization the
    result would be biased by the factorization's sign convention rather
    than uniform over the orthogonal group (Mezzadri 2007).  Q stays as its
    reflectors (Stewart 1980): mix_apply applies them and never forms V.
    """
    f = house_qr(np.random.default_rng(rng).standard_normal((n, n)))
    flips = np.where(np.diagonal(f.packed) >= 0.0, 1.0, -1.0)
    return HaarOperator(f, flips)


def haar_sample(n, rng):
    """Draw an n x n Haar orthogonal matrix: haar_operator's V, formed densely."""
    v = haar_operator(n, rng)
    return form_q(v.f, "full") * v.flips


def mix_apply(v, x, mode):
    """Apply a mixing handle (dense matrix, HaarOperator or RosOperator) to x.

    mode is one of ros_apply's.  Vectors are promoted to a single column
    (left modes) or row (right modes) and returned flat.  The mixed axis of
    x (rows in left modes, columns in right modes) must match the handle.
    """
    if mode not in _ROS_MODES:
        raise ValueError(f"mode must be one of {_ROS_MODES}, got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    vec = x.ndim == 1
    right = mode.startswith("right")
    if vec:
        x = x[None, :] if right else x[:, None]
    axis = 1 if right else 0
    n = v.n if isinstance(v, RosOperator) else v.flips.size if isinstance(v, HaarOperator) else v.shape[0]
    if x.shape[axis] != n:
        raise ValueError(f"operand size {x.shape[axis]} along axis {axis} does not match operator dimension {n}")
    if isinstance(v, RosOperator):
        out = ros_apply(v, x, mode)
    elif isinstance(v, HaarOperator):
        # V X = Q (flips * X) and V.T X = flips * (Q.T X); a right mode is
        # the left mode on x.T, transposed back: X V.T = (V X.T).T
        y = x.T if right else x
        if mode in ("left", "right-transpose"):
            out = apply_q(v.f, v.flips[:, None] * y)
        else:
            out = v.flips[:, None] * apply_qt(v.f, y)
        out = out.T if right else out
    else:
        dense = v.T if mode.endswith("transpose") else v
        out = x @ dense if right else dense @ x
    return out.ravel() if vec else out


def rurv_haar(a, rng=None):
    """Randomized URV with dense Haar mixing: QR of A @ V.T."""
    a = as_matrix(a)
    v = haar_sample(a.shape[1], rng)
    return UrvFactorization(u=house_qr(a @ v.T), v=v)


def _mix_and_sort(a, cols, num_mixes, rng):
    """Mix the columns of A and sort them; return (v, block).

    The mixed columns are ordered by decreasing 2-norm (stable), and that
    order is folded into v as its presort.  block holds the leading ``cols``
    of the sorted columns, gathered once: the part of A V.T a caller factors.
    """
    v = ros_sample(a.shape[1], num_mixes, rng)
    mixed = ros_apply(v, a, "right-transpose")
    norms = np.linalg.norm(mixed, axis=0)
    v.presort = np.argsort(-norms, kind="stable")
    return v, np.take(mixed, v.presort[:cols], axis=1)


def rurv_ros(a, num_mixes=1, rng=None):
    """Randomized URV with fast ROS mixing.

    The columns of A are mixed by the implicit operator, sorted by
    decreasing 2-norm (stable, so ties keep their original order), and the
    sorted matrix is factored by unpivoted QR.  The sorting permutation is
    folded into the returned operator, so U @ R @ V reproduces A.
    """
    # rurv_ros_partial validates A; default=0 lets a scalar reach that check
    return rurv_ros_partial(a, min(np.shape(a), default=0), num_mixes, rng)


def rurv_ros_partial(a, k, num_mixes=1, rng=None):
    """Rank-k partial RURV: identical mixing, only k elimination steps.

    All n sorted columns are factored, so with k = min(m, n) this is
    rurv_ros by construction: rurv_ros calls it with that k.  Rows of ``r``
    past the first k hold the unreduced trailing block rather than zeros.
    """
    a = as_matrix(a)
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"target rank must lie in [1, {min(m, n)}], got {k}")
    rng = np.random.default_rng(rng)
    v, block = _mix_and_sort(a, n, num_mixes, rng)
    return UrvFactorization(u=house_qr(block, steps=k), v=v)


def rvlu_ros(a, num_mixes=1, rng=None):
    """Randomized VLU: mix the rows of A, then QR the transpose.

    With hat(A) = V A, the unpivoted QR hat(A).T = Q R transposes into
    hat(A) = L U where L = R.T and U = Q.T, so A = V.T L U.  No presort is
    applied; row mixing alone is what the minimum-norm solver needs.
    """
    a = as_matrix(a)
    rng = np.random.default_rng(rng)
    v = ros_sample(a.shape[0], num_mixes, rng)
    mixed = ros_apply(v, a, "left")
    return VluFactorization(u=house_qr(mixed.T), v=v)


def urv_reconstruct(fac):
    """Multiply U R V back together (u.steps rows of R for partial runs).

    With k = u.steps this is A_k = U [R_k; 0] V = U [R_k V; 0], R_k the
    first k rows of R: V unmixes only those k rows, at the cost of the
    rank, and U acts on those k rows alone (apply_q takes them as
    [R_k V; 0]).  For a full factorization k = min(m, n) and A_k = A.
    R_k is read from the packed factor, whose first k rows hold it on and
    above the diagonal.
    """
    k = fac.u.steps
    return apply_q(fac.u, mix_apply(fac.v, np.triu(fac.u.packed[:k]), "right"))


def vlu_reconstruct(fac):
    """Multiply V.T L U back together, as the transpose of A.T = Q R V."""
    return urv_reconstruct(fac).T
