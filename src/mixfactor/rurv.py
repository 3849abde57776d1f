"""Randomized URV and VLU factorizations.

A = U R V with orthogonal U, V and upper-triangular R.  U always stays in
packed Householder form; V is either a dense Haar-distributed orthogonal
matrix or an implicit RosOperator.  The VLU variant mixes rows instead and
factors the transpose, giving A = V.T L U for minimum-norm solves.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import HouseholderQR, apply_q, as_matrix, extract_r, form_q, house_qr
from .transforms import RosOperator, ros_apply, ros_sample


@dataclass
class UrvFactorization:
    """A = U R V.

    u : packed Householder factorization whose Q is U; u.steps is the
        number of elimination steps performed
    r : full-height (m, n) triangular factor; after a partial
        factorization rows >= u.steps still hold the unreduced trailing
        block
    v : dense orthogonal matrix or RosOperator
    """

    u: HouseholderQR
    r: np.ndarray
    v: "np.ndarray | RosOperator"


@dataclass
class VluFactorization:
    """A = V.T L U with L lower triangular and U having orthonormal rows.

    u is the packed QR of the mixed transpose; its thin Q, transposed, is U.
    """

    v: RosOperator
    l: np.ndarray
    u: HouseholderQR


def haar_sample(n, rng):
    """Draw an n x n orthogonal matrix from the Haar distribution.

    QR of a standard Gaussian matrix, with each Q column flipped so the
    implied R diagonal is non-negative.  Without that sign normalization the
    result would be biased by the factorization's sign convention rather
    than uniform over the orthogonal group.
    """
    rng = np.random.default_rng(rng)
    b = rng.standard_normal((n, n))
    f = house_qr(b)
    q = form_q(f, "full")
    flips = np.where(np.diagonal(f.packed) >= 0.0, 1.0, -1.0)
    return q * flips


def mix_apply(v, x, mode):
    """Apply a mixing handle (dense matrix or RosOperator) to x.

    Vectors are promoted to a single column (left modes) or row (right
    modes) and returned flat.
    """
    x = np.asarray(x, dtype=np.float64)
    vec = x.ndim == 1
    if vec:
        x = x[:, None] if mode.startswith("left") else x[None, :]
    if isinstance(v, RosOperator):
        out = ros_apply(v, x, mode)
    elif mode == "right-transpose":
        out = x @ v.T
    elif mode == "right":
        out = x @ v
    elif mode == "left":
        out = v @ x
    elif mode == "left-transpose":
        out = v.T @ x
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return out.ravel() if vec else out


def rurv_haar(a, rng=None):
    """Randomized URV with dense Haar mixing: QR of A @ V.T."""
    a = as_matrix(a)
    v = haar_sample(a.shape[1], rng)
    f = house_qr(a @ v.T)
    return UrvFactorization(u=f, r=extract_r(f), v=v)


def _mix_and_sort(a, num_mixes, rng):
    """Mix the columns of A; return (v, mixed, order).

    ``order`` lists the mixed columns by decreasing 2-norm (stable) and is
    also folded into v as its presort.  Callers gather the sorted columns
    they factor, mixed[:, order] or a leading part of it.
    """
    v = ros_sample(a.shape[1], num_mixes, rng)
    mixed = ros_apply(v, a, "right-transpose")
    norms = np.linalg.norm(mixed, axis=0)
    v.presort = np.argsort(-norms, kind="stable")
    return v, mixed, v.presort


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

    With k = min(m, n) this is rurv_ros by construction: rurv_ros calls it
    with that k.  Rows of ``r`` past the first k hold the unreduced trailing
    block rather than zeros.
    """
    a = as_matrix(a)
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"target rank must lie in [1, {min(m, n)}], got {k}")
    rng = np.random.default_rng(rng)
    v, mixed, order = _mix_and_sort(a, num_mixes, rng)
    f = house_qr(mixed[:, order], steps=k)
    return UrvFactorization(u=f, r=extract_r(f), v=v)


def rvlu_ros(a, num_mixes=1, rng=None):
    """Randomized VLU: mix the rows of A, then QR the transpose.

    With hat(A) = V A, the unpivoted QR hat(A).T = Q R transposes into
    hat(A) = L U where L = R.T and U = Q.T, so A = V.T L U.  No presort is
    applied; row mixing alone is what the minimum-norm solver needs.
    """
    a = as_matrix(a)
    m, n = a.shape
    rng = np.random.default_rng(rng)
    v = ros_sample(m, num_mixes, rng)
    mixed = ros_apply(v, a, "left")
    f = house_qr(mixed.T)
    l = extract_r(f)[: min(m, n), :].T
    return VluFactorization(v=v, l=l, u=f)


def urv_reconstruct(fac):
    """Multiply U R V back together (u.steps rows of R for partial runs)."""
    r = fac.r
    if fac.u.steps < r.shape[0]:
        r = r.copy()
        r[fac.u.steps :, :] = 0.0
    return mix_apply(fac.v, apply_q(fac.u, r), "right")


def vlu_reconstruct(fac):
    """Multiply V.T L U back together."""
    rows = fac.u.packed.shape[0]
    lt = fac.l.T
    padded = np.zeros((rows, lt.shape[1]))
    padded[: lt.shape[0]] = lt
    lu = apply_q(fac.u, padded).T
    return mix_apply(fac.v, lu, "left-transpose")
