"""Fast orthonormal DCT-II/DCT-III and the implicit random mixing operator.

The DCTs ride on numpy's real FFT (``np.fft.rfft`` and ``irfft``), one
length-n transform per DCT whatever the length, which computes only the
n // 2 + 1 bins a real input has (Makhoul 1980): a reorder and a
quarter-sample twiddle turn that half spectrum into the n real cosine
coefficients.

A RosOperator represents the orthogonal mixing matrix

    V = P * (F D_1) (F D_2) ... (F D_N)

without ever forming it: F is the orthonormal DCT-II matrix, each D_i is a
random +-1 diagonal, and P is an optional permutation applied last (set by
the factorization layer after sorting mixed column norms).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix


def _dct_tables(n):
    """Quarter-sample twiddle and orthonormal weight of the n // 2 + 1 real-FFT bins.

    The weight of bin k is that of coefficient k, sqrt(1/n) for k = 0 and
    sqrt(2/n) otherwise, which is also that of coefficient n - k.
    """
    twiddle = np.exp(-1j * np.pi * np.arange(n // 2 + 1) / (2 * n))
    weights = np.full(twiddle.size, np.sqrt(2.0 / n))
    weights[0] = np.sqrt(1.0 / n)
    return twiddle, weights


def dct2(x, axis=-1):
    """Orthonormal DCT-II along ``axis``.

    Computed with one real FFT of the same length (Makhoul 1980): the input
    is reordered as (even entries, reversed odd entries), and with V its
    rfft and w_k = exp(-i pi k / 2n), coefficient k is Re(w_k V_k) for
    k <= n/2 and coefficient n - k is -Im(w_k V_k), by V's conjugate
    symmetry; the weights scale the twiddle.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    y = np.moveaxis(x, axis, -1)
    v = np.concatenate((y[..., 0::2], y[..., 1::2][..., ::-1]), axis=-1)
    twiddle, weights = _dct_tables(n)
    spec = np.fft.rfft(v, axis=-1)
    spec *= twiddle * weights
    # v is spent once transformed and takes the coefficients: every fresh
    # full-size array costs page faults on top of its pass
    half = twiddle.size
    v[..., :half] = spec.real
    np.negative(spec.imag[..., n - half : 0 : -1], out=v[..., half:])
    return np.moveaxis(v, -1, axis)


def dct3(x, axis=-1):
    """Orthonormal DCT-III along ``axis``; the exact inverse of dct2.

    dct2 run backwards through one inverse real FFT: with c_k the input
    divided by its weight, bin k of the half spectrum is
    (c_k - i c_(n-k)) conj(w_k), c_n taken as 0; then irfft and the
    inverse reorder.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    y = np.moveaxis(x, axis, -1)
    twiddle, weights = _dct_tables(n)
    half = twiddle.size
    spec = np.empty(y.shape[:-1] + (half,), dtype=np.complex128)
    spec.real = y[..., :half]
    spec.imag[..., 0] = 0.0
    # at even n the last bin is k = n/2, whose partner n - k is itself
    np.negative(y[..., : n - half : -1], out=spec.imag[..., 1:])
    spec *= np.conj(twiddle) / weights
    v = np.fft.irfft(spec, n=n, axis=-1)
    out = np.empty_like(y)
    evens = (n + 1) // 2
    out[..., 0::2] = v[..., :evens]
    out[..., 1::2] = v[..., evens:][..., ::-1]
    return np.moveaxis(out, -1, axis)


@dataclass
class RosOperator:
    """Implicit mixing matrix V = P * (F D_1) ... (F D_N).

    signs holds the D_i diagonals as an (num_mixes, n) array of +-1.0;
    presort holds the permutation P as an index array (row k of V*X is row
    presort[k] of the unpermuted product), or None before it is assigned.
    """

    n: int
    signs: np.ndarray
    presort: np.ndarray | None = None


def ros_sample(n, num_mixes, rng):
    """Draw the sign diagonals for a fresh mixing operator (no presort yet)."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if num_mixes < 1:
        raise ValueError(f"num_mixes must be positive, got {num_mixes}")
    rng = np.random.default_rng(rng)
    signs = 2.0 * rng.integers(0, 2, size=(num_mixes, n)).astype(np.float64) - 1.0
    return RosOperator(n=n, signs=signs)


_ROS_MODES = ("right-transpose", "right", "left", "left-transpose")


def ros_apply(v, a, mode):
    """Apply the mixing operator to a matrix without materializing it.

    mode selects which product is formed:
      "right-transpose" -> A @ V.T   (mix the columns of A)
      "right"           -> A @ V     (undo "right-transpose")
      "left"            -> V @ A     (mix the rows of A)
      "left-transpose"  -> V.T @ A   (undo "left")
    """
    if mode not in _ROS_MODES:
        raise ValueError(f"mode must be one of {_ROS_MODES}, got {mode!r}")
    a = as_matrix(a)
    axis = 1 if mode.startswith("right") else 0
    if a.shape[axis] != v.n:
        raise ValueError(f"operand size {a.shape[axis]} along axis {axis} does not match operator dimension {v.n}")
    if mode in ("right-transpose", "left"):
        out = a
        for signs in v.signs[::-1]:
            out = dct2(out * (signs if axis == 1 else signs[:, None]), axis=axis)
        if v.presort is not None:
            out = np.take(out, v.presort, axis=axis)
    else:
        # a is only read: dct3 returns a new array before the signs scale it.
        # The presort is undone by a gather with the inverse permutation,
        # which numpy runs several times faster than the scatter
        # out[:, v.presort] = a on a C-ordered block.
        out = a if v.presort is None else np.take(a, np.argsort(v.presort), axis=axis)
        for signs in v.signs:
            out = dct3(out, axis=axis)
            out *= signs if axis == 1 else signs[:, None]
    return out


def ros_dense(v, limit=4096):
    """Materialize the operator as a dense (n, n) matrix, for testing only."""
    if v.n > limit:
        raise ValueError(f"refusing to materialize a {v.n} x {v.n} mixing matrix (limit {limit})")
    return ros_apply(v, np.eye(v.n), "left")


class ColumnNormStats(NamedTuple):
    mean: float
    stdev: float
    min: float
    max: float


def column_norm_stats(a):
    """Mean, sample stdev, min, and max of the column 2-norms of ``a``."""
    a = as_matrix(a)
    norms = np.linalg.norm(a, axis=0)
    stdev = float(norms.std(ddof=1)) if norms.size > 1 else 0.0
    return ColumnNormStats(float(norms.mean()), stdev, float(norms.min()), float(norms.max()))
