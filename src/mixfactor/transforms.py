"""Fast orthonormal DCT-II/DCT-III and the implicit random mixing operator.

The DCTs ride on numpy's complex FFT (``np.fft``), one length-n transform
per DCT whatever the length: a reorder and a quarter-sample twiddle turn
the complex spectrum into the real cosine coefficients.

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
    """Quarter-sample twiddle and orthonormal weights for length n."""
    twiddle = np.exp(-1j * np.pi * np.arange(n) / (2 * n))
    weights = np.full(n, np.sqrt(2.0 / n))
    weights[0] = np.sqrt(1.0 / n)
    return twiddle, weights


def dct2(x, axis=-1):
    """Orthonormal DCT-II along ``axis``.

    Computed with one complex FFT of the same length: the input is reordered
    as (even entries, reversed odd entries) and the spectrum is rotated by a
    quarter-sample phase.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    y = np.moveaxis(x, axis, -1)
    v = np.concatenate((y[..., 0::2], y[..., 1::2][..., ::-1]), axis=-1)
    twiddle, weights = _dct_tables(n)
    spec = np.fft.fft(v, axis=-1)
    c = weights * np.real(twiddle * spec)
    return np.moveaxis(c, -1, axis)


def dct3(x, axis=-1):
    """Orthonormal DCT-III along ``axis``; the exact inverse of dct2."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    y = np.moveaxis(x, axis, -1)
    twiddle, weights = _dct_tables(n)
    c = y / weights
    spec = np.empty(c.shape, dtype=np.complex128)
    spec[..., 0] = c[..., 0]
    if n > 1:
        spec[..., 1:] = c[..., 1:] - 1j * c[..., :0:-1]
    spec *= np.conj(twiddle)
    v = np.real(np.fft.ifft(spec, axis=-1))
    out = np.empty_like(y)
    half = (n + 1) // 2
    out[..., 0::2] = v[..., :half]
    out[..., 1::2] = v[..., half:][..., ::-1]
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
    out = a.copy()
    if mode in ("right-transpose", "left"):
        for signs in v.signs[::-1]:
            out *= signs if axis == 1 else signs[:, None]
            out = dct2(out, axis=axis)
        if v.presort is not None:
            out = out[:, v.presort] if axis == 1 else out[v.presort, :]
    else:
        if v.presort is not None:
            gathered = out
            out = np.empty_like(gathered)
            if axis == 1:
                out[:, v.presort] = gathered
            else:
                out[v.presort, :] = gathered
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
