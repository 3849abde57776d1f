"""Seeded generators for the structured test-matrix families.

Each generator is a pure function of its parameters and the RNG stream, so a
fixed seed reproduces the matrix bit for bit.  Families built from a
prescribed singular-value profile return the true profile alongside the
matrix; everything downstream can then measure factorization quality against
exact values instead of a second SVD.
"""

import math
from typing import NamedTuple

import numpy as np

from .rurv import haar_sample


class GeneratedMatrix(NamedTuple):
    a: np.ndarray
    sigma: np.ndarray


def gen_prescribed(m, n, sigma, rng=None):
    """Matrix with the given singular values and Haar-random U, V."""
    sigma = np.asarray(sigma, dtype=np.float64)
    r = sigma.size
    if r < 1 or r > min(m, n):
        raise ValueError(f"need between 1 and {min(m, n)} singular values, got {r}")
    if np.any(sigma < 0.0) or np.any(np.diff(sigma) > 0.0):
        raise ValueError("singular values must be non-negative and non-increasing")
    rng = np.random.default_rng(rng)
    u = haar_sample(m, rng)[:, :r]
    v = haar_sample(n, rng)[:, :r]
    return (u * sigma) @ v.T


def gen_kahan(m, c=0.1, tau=1e-7):
    """Graded upper-triangular matrix on which column pivoting never triggers.

    Row i is scaled by s**i (s = sqrt(1 - c*c)) and the strict upper
    triangle holds -c before scaling.  The tau perturbation multiplies
    column j by (1 - tau)**j, which makes the column norms strictly
    decreasing so a norm-pivoted QR keeps the identity permutation.
    """
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must lie in [0, 1), got {tau}")
    s = math.sqrt(1.0 - c * c)
    tri = np.eye(m) + np.triu(np.full((m, m), -c), 1)
    rows = s ** np.arange(m)
    cols = (1.0 - tau) ** np.arange(m)
    return rows[:, None] * tri * cols


def gen_gap(m, k, gap=1e-10, rng=None, rho=0.99):
    """Slowly decaying spectrum with one sharp drop after position k.

    sigma starts at 1 and decays by rho per step; the value after position
    k is gap times the value at k, so the adjacent ratio across the drop is
    exactly 1/gap.  Returns the matrix and the true profile.
    """
    if not 1 <= k < m:
        raise ValueError(f"gap position must lie in [1, {m - 1}], got {k}")
    if gap <= 0.0:
        raise ValueError(f"gap must be positive, got {gap}")
    decay = rho ** np.arange(m)
    sigma = np.empty(m)
    sigma[:k] = decay[:k]
    sigma[k:] = gap * decay[k - 1 : m - 1]
    return GeneratedMatrix(gen_prescribed(m, m, sigma, rng), sigma)


def gen_devils_stairs(m=128, stair_len=16, jump=0.1, rng=None):
    """Piecewise-constant staircase spectrum; each stair is jump times the last."""
    if m < 1 or stair_len < 1:
        raise ValueError("order and stair length must be positive")
    if not 0.0 < jump < 1.0:
        raise ValueError(f"jump must lie strictly between 0 and 1, got {jump}")
    sigma = jump ** (np.arange(m) // stair_len).astype(np.float64)
    return GeneratedMatrix(gen_prescribed(m, m, sigma, rng), sigma)


def gen_correlated(m, n, p, e, rng=None):
    """Gaussian matrix with p pairs of nearly duplicated columns.

    Draws an m x (n - p) Gaussian block, appends copies of p distinct
    columns, shuffles all n columns, and adds e times fresh Gaussian noise.
    With small e the duplicated pairs stay correlated above 0.999 while
    every other pair stays near zero.
    """
    if p < 0 or n - p < p:
        raise ValueError(f"need 0 <= p and 2p <= n, got p={p}, n={n}")
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {(m, n)}")
    rng = np.random.default_rng(rng)
    a = rng.standard_normal((m, n - p))
    if p:
        dup = rng.choice(n - p, size=p, replace=False)
        a = np.concatenate((a, a[:, dup]), axis=1)
    a = a[:, rng.permutation(n)]
    if e != 0.0:
        a = a + e * rng.standard_normal((m, n))
    return a


def gen_condition(m, n, kappa, rng=None):
    """Matrix with geometrically spaced singular values from 1 down to 1/kappa."""
    if kappa < 1.0:
        raise ValueError(f"condition number must be at least 1, got {kappa}")
    r = min(m, n)
    if r > 1:
        sigma = kappa ** (-np.arange(r) / (r - 1.0))
    else:
        sigma = np.ones(1)
    return GeneratedMatrix(gen_prescribed(m, n, sigma, rng), sigma)


def gen_heavytail(m=250, n=250, rng=None):
    """Matrix whose column norms vary over orders of magnitude.

    Entries are standard Gaussian plus exp(10 u) with u uniform, each column
    is scaled by exp(2 w) with w uniform per column, and the whole matrix is
    divided by its mean column norm, so the returned matrix has mean column
    norm exactly 1 up to rounding.
    """
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {(m, n)}")
    rng = np.random.default_rng(rng)
    a = rng.standard_normal((m, n)) + np.exp(10.0 * rng.random((m, n)))
    a *= np.exp(2.0 * rng.random((1, n)))
    a /= np.linalg.norm(a, axis=0).mean()
    return a
