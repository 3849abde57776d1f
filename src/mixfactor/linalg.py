"""Dense Householder QR kernels, triangular solves, and a one-sided Jacobi SVD.

Everything here works on plain float64 ndarrays.  Q factors are kept in the
packed reflector form produced by LAPACK-style factorizations: the upper
triangle of ``packed`` holds R, the strict lower triangle holds the reflector
tails (the leading 1 of each reflector is implicit), and ``taus`` holds the
scalar coefficients.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularMatrixError

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
# Rank-1 updates are applied in row chunks of about this many entries, so the
# outer-product temporary stays cache-sized.  Every entry still sees the same
# product and subtraction, so chunking leaves the results bit-identical.
_UPDATE_CHUNK = 1 << 16
# Reflectors are grouped into panels of this many columns and each panel is
# applied at once in compact WY form (Schreiber and Van Loan 1989), as LAPACK's
# dgeqrf/dlarft/dlarfb do.
_PANEL = 64


def as_matrix(a):
    """Validate and return ``a`` as a finite float64 matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
    if min(a.shape) < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


@dataclass
class HouseholderQR:
    """Packed QR factorization: A (or A with permuted columns) = Q R.

    packed : (m, n) array, R in the upper triangle, reflector tails below it
    taus   : one coefficient per completed elimination step; each value lies
             in [0, 2], with 0 marking a step that needed no reflection
    perm   : 0-based source index of each factored column, present only for
             the pivoted factorization (A[:, perm] = Q R)
    """

    packed: np.ndarray
    taus: np.ndarray
    perm: np.ndarray | None = None

    @property
    def shape(self):
        return self.packed.shape

    @property
    def steps(self):
        return len(self.taus)


@dataclass
class SvdResult:
    """Singular values (non-increasing) and optional singular vectors.

    When vectors are present, A = u @ diag(sigma) @ v.T.  Columns whose
    singular value is exactly zero are left as zero vectors in ``u``.
    """

    sigma: np.ndarray
    u: np.ndarray | None = None
    v: np.ndarray | None = None


def _rank1_subtract(block, u, w):
    """block -= outer(u, w), one cache-sized chunk of rows at a time."""
    rows = max(1, _UPDATE_CHUNK // max(w.size, 1))
    for i in range(0, u.size, rows):
        block[i : i + rows] -= np.outer(u[i : i + rows], w)


def _reflect_column(packed, j, stop):
    """Eliminate packed[j+1:, j] with a Householder reflector.

    Stores the reflector tail in packed[j+1:, j], the new R diagonal entry in
    packed[j, j], applies the reflector to columns j+1 .. stop-1, and returns
    tau.  A column that is already triangular gets tau = 0 and is left alone.
    """
    alpha = packed[j, j]
    tail = packed[j + 1 :, j]
    tail_norm = np.linalg.norm(tail)
    if tail_norm == 0.0:
        return 0.0
    # Sign of beta is chosen opposite to alpha so alpha - beta cannot cancel.
    beta = -np.copysign(np.hypot(alpha, tail_norm), alpha)
    tau = (beta - alpha) / beta
    tail /= alpha - beta
    packed[j, j] = beta
    rest = packed[j:, j + 1 : stop]
    if rest.size:
        w = rest[0] + tail @ rest[1:]
        rest[0] -= tau * w
        _rank1_subtract(rest[1:], tau * tail, w)
    return tau


def house_qr(a, steps=None):
    """Unpivoted Householder QR.

    Parameters
    ----------
    a : (m, n) array
    steps : int, optional
        Number of elimination steps to perform, between 1 and min(m, n).
        Defaults to min(m, n).  A partial factorization leaves the trailing
        block of ``packed`` exactly as the reflectors produced it.

    Returns
    -------
    HouseholderQR
    """
    a = as_matrix(a)
    m, n = a.shape
    kmax = min(m, n)
    if steps is None:
        steps = kmax
    if not 1 <= steps <= kmax:
        raise ValueError(f"steps must lie in [1, {kmax}], got {steps}")
    packed = a.copy()
    taus = np.zeros(steps)
    for j0 in range(0, steps, _PANEL):
        # The panel keeps the width a full run gives it even when ``steps``
        # ends inside it, and its missing reflectors are zero in V and T, so
        # every product below has the same shape as in the full run.  BLAS
        # rounds an entry differently when the shapes differ, and a partial
        # run would then not be a bit-for-bit prefix of the full one.
        j1 = min(j0 + _PANEL, n)
        for j in range(j0, min(j1, steps)):
            taus[j] = _reflect_column(packed, j, j1)
        if j1 < n:
            v, t = _compact_wy(packed, taus, j0, j1)
            trailing = packed[j0:, j1:]
            trailing -= v @ (t.T @ (v.T @ trailing))
    return HouseholderQR(packed=packed, taus=taus)


def house_qrcp(a):
    """Householder QR with column pivoting: A[:, perm] = Q R.

    The pivot at each step is the trailing column of largest 2-norm, ties
    broken by the lowest original index.  Squared norms are downdated after
    each step and recomputed exactly once a downdated value has lost half of
    its bits against the last exactly computed reference.
    """
    a = as_matrix(a)
    m, n = a.shape
    kmax = min(m, n)
    packed = a.copy()
    taus = np.zeros(kmax)
    perm = np.arange(n)
    norms2 = np.einsum("ij,ij->j", packed, packed)
    ref2 = norms2.copy()
    for j in range(kmax):
        piv = j + int(np.argmax(norms2[j:]))
        if piv != j:
            packed[:, [j, piv]] = packed[:, [piv, j]]
            norms2[[j, piv]] = norms2[[piv, j]]
            ref2[[j, piv]] = ref2[[piv, j]]
            perm[[j, piv]] = perm[[piv, j]]
        taus[j] = _reflect_column(packed, j, n)
        if j + 1 < n:
            row = packed[j, j + 1 :]
            norms2[j + 1 :] -= row * row
            stale = norms2[j + 1 :] < _EPS * ref2[j + 1 :]
            if np.any(stale):
                cols = j + 1 + np.flatnonzero(stale)
                block = packed[j + 1 :, cols]
                fresh = np.einsum("ij,ij->j", block, block)
                norms2[cols] = fresh
                ref2[cols] = fresh
    return HouseholderQR(packed=packed, taus=taus, perm=perm)


def extract_r(f):
    """R as a dense (m, n) array with exact zeros below the diagonal.

    For a partial factorization only the first ``f.steps`` columns are
    cleared below the diagonal; the trailing block keeps the values the
    reflectors left there.
    """
    r = f.packed.copy()
    m, n = r.shape
    i = np.arange(m)[:, None]
    j = np.arange(n)[None, :]
    r[(i > j) & (j < f.steps)] = 0.0
    return r


def _compact_wy(packed, taus, j0, j1):
    """V and T with H_j0 H_j0+1 ... H_j1-1 = I - V T V.T on rows j0 and below.

    V holds the unit lower-trapezoidal reflectors stored in packed[j0:, j0:j1];
    T is upper triangular (LAPACK's dlarft, forward and columnwise).  Steps
    past len(taus) are zero reflectors: their columns of V and T are zero.
    """
    done = min(len(taus), j1) - j0
    v = np.tril(packed[j0:, j0:j1], -1)
    v[:, done:] = 0.0
    v[np.arange(done), np.arange(done)] = 1.0
    g = v.T @ v
    t = np.zeros((j1 - j0, j1 - j0))
    for i in range(done):
        tau = taus[j0 + i]
        t[:i, i] = -tau * (t[:i, :i] @ g[:i, i])
        t[i, i] = tau
    return v, t


def _apply_reflectors(f, b, transpose):
    packed, steps = f.packed, f.steps
    m = packed.shape[0]
    b = np.asarray(b, dtype=np.float64)
    vec = b.ndim == 1
    if vec:
        b = b[:, None]
    if b.ndim != 2 or b.shape[0] != m:
        raise ValueError(f"operand has {b.shape[0]} rows, factorization has {m}")
    x = b.copy()
    panels = range(0, steps, _PANEL)
    # Q = H_0 H_1 ... H_steps-1: Q.T takes the panels first to last with T.T,
    # Q takes them last to first with T.
    for j0 in panels if transpose else reversed(panels):
        v, t = _compact_wy(packed, f.taus, j0, min(j0 + _PANEL, steps))
        rows = x[j0:]
        rows -= v @ ((t.T if transpose else t) @ (v.T @ rows))
    return x[:, 0] if vec else x


def apply_qt(f, b):
    """Compute Q.T @ b panel by panel in compact WY form (Q never formed)."""
    return _apply_reflectors(f, b, transpose=True)


def apply_q(f, b):
    """Compute Q @ b panel by panel in compact WY form (Q never formed)."""
    return _apply_reflectors(f, b, transpose=False)


def form_q(f, shape="full"):
    """Accumulate Q explicitly: (m, m) for "full", (m, min(m, n)) for "thin"."""
    m, n = f.packed.shape
    if shape == "full":
        cols = m
    elif shape == "thin":
        cols = min(m, n)
    else:
        raise ValueError(f'shape must be "full" or "thin", got {shape!r}')
    return apply_q(f, np.eye(m, cols))


def _check_diagonal(diag):
    bad = np.abs(diag) < _TINY
    if np.any(bad):
        raise SingularMatrixError(int(np.flatnonzero(bad)[0]))


def _substitute(t, b, lower):
    """Solve T y = b by substitution, top down if ``lower``, else bottom up."""
    t = np.asarray(t, dtype=np.float64)
    n = t.shape[0]
    if t.ndim != 2 or t.shape[1] != n:
        name = "forward_substitute" if lower else "back_substitute"
        raise ValueError(f"{name} needs a square matrix")
    diag = np.diagonal(t)
    _check_diagonal(diag)
    y = np.array(b, dtype=np.float64, copy=True)
    if y.shape[0] != n:
        raise ValueError(f"right-hand side has {y.shape[0]} rows, expected {n}")
    for i in range(n) if lower else range(n - 1, -1, -1):
        known = slice(0, i) if lower else slice(i + 1, n)
        y[i] = (y[i] - t[i, known] @ y[known]) / diag[i]
    return y


def back_substitute(r, b):
    """Solve R y = b for upper-triangular R.

    ``b`` may be a vector or a matrix of stacked right-hand sides.  Raises
    SingularMatrixError (carrying the 0-based index) on a zero or subnormal
    diagonal entry.
    """
    return _substitute(r, b, lower=False)


def forward_substitute(l, b):
    """Solve L y = b for lower-triangular L; mirror of back_substitute."""
    return _substitute(l, b, lower=True)


def _round_robin_rounds(n_pad):
    """Tournament schedule: n_pad - 1 rounds of disjoint index pairs.

    Every unordered pair out of n_pad indices appears exactly once.  n_pad
    must be even.
    """
    players = list(range(n_pad))
    half = n_pad // 2
    rounds = []
    for _ in range(n_pad - 1):
        ps = np.array(players[:half])
        qs = np.array(players[half:][::-1])
        rounds.append((ps, qs))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def jacobi_svd(a, want_vectors=True):
    """One-sided Jacobi SVD of a tall-or-square matrix.

    Columns are orthogonalized pairwise with plane rotations, sweeping a
    round-robin ordering until every pairwise cosine is at most n*eps, with
    a hard cap of 30 sweeps.  This costs more than a bidiagonalization SVD
    but computes small singular values with much better relative accuracy,
    which is what the rank-revealing diagnostics need.

    Parameters
    ----------
    a : (m, n) array with m >= n (pass the transpose for wide input)
    want_vectors : bool
        When False only ``sigma`` is computed.

    Raises
    ------
    ConvergenceError
        If the sweep cap is reached; the largest remaining cosine is
        attached as ``residual``.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError("jacobi_svd expects m >= n; factor the transpose instead")
    u = a.copy()
    v = np.eye(n) if want_vectors else None
    if n > 1:
        tol = n * _EPS
        n_pad = n + (n % 2)
        rounds = _round_robin_rounds(n_pad)
        converged = False
        for _ in range(30):
            rotated = False
            for ps, qs in rounds:
                real = (ps < n) & (qs < n)
                ps_r, qs_r = ps[real], qs[real]
                up = u[:, ps_r]
                uq = u[:, qs_r]
                alpha = np.einsum("ij,ij->j", up, up)
                beta = np.einsum("ij,ij->j", uq, uq)
                gamma = np.einsum("ij,ij->j", up, uq)
                denom = np.sqrt(alpha * beta)
                active = np.abs(gamma) > tol * denom
                if not np.any(active):
                    continue
                rotated = True
                ps_a, qs_a = ps_r[active], qs_r[active]
                al, be, ga = alpha[active], beta[active], gamma[active]
                zeta = (be - al) / (2.0 * ga)
                sign = np.where(zeta >= 0.0, 1.0, -1.0)
                t = sign / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                up_a = u[:, ps_a]
                uq_a = u[:, qs_a]
                u[:, ps_a] = c * up_a - s * uq_a
                u[:, qs_a] = s * up_a + c * uq_a
                if want_vectors:
                    vp = v[:, ps_a]
                    vq = v[:, qs_a]
                    v[:, ps_a] = c * vp - s * vq
                    v[:, qs_a] = s * vp + c * vq
            if not rotated:
                converged = True
                break
        if not converged:
            gram = np.abs(u.T @ u)
            norms = np.sqrt(np.diagonal(gram))
            scale = np.outer(norms, norms)
            np.fill_diagonal(gram, 0.0)
            worst = float(np.max(gram / np.where(scale > 0.0, scale, 1.0)))
            raise ConvergenceError(
                f"Jacobi sweeps did not converge; largest cosine {worst:.3e}",
                residual=worst,
            )
    sigma = np.linalg.norm(u, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    if not want_vectors:
        return SvdResult(sigma=sigma)
    u = u[:, order]
    v = v[:, order]
    nonzero = sigma > 0.0
    u[:, nonzero] /= sigma[nonzero]
    return SvdResult(sigma=sigma, u=u, v=v)
