"""Dense Householder QR kernels, triangular solves, and a one-sided Jacobi SVD.

Everything here works on plain float64 ndarrays.  Q factors are kept in the
packed reflector form produced by LAPACK-style factorizations: the upper
triangle of ``packed`` holds R, the strict lower triangle holds the reflector
tails (the leading 1 of each reflector is implicit), and ``taus`` holds the
scalar coefficients.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, SingularMatrixError

_EPS = float(np.finfo(np.float64).eps)
_SQRT_EPS = float(np.sqrt(_EPS))
_TINY = float(np.finfo(np.float64).tiny)
# Reflectors are grouped into panels of this many columns and each panel is
# applied at once in compact WY form (Schreiber and Van Loan 1989), as LAPACK's
# dgeqrf/dlarft/dlarfb do.
_PANEL = 64
# A panel is factored recursively, in halves down to leaves of at most _LEAF
# columns (Elmroth and Gustavson 2000), when it has at least _RECURSE_ROWS
# rows; a shorter panel is one leaf, since on few rows the per-column loop
# costs less than the joins.
_LEAF = 16
_RECURSE_ROWS = 128
# One-sided Jacobi gives up after this many sweeps.
_MAX_SWEEPS = 30


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

    The T factor of each panel's compact WY form is kept privately: house_qr
    stores those it formed, and the first apply forms the others.  A factor
    must not be changed after it has been applied.
    """

    packed: np.ndarray
    taus: np.ndarray
    perm: np.ndarray | None = None
    _t: list | None = field(default=None, repr=False, compare=False)

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
    ``sweeps`` is the number of Jacobi sweeps that produced the result.
    """

    sigma: np.ndarray
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    sweeps: int = 0


def _householder(x):
    """Turn the vector x into a Householder reflector in place; return tau.

    Afterwards x[0] holds beta, the entry the reflector leaves where x was,
    and x[1:] holds the reflector's tail (its leading 1 is implicit), so that
    (I - tau v v.T) x = beta e_1.  A vector whose tail is already zero gets
    tau = 0 and is left alone.
    """
    alpha = x[0]
    tail = x[1:]
    tail_norm = np.linalg.norm(tail)
    if tail_norm == 0.0:
        return 0.0
    # Sign of beta is chosen opposite to alpha so alpha - beta cannot cancel.
    beta = -np.copysign(np.hypot(alpha, tail_norm), alpha)
    tau = (beta - alpha) / beta
    tail /= alpha - beta
    x[0] = beta
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
    HouseholderQR, keeping each panel factor T that the factorization
    formed on the way (see _node_t)
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
    ts = []
    for j0 in range(0, steps, _PANEL):
        # The panel keeps the width a full run gives it even when ``steps``
        # ends inside it, and its missing reflectors are zero in V and T, so
        # every product inside it has the same shape as in the full run.
        # BLAS rounds an entry differently when the shapes differ, and a
        # partial run would then not be a bit-for-bit prefix of the full one.
        j1 = min(j0 + _PANEL, n)
        if j1 == n and _is_leaf(m, j0, j1):
            # nothing trails the last panel: its T waits for an apply
            _factor_leaf(packed, taus, j0, j1)
            ts.append(None)
            continue
        t = _node_t(packed, taus, j0, j1, factor=True)
        ts.append(t)
        if j1 < n:
            v = _reflectors(packed, steps, j0, j1)
            trailing = packed[j0:, j1:]
            trailing -= v @ (t.T @ (v.T @ trailing))
    return HouseholderQR(packed=packed, taus=taus, _t=ts)


def house_qrcp(a):
    """Householder QR with column pivoting: A[:, perm] = Q R.

    The pivot at each step is the trailing column of largest 2-norm, ties
    broken by the lowest original index.  Squared norms are downdated after
    each step and recomputed exactly once a downdated value falls to
    sqrt(eps) times the last exactly computed reference, the test of
    LAPACK's dlaqp2/dlaqps (tol3z; Drmač and Bujanović 2008): below that the
    downdate has cancelled half of the reference's digits, and the pivots
    after a rank drop would be chosen from its rounding errors.

    The factorization is blocked as in LAPACK's dgeqp3/dlaqps (Quintana-Orti,
    Sun and Bischof 1998).  Within a panel of up to _PANEL steps the trailing
    block is left as it was, and the panel's reflectors V are accumulated
    with F = A.T V T, so that the block after them is A - V F.T.  Each step
    brings only its pivot column up to date, reflects it, updates only its
    own row of R (from which the norms are downdated), and adds one column
    to F.  One matrix product A -= V F.T then updates the trailing block.  A
    norm that goes stale ends the panel early; it is recomputed from its
    updated column before the next pivot is chosen, so in exact arithmetic
    the pivots are the ones an unblocked factorization would choose.
    """
    a = as_matrix(a)
    m, n = a.shape
    kmax = min(m, n)
    packed = a.copy()
    taus = np.zeros(kmax)
    perm = np.arange(n)
    norms2 = np.einsum("ij,ij->j", packed, packed)
    # a downdated squared norm below floor2 is recomputed
    floor2 = _SQRT_EPS * norms2
    j = 0
    while j < kmax:
        j0 = j
        # ft[k] is column k of F, over columns j0 .. n-1 of A.
        ft = np.zeros((min(_PANEL, kmax - j0), n - j0))
        stale = None
        # F stays zero, and so do the updates it drives, while every tau of
        # the panel is 0, as on a triangular input
        live = False
        while j < j0 + len(ft) and stale is None:
            k = j - j0
            piv = j + int(np.argmax(norms2[j:]))
            if piv != j:
                packed[:, [j, piv]] = packed[:, [piv, j]]
                ft[:k, [k, piv - j0]] = ft[:k, [piv - j0, k]]
                for vec in (norms2, floor2, perm):
                    vec[j], vec[piv] = vec[piv], vec[j]
            v = packed[j:, j]
            if live:
                v -= packed[j:, j0:j] @ ft[:k, k]
            taus[j] = tau = _householder(v)
            live = live or tau != 0.0
            if j + 1 < n:
                beta, v[0] = v[0], 1.0
                if tau:
                    # F[:, k] = tau (A.T v - F V.T v), A as the panel started;
                    # w holds V.T v, then v.T v, then A.T v
                    w = v @ packed[j:, j0:]
                    fk = ft[k, k + 1 :]
                    np.subtract(w[k + 1 :], w[:k] @ ft[:k, k + 1 :], out=fk)
                    fk *= tau
                row = packed[j, j + 1 :]
                if live:
                    row -= packed[j, j0 : j + 1] @ ft[: k + 1, k + 1 :]
                v[0] = beta
                norms2[j + 1 :] -= row * row
                lost = norms2[j + 1 :] < floor2[j + 1 :]
                if np.any(lost):
                    stale = j + 1 + np.flatnonzero(lost)
            j += 1
        if j < n and live:
            packed[j:, j:] -= packed[j:, j0:j] @ ft[: j - j0, j - j0 :]
        if stale is not None:
            block = packed[j:, stale]
            norms2[stale] = np.einsum("ij,ij->j", block, block)
            floor2[stale] = _SQRT_EPS * norms2[stale]
    return HouseholderQR(packed=packed, taus=taus, perm=perm)


def extract_r(f):
    """R as a dense (m, n) array with exact zeros below the diagonal.

    For a partial factorization only the first ``f.steps`` columns are
    cleared below the diagonal; the trailing block keeps the values the
    reflectors left there.
    """
    p, k = f.packed, f.steps
    r = np.empty_like(p)
    r[:, :k] = np.triu(p[:, :k])
    r[:, k:] = p[:, k:]
    return r


def _reflectors(packed, steps, j0, j1):
    """V of the reflectors in columns j0..j1-1, on rows j0 and below.

    V is unit lower trapezoidal, read from the reflector tails stored in
    ``packed``; columns at or past ``steps`` (j0 < steps) are zero
    reflectors.
    """
    done = min(steps, j1) - j0
    v = packed[j0:, j0:j1].copy()
    # only the top square holds entries on or above the diagonal
    v[: j1 - j0] = np.tril(v[: j1 - j0], -1)
    v[:, done:] = 0.0
    v[np.arange(done), np.arange(done)] = 1.0
    return v


def _is_leaf(m, j0, j1):
    return j1 - j0 <= _LEAF or m - j0 < _RECURSE_ROWS


def _factor_leaf(packed, taus, j0, j1):
    """Reflect columns j0 .. up to len(taus) one by one, each updating the rest of the leaf."""
    done = min(j1, len(taus)) - j0
    # work on the transpose, where each column is one contiguous row
    leaf = packed[j0:, j0:j1].T.copy()
    for j in range(done):
        taus[j0 + j] = tau = _householder(leaf[j, j:])
        rest = leaf[j + 1 :, j:]
        if tau and rest.size:
            tail = leaf[j, j + 1 :]
            w = rest[:, 0] + rest[:, 1:] @ tail
            rest[:, 0] -= tau * w
            rest[:, 1:] -= np.outer(w, tau * tail)
    packed[j0:, j0:j1] = leaf.T


def _node_t(packed, taus, j0, j1, factor):
    """T with H_j0 ... H_j1-1 = I - V T V.T, V = _reflectors(packed, len(taus), j0, j1).

    T is upper triangular and built on a fixed recursion tree (Elmroth and
    Gustavson 2000) that depends only on the node's shape: a leaf forms its
    T column by column as LAPACK's dlarft does; an inner node splits its
    columns in halves and joins their factors,
    T = [[T1, -T1 (V1.T V2) T2], [0, T2]].  Steps past len(taus) are zero
    reflectors, whose rows and columns of T are zero.

    With ``factor`` the node's columns are first reduced: a leaf reflects
    its columns one by one, an inner node factors its left half, updates
    the right half with the left half's compact WY, then factors the right
    half.  Since every T comes from this one tree, a T kept by house_qr and
    one formed later from the packed factor are bit-for-bit the same.
    """
    steps = len(taus)
    w = j1 - j0
    t = np.zeros((w, w))
    if j0 >= steps:
        return t
    if _is_leaf(packed.shape[0], j0, j1):
        if factor:
            _factor_leaf(packed, taus, j0, j1)
        v = _reflectors(packed, steps, j0, j1)
        g = v.T @ v
        for i in range(min(steps, j1) - j0):
            tau = taus[j0 + i]
            t[:i, i] = -tau * (t[:i, :i] @ g[:i, i])
            t[i, i] = tau
        return t
    mid = j0 + w // 2
    h = mid - j0
    t[:h, :h] = t1 = _node_t(packed, taus, j0, mid, factor)
    v1 = _reflectors(packed, steps, j0, mid)
    if factor:
        right = packed[j0:, mid:j1]
        right -= v1 @ (t1.T @ (v1.T @ right))
    if mid < steps:
        t[h:, h:] = t2 = _node_t(packed, taus, mid, j1, factor)
        t[:h, h:] = -t1 @ ((v1[h:].T @ _reflectors(packed, steps, mid, j1)) @ t2)
    return t


def _panel_ts(f):
    """The T of each panel of f, forming on first use those it does not hold."""
    n = f.packed.shape[1]
    starts = range(0, f.steps, _PANEL)
    if f._t is None:
        f._t = [None] * len(starts)
    for i, j0 in enumerate(starts):
        if f._t[i] is None:
            f._t[i] = _node_t(f.packed, f.taus, j0, min(j0 + _PANEL, n), factor=False)
    return f._t


def _apply_reflectors(f, b, transpose):
    packed, steps = f.packed, f.steps
    m = packed.shape[0]
    b = np.asarray(b, dtype=np.float64)
    vec = b.ndim == 1
    if vec:
        b = b[:, None]
    # Q.T needs every row of its operand; Q takes [b; 0] from any b that
    # covers the reflectors' leading rows
    live = b.shape[0]
    fewest = m if transpose else steps
    if b.ndim != 2 or not fewest <= live <= m:
        takes = m if transpose else f"{steps} to {m}"
        raise ValueError(f"operand has {live} rows, factorization takes {takes}")
    x = np.zeros((m, b.shape[1]))
    x[:live] = b
    panels = list(zip(range(0, steps, _PANEL), _panel_ts(f)))
    # Q = H_0 H_1 ... H_steps-1: Q.T takes the panels first to last with T.T,
    # Q takes them last to first with T.
    for j0, t in panels if transpose else reversed(panels):
        d = min(j0 + _PANEL, steps) - j0
        v = _reflectors(packed, steps, j0, j0 + d)
        t = t[:d, :d]
        rows = x[j0:]
        # rows past ``live`` are still zero and add nothing to V.T rows; the
        # first panel's update fills them, so later panels see full rows
        w = v[: live - j0].T @ rows[: live - j0]
        rows -= v @ ((t.T if transpose else t) @ w)
        live = m
    return x[:, 0] if vec else x


def apply_qt(f, b):
    """Compute Q.T @ b panel by panel in compact WY form (Q never formed)."""
    return _apply_reflectors(f, b, transpose=True)


def apply_q(f, b):
    """Compute Q @ b panel by panel in compact WY form (Q never formed).

    b may have fewer rows than Q, down to f.steps: it then stands for b
    padded with zero rows to Q's height, [b; 0], and those zero rows are
    never formed or multiplied.  The result always has Q's height.
    """
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
    # the leading cols columns of Q are Q [I; 0]
    return apply_q(f, np.eye(cols))


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


def _round_robin_rounds(n):
    """Tournament schedule over n indices: the real pairs of each round.

    An odd n is padded with one dummy index, so there are n_pad - 1 rounds
    (n_pad = n rounded up to even) and every unordered pair of real indices
    appears in exactly one of them.  Each round is a (k, 2) array of
    disjoint pairs; a pair that meets the dummy index is dropped.
    """
    n_pad = n + n % 2
    players = list(range(n_pad))
    half = n_pad // 2
    rounds = []
    for _ in range(n_pad - 1):
        pairs = np.stack([players[:half], players[half:][::-1]], axis=1)
        rounds.append(pairs[(pairs < n).all(axis=1)])
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def jacobi_svd(a, want_vectors=True):
    """One-sided Jacobi SVD of a tall-or-square matrix.

    Columns are orthogonalized pairwise with plane rotations, sweeping a
    round-robin ordering until every pairwise cosine is at most n*eps, with
    a hard cap of _MAX_SWEEPS sweeps.  This costs more than a
    bidiagonalization SVD but computes small singular values with much
    better relative accuracy, which is what the rank-revealing diagnostics
    need.

    Each round is one batched step.  The columns of A are stored as the rows
    of a work array, each followed by the same row of the identity when
    vectors are wanted, so that one product rotates U and V together.  The
    round's disjoint pairs are gathered once into a (k, 2, row) stack; three
    row-wise dot products give every pair's 2 x 2 Gram entries, one batched
    2 x 2 product rotates the stack (the identity for a pair already
    orthogonal), and the result is scattered back.

    Parameters
    ----------
    a : (m, n) array with m >= n (pass the transpose for wide input)
    want_vectors : bool
        When False only ``sigma`` is computed.

    Returns
    -------
    SvdResult, whose ``sweeps`` counts the sweeps run, the last of which
    found every pair orthogonal (0 for a single column)

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
    w = np.hstack([a.T, np.eye(n)]) if want_vectors else a.T.copy()
    sweeps = 0
    if n > 1:
        tol = n * _EPS
        rounds = _round_robin_rounds(n)
        converged = False
        for sweeps in range(1, _MAX_SWEEPS + 1):
            rotated = False
            for pairs in rounds:
                p = w[pairs]
                up, uq = p[:, 0, :m], p[:, 1, :m]
                alpha = np.einsum("ij,ij->i", up, up)
                beta = np.einsum("ij,ij->i", uq, uq)
                gamma = np.einsum("ij,ij->i", up, uq)
                active = np.abs(gamma) > tol * np.sqrt(alpha * beta)
                if not np.any(active):
                    continue
                rotated = True
                al, be, ga = alpha[active], beta[active], gamma[active]
                zeta = (be - al) / (2.0 * ga)
                sign = np.where(zeta >= 0.0, 1.0, -1.0)
                t = sign / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                # [new p; new q] = [[c, -s], [s, c]] @ [p; q]
                j = np.zeros((len(pairs), 2, 2))
                j[:, 0, 0] = j[:, 1, 1] = 1.0
                j[active] = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
                w[pairs] = j @ p
            if not rotated:
                converged = True
                break
        if not converged:
            u = w[:, :m]
            gram = np.abs(u @ u.T)
            norms = np.sqrt(np.diagonal(gram))
            scale = np.outer(norms, norms)
            np.fill_diagonal(gram, 0.0)
            worst = float(np.max(gram / np.where(scale > 0.0, scale, 1.0)))
            raise ConvergenceError(
                f"Jacobi sweeps did not converge; largest cosine {worst:.3e}",
                residual=worst,
            )
    sigma = np.linalg.norm(w[:, :m], axis=1)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    if not want_vectors:
        return SvdResult(sigma=sigma, sweeps=sweeps)
    w = w[order]
    nonzero = sigma > 0.0
    w[nonzero, :m] /= sigma[nonzero, None]
    return SvdResult(sigma=sigma, u=w[:, :m].T.copy(), v=w[:, m:].T.copy(), sweeps=sweeps)
