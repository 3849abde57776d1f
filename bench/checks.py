"""Checks of every benchmark operation, made apart from the program.

Each check takes the inputs, a reference computed with numpy alone (never a
stored copy of earlier output), and the program's output, and returns a list
of problems; an empty list means the output passed.  Tolerances are set at
the rounding level of the computation, with their reasons given beside them.
"""

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Normwise backward error ||Ax - b|| / (||A||_2 ||x|| + ||b||) of a solve of a
# consistent system; a backward-stable solve sits near eps (about 3.5e-16 at
# 1000 x 1500), so 1e-14 leaves room for the size without hiding a solver
# that is only forward-accurate.
BACKWARD_TOL = 1e-14
# Normal-equations residual ||A.T (Ax - b)|| / (||A||_2 (||A||_2 ||x|| + ||b||))
# of a least-squares solve, the scale-free form of criterion 13's property.
NORMAL_TOL = 1e-14
# Relative distance of the minimum-norm solve to np.linalg.lstsq's solution;
# the wide benchmark systems have cond_2 near 10, so rounding gives ~1e-15.
MINNORM_TOL = 1e-12
# Interlacing: sigma_i(A) / sigma_i(R11) and sigma_j(R22) / sigma_(k+j)(A)
# are at least 1 for any orthogonal triangularization (criterion 9's bar).
INTERLACE_TOL = 1e-10

WIDE_METHODS = ("qr-basic", "qrcp", "rurv-haar-basic", "rurv-ros-basic", "rvlu-minnorm")
TALL_METHODS = ("qr-overdet", "rurv-ros-overdet")


def kahan_bound(m, c=0.1):
    """Lower bound on qrcp's largest sigma_i(A) / sigma_i(R11) on gen_kahan(m), split m - 1."""
    s = np.sqrt(1.0 - c * c)
    return 0.5 * c**3 * (1.0 + c) ** (m - 4) / s


def check_solve(method, a, a_norm2, b, x, x_ref=None):
    """Check one least-squares solution x of A x = b.

    a_norm2 is ||A||_2 from numpy; x_ref is np.linalg.lstsq's solution,
    needed for "rvlu-minnorm" only.
    """
    problems = []
    x = np.asarray(x, dtype=np.float64)
    m, n = a.shape
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        return [f"{method}: x has shape {x.shape} or is not finite"]
    residual = a @ x - b
    x_norm = np.linalg.norm(x)
    b_norm = np.linalg.norm(b)
    if method in TALL_METHODS:
        grad = np.linalg.norm(a.T @ residual) / (a_norm2 * (a_norm2 * x_norm + b_norm))
        if not grad <= NORMAL_TOL:
            problems.append(f"{method}: normal-equations residual {grad:.2e} > {NORMAL_TOL:.0e}")
        return problems
    eta = np.linalg.norm(residual) / (a_norm2 * x_norm + b_norm)
    if not eta <= BACKWARD_TOL:
        problems.append(f"{method}: backward error {eta:.2e} > {BACKWARD_TOL:.0e}")
    if method == "qr-basic" and np.any(x[m:] != 0.0):
        problems.append(f"qr-basic: {np.count_nonzero(x[m:])} nonzeros past the first {m} entries")
    if method == "qrcp" and np.count_nonzero(x) > m:
        problems.append(f"qrcp: {np.count_nonzero(x)} nonzeros, more than m = {m}")
    if method == "rvlu-minnorm":
        dev = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
        if not dev <= MINNORM_TOL:
            problems.append(f"rvlu-minnorm: {dev:.2e} from np.linalg.lstsq > {MINNORM_TOL:.0e}")
    return problems


def spectrum_slack(m, sigma_max):
    """Rounding allowance for a singular-value estimate of an m x m triangle.

    Householder QR is backward stable with columnwise error about m eps, so
    ||dA||_2 stays below m sqrt(m) eps ||A||_2; two passes and the mix are
    covered by the factor 8.
    """
    return 8.0 * m * np.sqrt(m) * EPS * sigma_max


def check_reveal(family, first, sigma_lapack, ratios_r11, ratios_r22, max_ratio_r11, r_values, l_values):
    """Check one rank-revealing diagnosis against np.linalg.svd's spectrum.

    Every interlacing ratio is at least 1; qrcp on a Kahan matrix reaches
    the Kahan bound; every R-value |R(i,i)| and L-value lies within
    [sigma_min, sigma_max] of A, to rounding.
    """
    problems = []
    label = f"{family}/{first}"
    ratios = np.concatenate((ratios_r11, ratios_r22))
    if not np.all(ratios >= 1.0 - INTERLACE_TOL):
        problems.append(f"{label}: interlacing ratio {np.min(ratios):.12f} < 1")
    m = sigma_lapack.size
    if family == "kahan" and first == "qrcp" and not max_ratio_r11 >= kahan_bound(m):
        problems.append(f"{label}: max ratio {max_ratio_r11:.3e} under the Kahan bound {kahan_bound(m):.3e}")
    slack = spectrum_slack(m, sigma_lapack[0])
    lo, hi = sigma_lapack[-1] - slack, sigma_lapack[0] + slack
    for name, values in (("R-value", r_values), ("L-value", l_values)):
        values = np.asarray(values)
        if values.size != m or not np.all((values >= lo) & (values <= hi)):
            problems.append(f"{label}: {name}s outside [{lo:.3e}, {hi:.3e}]")
    return problems


def check_spectrum(name, sigma, sigma_lapack):
    """Check an input's singular values (prescribed or computed) against numpy's."""
    slack = spectrum_slack(sigma_lapack.size, sigma_lapack[0])
    if sigma.shape != sigma_lapack.shape or not np.all(np.abs(sigma - sigma_lapack) <= slack):
        return [f"{name}: singular values differ from np.linalg.svd by more than {slack:.1e}"]
    return []


def check_lowrank(a, a_fro, k, tail, a_k, trailing_fro):
    """Check a rank-k approximation A_k of A from a partial URV.

    tail is the Eckart-Young error sqrt(sum_(i>k) sigma_i^2) from
    np.linalg.svd, which no rank-k matrix beats; and ||A - A_k||_F must
    equal the Frobenius norm of the unreduced trailing block of R, because
    U and V are orthogonal.  Both hold to max(m, n) eps ||A||_F.
    """
    problems = []
    err = np.linalg.norm(a - a_k)
    slack = max(a.shape) * EPS * a_fro
    if not err >= tail - slack:
        problems.append(f"rank-{k} error {err:.6e} below the Eckart-Young tail {tail:.6e}")
    if not abs(err - trailing_fro) <= slack:
        problems.append(f"rank-{k} error {err:.6e} differs from ||R22||_F = {trailing_fro:.6e}")
    return problems
