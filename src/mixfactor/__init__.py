"""Randomized URV factorizations with fast orthogonal mixing.

Column pivoting makes QR rank-revealing but serializes it; this package
replaces the pivoting with random orthogonal mixing (dense Haar or an
implicit DCT-and-signs operator), which preserves singular values exactly
and lets an unpivoted QR reveal rank with high probability.  On top of the
factorizations sit least-squares solvers for all three problem shapes,
rank-revealing diagnostics, seeded test-matrix generators, and a CLI for
running the bundled experiments.
"""

from .diagnostics import (
    QlpReport,
    RankRevealReport,
    RvalueReport,
    qlp,
    rr_conditions,
    rvalue_ratios,
)
from .errors import (
    ConvergenceError,
    NumericalError,
    RankDeficiencyError,
    SingularMatrixError,
)
from .linalg import (
    HouseholderQR,
    SvdResult,
    apply_q,
    apply_qt,
    back_substitute,
    extract_r,
    form_q,
    forward_substitute,
    house_qr,
    house_qrcp,
    jacobi_svd,
)
from .lstsq import (
    BASIC_METHODS,
    OVERDETERMINED_METHODS,
    LsSolution,
    solve_basic,
    solve_min_norm,
    solve_overdetermined,
)
from .matgen import (
    GeneratedMatrix,
    gen_condition,
    gen_correlated,
    gen_devils_stairs,
    gen_gap,
    gen_heavytail,
    gen_kahan,
    gen_prescribed,
)
from .mmio import FormatError, read_matrix, write_matrix
from .rurv import (
    HaarOperator,
    UrvFactorization,
    VluFactorization,
    haar_operator,
    haar_sample,
    mix_apply,
    rurv_haar,
    rurv_ros,
    rurv_ros_partial,
    rvlu_ros,
    urv_reconstruct,
    vlu_reconstruct,
)
from .transforms import (
    ColumnNormStats,
    RosOperator,
    column_norm_stats,
    dct2,
    dct3,
    ros_apply,
    ros_dense,
    ros_sample,
)

__version__ = "0.1.0"
