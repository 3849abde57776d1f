"""The workloads: sizes, inputs, numpy references and the operations of a round.

Every workload runs all three kinds of operation, because every run reports
every end-to-end metric: least-squares solves (solve_s.*), rank-revealing
diagnoses (reveal_s.*) and rank-k approximations (lowrank_s.*).  A workload
runs its own kind at full size and the other two at small probe sizes, so
each one stresses a different layer (see README.md).
"""

from dataclasses import dataclass

import numpy as np

import checks

SOLVE_METHODS = checks.WIDE_METHODS + checks.TALL_METHODS
FIRSTS = ("qrcp", "rurv-haar", "rurv-ros")
LOWRANK_KINDS = ("pow2", "smooth", "prime")
# rurv-ros-basic redraws its mix while the leading triangle is ill conditioned,
# so one solve costs one to three draws.  At 1000 x 1500 the share of first
# draws rejected was 24 of 86 overall but 11 of 18 in the nine-solve runs of
# two seeds, so seconds per solve jump between seeds and no affordable number
# of solves makes their median steady.  This metric is therefore seconds per
# draw, refinement included; the draws per solve are lstsq.draws_per_solve of
# the traced run.
DRAWS_METRIC = "solve_s.rurv-ros-basic"
# gen_correlated's perturbation of the duplicated columns, as in criteria 06 and 07.
CORRELATION_NOISE = 1e-4
# Gaussian noise added to the low-rank signal, relative to entries of size ~sqrt(rank).
LOWRANK_NOISE = 1e-3


@dataclass(frozen=True)
class SolveSizes:
    """A wide m x n system and a tall n x m one, from gen_correlated."""

    m: int
    n: int
    reps: tuple  # solves per round, one count per SOLVE_METHODS entry
    pairs: int = 10  # near-duplicated column pairs


@dataclass(frozen=True)
class RevealSizes:
    """Kahan (split m - 1) and gen_gap (split m // 2) matrices of each order."""

    orders: tuple
    sweeps: int  # sweeps over all orders per round


@dataclass(frozen=True)
class LowrankSizes:
    """rows x cols[kind] matrices of rank `rank` plus noise, approximated at that rank."""

    rows: int
    cols: tuple  # one column count per LOWRANK_KINDS entry
    rank: int
    reps: int  # approximations per round and kind


@dataclass(frozen=True)
class Workload:
    solve: SolveSizes
    reveal: RevealSizes
    lowrank: LowrankSizes


# reps: qr-basic, qrcp, rurv-haar-basic, rurv-ros-basic, rvlu-minnorm, qr-overdet, rurv-ros-overdet.
PROBE_SOLVE = SolveSizes(96, 144, reps=(5, 5, 3, 5, 5, 5, 5))
PROBE_REVEAL = RevealSizes(orders=(32, 48), sweeps=3)
PROBE_LOWRANK = LowrankSizes(200, cols=(256, 240, 251), rank=8, reps=5)

WORKLOADS = {
    # One round of lstsq-large is the whole run, where the other workloads run
    # two to four rounds, so its probes repeat three times as often per round.
    "lstsq-large": Workload(
        SolveSizes(1000, 1500, reps=(2, 1, 1, 2, 2, 1, 1)),
        RevealSizes(PROBE_REVEAL.orders, sweeps=3 * PROBE_REVEAL.sweeps),
        LowrankSizes(PROBE_LOWRANK.rows, PROBE_LOWRANK.cols, PROBE_LOWRANK.rank, reps=3 * PROBE_LOWRANK.reps),
    ),
    "rank-reveal": Workload(
        PROBE_SOLVE, RevealSizes(orders=(40, 64, 100, 160, 250), sweeps=1), PROBE_LOWRANK
    ),
    "lowrank-mix": Workload(
        PROBE_SOLVE, PROBE_REVEAL, LowrankSizes(1000, cols=(1024, 1000, 1009), rank=40, reps=1)
    ),
}

# The same structure at toy sizes, for the benchmark's own tests.
TINY = {
    name: Workload(
        SolveSizes(12, 18, reps=(1,) * len(SOLVE_METHODS), pairs=2),
        RevealSizes(orders=(8, 12), sweeps=1),
        LowrankSizes(16, cols=(16, 12, 13), rank=2, reps=1),
    )
    for name in WORKLOADS
}


@dataclass
class LinearSystem:
    a: np.ndarray
    b: np.ndarray
    a_norm2: float = 0.0  # numpy reference: ||A||_2
    x_ref: np.ndarray | None = None  # numpy reference: lstsq solution (wide only)


@dataclass
class RevealMatrix:
    family: str
    a: np.ndarray
    k: int
    sigma: np.ndarray  # handed to rr_conditions: the gen_gap profile or Jacobi's for Kahan
    sigma_lapack: np.ndarray | None = None  # numpy reference


@dataclass
class LowrankMatrix:
    kind: str
    a: np.ndarray
    a_fro: float = 0.0  # numpy reference: ||A||_F
    tail: float = 0.0  # numpy reference: Eckart-Young error at the workload's rank


@dataclass
class Inputs:
    wide: LinearSystem
    tall: LinearSystem
    reveal: list
    lowrank: list


def make_inputs(mf, workload, seed):
    """Build a workload's inputs from its seed, then warm the transform plans.

    Inputs come from child 0 of SeedSequence(seed): one grandchild each for
    the wide system, the tall system, the gen_gap matrices and the low-rank
    matrices.  Kahan matrices are deterministic; their singular values come
    from the package's Jacobi SVD, which is accurate to the relative level
    that rr_conditions needs on graded matrices.
    """
    solve, reveal, lowrank = workload.solve, workload.reveal, workload.lowrank
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed, spawn_key=(0,)).spawn(4)]
    wide_rng, tall_rng, gap_rng, lowrank_rng = streams
    wide = LinearSystem(
        mf.gen_correlated(solve.m, solve.n, solve.pairs, CORRELATION_NOISE, rng=wide_rng),
        wide_rng.standard_normal(solve.m),
    )
    tall = LinearSystem(
        mf.gen_correlated(solve.n, solve.m, solve.pairs, CORRELATION_NOISE, rng=tall_rng),
        tall_rng.standard_normal(solve.n),
    )
    matrices = []
    for m in reveal.orders:
        kahan = mf.gen_kahan(m)
        matrices.append(RevealMatrix("kahan", kahan, m - 1, mf.jacobi_svd(kahan, want_vectors=False).sigma))
        gap = mf.gen_gap(m, m // 2, rng=gap_rng)
        matrices.append(RevealMatrix("gap", gap.a, m // 2, gap.sigma))
    low = []
    for kind, n in zip(LOWRANK_KINDS, lowrank.cols):
        signal = lowrank_rng.standard_normal((lowrank.rows, lowrank.rank)) @ lowrank_rng.standard_normal(
            (lowrank.rank, n)
        )
        low.append(LowrankMatrix(kind, signal + LOWRANK_NOISE * lowrank_rng.standard_normal((lowrank.rows, n))))
    # Every length a mixing operator will transform: the wide columns and
    # rows, the tall columns, the square diagnoses and the low-rank columns.
    for n in {solve.m, solve.n, *reveal.orders, *lowrank.cols}:
        mf.dct2(np.zeros((1, n)))
    return Inputs(wide, tall, matrices, low)


def add_references(inputs, rank):
    """Fill in the numpy references; return problems found in the inputs.

    The singular values handed to rr_conditions are checked against
    np.linalg.svd, so a fault in the package's Jacobi SVD or generators
    shows here rather than as a wrong diagnosis.
    """
    for system in (inputs.wide, inputs.tall):
        system.a_norm2 = float(np.linalg.norm(system.a, 2))
    inputs.wide.x_ref = np.linalg.lstsq(inputs.wide.a, inputs.wide.b, rcond=None)[0]
    problems = []
    for mat in inputs.reveal:
        mat.sigma_lapack = np.linalg.svd(mat.a, compute_uv=False)
        problems += checks.check_spectrum(f"{mat.family} m={mat.a.shape[0]}", mat.sigma, mat.sigma_lapack)
    for mat in inputs.lowrank:
        sigma = np.linalg.svd(mat.a, compute_uv=False)
        mat.a_fro = float(np.linalg.norm(mat.a))
        mat.tail = float(np.sqrt(np.sum(sigma[rank:] ** 2)))
    return problems


@dataclass
class Op:
    """One operation: run(rng) calls the package; check(output) returns problems."""

    run: object
    check: object


@dataclass
class Task:
    """Operations timed together; their mean time is one sample of `metric`."""

    metric: str
    ops: list


def _solve_op(mf, method, inputs):
    if method in checks.TALL_METHODS:
        system = inputs.tall

        def run(rng):
            return mf.solve_overdetermined(system.a, system.b, method=method, rng=rng)

    elif method == "rvlu-minnorm":
        system = inputs.wide

        def run(rng):
            return mf.solve_min_norm(system.a, system.b, rng=rng)

    else:
        system = inputs.wide

        def run(rng):
            return mf.solve_basic(system.a, system.b, method=method, rng=rng)

    def check(sol):
        return checks.check_solve(method, system.a, system.a_norm2, system.b, sol.x, system.x_ref)

    return Op(run, check)


def _reveal_op(mf, first, mat):
    def run(rng):
        first_rng, qlp_rng = rng.spawn(2)
        if first == "qrcp":
            r = mf.extract_r(mf.house_qrcp(mat.a))
        elif first == "rurv-haar":
            r = mf.rurv_haar(mat.a, first_rng).r
        else:
            r = mf.rurv_ros(mat.a, 1, first_rng).r
        report = mf.rr_conditions(mat.sigma, r, mat.k)
        return np.abs(np.diagonal(r)), report, mf.qlp(mat.a, first=first, rng=qlp_rng).l_values

    def check(out):
        r_values, rep, l_values = out
        return checks.check_reveal(
            mat.family,
            first,
            mat.sigma_lapack,
            rep.ratios_r11,
            rep.ratios_r22,
            rep.max_ratio_r11,
            r_values,
            l_values,
        )

    return Op(run, check)


def _lowrank_op(mf, mat, rank):
    def run(rng):
        fac = mf.rurv_ros_partial(mat.a, rank, rng=rng)
        return fac, mf.urv_reconstruct(fac)

    def check(out):
        fac, a_k = out
        return checks.check_lowrank(mat.a, mat.a_fro, rank, mat.tail, a_k, np.linalg.norm(fac.r[rank:, rank:]))

    return Op(run, check)


def round_tasks(mf, workload, inputs):
    """The tasks of one round, in the order they run.

    Solves interleave the methods; a reveal task is one sweep over every
    matrix with one first factorization, so reveal_s is seconds per matrix
    averaged over the sweep; a low-rank task is one approximation.  The
    three kinds are spread evenly over the round: the speed of a shared
    machine drifts by up to 30% over tens of seconds, and samples taken
    in one block would all see the same moment.
    """
    solves = []
    reps = dict(zip(SOLVE_METHODS, workload.solve.reps))
    for rep in range(max(reps.values())):
        for method in SOLVE_METHODS:
            if rep < reps[method]:
                solves.append(Task(f"solve_s.{method}", [_solve_op(mf, method, inputs)]))
    reveals = [
        Task(f"reveal_s.{first}", [_reveal_op(mf, first, mat) for mat in inputs.reveal])
        for _ in range(workload.reveal.sweeps)
        for first in FIRSTS
    ]
    lowranks = [
        Task(f"lowrank_s.{mat.kind}", [_lowrank_op(mf, mat, workload.lowrank.rank)])
        for _ in range(workload.lowrank.reps)
        for mat in inputs.lowrank
    ]
    groups = (solves, reveals, lowranks)
    spread = sorted(((i + 0.5) / len(g), k, i) for k, g in enumerate(groups) for i in range(len(g)))
    return [groups[k][i] for _, k, i in spread]
