"""Command-line harness: generate matrices, factor them, solve, experiment.

Subcommands
-----------
gen     write a test matrix (Matrix Market, or raw CSV rows)
factor  factor a matrix file, report the triangular diagonal magnitudes
solve   one least-squares solve, one CSV record
exp     named experiments (mix-norms, rr-scaling, rvalues, qlp, ls-bench)

Every output starts with comment lines echoing the full configuration, so a
result file documents the command that produced it.  Runs are deterministic
given the same flags and seed; pass --no-timestamp to also suppress the
clock comment and elapsed columns, making re-runs byte-identical.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 I/O error.
"""

import argparse
import sys
import time

import numpy as np

from .diagnostics import FIRST_FACTORIZATIONS, _singular_values, qlp, rr_conditions, rvalue_ratios
from .errors import NumericalError
from .lstsq import OVERDETERMINED_METHODS, SOLVERS
from .matgen import (
    gen_condition,
    gen_correlated,
    gen_devils_stairs,
    gen_gap,
    gen_heavytail,
    gen_kahan,
)
from .mmio import FormatError, read_matrix, write_matrix
from .rurv import haar_operator, mix_apply, rurv_ros_partial, rvlu_ros
from .transforms import column_norm_stats, ros_sample

FAMILIES = ("kahan", "gap", "devils-stairs", "correlated", "condition", "heavytail")
# name -> f(a, num_mixes, rng) returning a full factorization's packed
# HouseholderQR, whose diagonal is that of R (of L for rvlu-ros)
FACTOR_METHODS = {**FIRST_FACTORIZATIONS, "rvlu-ros": lambda a, num_mixes, rng: rvlu_ros(a, num_mixes, rng).u}
SOLVE_METHODS = tuple(SOLVERS)


def _fmt(value):
    """One CSV field; floats at 17 significant digits, None as empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _parse_sizes(text):
    """Parse '20,40,80' or 'lo:hi[:step]' (step defaults to lo) into a list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"size range must be lo:hi or lo:hi:step, got {text!r}")
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else lo
        if lo < 1 or hi < lo or step < 1:
            raise ValueError(f"bad size range {text!r}")
        return list(range(lo, hi + 1, step))
    sizes = [int(tok) for tok in text.split(",") if tok]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"sizes must be positive integers, got {text!r}")
    return sizes


def _config_lines(config):
    return [f"{key}={_fmt(value)}" for key, value in config.items()]


def _render_csv(config, header, rows, stamp):
    lines = []
    if stamp is not None:
        lines.append(f"# timestamp={stamp}")
    lines.extend(f"# {line}" for line in _config_lines(config))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text, out):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _timestamp(args):
    if args.no_timestamp:
        return None
    return time.strftime("%Y-%m-%dT%H:%M:%S")


def _elapsed_since(t0, args):
    """Wall-clock seconds, or exactly 0 when timestamps are suppressed."""
    if args.no_timestamp:
        return 0.0
    return time.perf_counter() - t0


def _build_matrix(family, m, n, args, rng):
    """Instantiate one family member; returns (matrix, sigma-or-None)."""
    if family in ("kahan", "gap", "devils-stairs") and m != n:
        raise ValueError(f"the {family} family is square; drop --n or set it to --m")
    if family == "kahan":
        return gen_kahan(m, args.c, args.tau), None
    if family == "gap":
        k = args.k if args.k is not None else m // 2
        g = gen_gap(m, k, args.gap, rng, args.rho)
        return g.a, g.sigma
    if family == "devils-stairs":
        g = gen_devils_stairs(m, args.stair_len, args.jump, rng)
        return g.a, g.sigma
    if family == "correlated":
        return gen_correlated(m, n, args.p, args.e, rng), None
    if family == "condition":
        g = gen_condition(m, n, args.kappa, rng)
        return g.a, g.sigma
    if family == "heavytail":
        return gen_heavytail(m, n, rng), None
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    """Generate one matrix and write it to --out."""
    fmt = args.format or "mm"
    m = args.m
    n = args.n if args.n is not None else m
    rng = np.random.default_rng(args.seed)
    a, sigma = _build_matrix(args.family, m, n, args, rng)
    config = {
        "subcommand": "gen",
        "family": args.family,
        "m": m,
        "n": n,
        "seed": args.seed,
        "c": args.c,
        "tau": args.tau,
        "k": args.k if args.k is not None else m // 2,
        "gap": args.gap,
        "rho": args.rho,
        "stair_len": args.stair_len,
        "jump": args.jump,
        "p": args.p,
        "e": args.e,
        "kappa": args.kappa,
    }
    stamp = _timestamp(args)
    comments = ([f" timestamp={stamp}"] if stamp else []) + [
        f" {line}" for line in _config_lines(config)
    ]
    if fmt == "mm":
        write_matrix(sys.stdout if args.out == "-" else args.out, a, comments)
    else:
        lines = [f"#{c}" for c in comments]
        lines.extend(",".join("%.17g" % v for v in row) for row in a)
        _emit("\n".join(lines) + "\n", args.out)
    if args.sigma_out:
        if sigma is None:
            raise ValueError(f"family {args.family!r} has no prescribed spectrum to write")
        write_matrix(args.sigma_out, sigma, comments)
    return 0


def cmd_factor(args):
    """Factor a matrix file, emit index,value rows of |diag| estimates."""
    if (args.format or "csv") != "csv":
        raise ValueError("factor emits CSV only")
    a = read_matrix(args.infile)
    rng = np.random.default_rng(args.seed)
    if args.rank is not None and args.method != "rurv-ros":
        raise ValueError("--rank applies to the rurv-ros method only")
    if args.rank is not None and not 1 <= args.rank <= min(a.shape):
        raise ValueError(f"--rank must lie in [1, {min(a.shape)}], got {args.rank}")
    t0 = time.perf_counter()
    if args.rank is not None:
        f = rurv_ros_partial(a, args.rank, args.mixes, rng).u
    else:
        f = FACTOR_METHODS[args.method](a, args.mixes, rng)
    elapsed = _elapsed_since(t0, args)
    values = np.abs(np.diagonal(f.packed))[: args.rank]
    if not np.all(np.isfinite(values)):
        raise NumericalError("factor has a non-finite diagonal entry")
    config = {
        "subcommand": "factor",
        "infile": args.infile,
        "method": args.method,
        "rank": args.rank,
        "seed": args.seed,
        "mixes": args.mixes,
        "m": a.shape[0],
        "n": a.shape[1],
        "elapsed": elapsed,
    }
    rows = [[i, float(v)] for i, v in enumerate(values)]
    _emit(_render_csv(config, ["index", "value"], rows, _timestamp(args)), args.out)
    return 0


def cmd_solve(args):
    """Solve one least-squares system from Matrix Market files."""
    if (args.format or "csv") != "csv":
        raise ValueError("solve emits CSV only")
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    method = args.method
    if method is None:
        method = "qr-overdet" if a.shape[0] >= a.shape[1] else "rurv-ros-basic"
    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    sol = SOLVERS[method](a, b, rng, args.mixes)
    elapsed = _elapsed_since(t0, args)
    config = {
        "subcommand": "solve",
        "a": args.a,
        "b": args.b,
        "seed": args.seed,
        "mixes": args.mixes,
        "m": a.shape[0],
        "n": a.shape[1],
    }
    header = ["method", "residual", "norm", "elapsed"]
    rows = [[sol.method, sol.residual_norm, sol.solution_norm, elapsed]]
    _emit(_render_csv(config, header, rows, _timestamp(args)), args.out)
    if args.x_out:
        write_matrix(args.x_out, sol.x, [f" solution from method={sol.method}"])
    return 0


# ---------------------------------------------------------------------------
# experiments


def _exp_mix_norms(args, root):
    """Column-norm spread before and after mixing, per backend."""
    m = args.m
    n = args.n if args.n is not None else m
    header = [
        "backend", "instantiation", "agg",
        "pre_mean", "pre_stdev", "post_mean", "post_stdev",
    ]
    rows = []
    for i in range(args.reps):
        mat_rng, haar_rng, ros_rng = root.spawn(3)
        a = gen_heavytail(m, n, mat_rng)
        pre = column_norm_stats(a)
        handles = (("haar", haar_operator(n, haar_rng)), ("ros", ros_sample(n, args.mixes, ros_rng)))
        for backend, v in handles:
            post = column_norm_stats(mix_apply(v, a, "right-transpose"))
            rows.append([backend, i, 0, pre.mean, pre.stdev, post.mean, post.stdev])
    for backend in ("haar", "ros"):
        agg = np.mean([row[3:] for row in rows if row[0] == backend], axis=0)
        rows.append([backend, "-", 1] + [float(v) for v in agg])
    config = {"m": m, "n": n, "reps": args.reps}
    return config, header, rows


def _family_sigma(a, sigma):
    """Reference spectrum: the prescribed one, else one-sided Jacobi."""
    return sigma if sigma is not None else _singular_values(a)


def _kahan_bound(m, c):
    s = np.sqrt(1.0 - c * c)
    return 0.5 * c**3 * (1.0 + c) ** (m - 4) / s


def _exp_rr_scaling(args, root):
    """Rank-revealing ratios across sizes: pivoting vs mixing backends."""
    sizes = _parse_sizes(args.sizes)
    if min(sizes) < 2:
        raise ValueError(f"rr-scaling needs --sizes of at least 2, got {args.sizes!r}")
    header = [
        "family", "m", "backend", "instantiation", "agg", "split",
        "max_ratio_r11", "max_ratio_r22", "strong_norm", "bound",
    ]
    rows = []
    for m in sizes:
        deterministic = args.family == "kahan"
        bound = _kahan_bound(m, args.c) if deterministic else None
        k = m - 1 if deterministic else max(1, m // 2)
        # deterministic families get one matrix per size; random families one
        # per instantiation, shared by every backend at that instantiation
        mats = []
        for mat_rng in [None] if deterministic else root.spawn(args.reps):
            a, sigma = _build_matrix(args.family, m, m, args, mat_rng)
            mats.append((a, _family_sigma(a, sigma)))
        # qrcp draws nothing and runs once per matrix; each mixing backend
        # runs once per instantiation on its own stream
        aggregates = []
        for backend in ("qrcp", "rurv-haar", "rurv-ros"):
            reports = []
            for i in range(len(mats) if backend == "qrcp" else args.reps):
                a, sigma_ref = mats[i % len(mats)]
                rng = None if backend == "qrcp" else root.spawn(1)[0]
                r = np.triu(FIRST_FACTORIZATIONS[backend](a, args.mixes, rng).packed)
                report = rr_conditions(sigma_ref, r, k)
                reports.append(report)
                rows.append([args.family, m, backend, i, 0, k,
                             report.max_ratio_r11, report.max_ratio_r22,
                             report.strong_norm, bound])
            aggregates.append([args.family, m, backend, "-", 1, k,
                               max(r.max_ratio_r11 for r in reports),
                               max(r.max_ratio_r22 for r in reports),
                               max(r.strong_norm for r in reports), bound])
        rows.extend(aggregates)
    config = {"family": args.family, "sizes": ",".join(str(s) for s in sizes), "reps": args.reps}
    return config, header, rows


def _exp_rvalues(args, root):
    """R-values against the reference spectrum for each first-pass backend."""
    m = args.m
    mat_rng = root.spawn(1)[0]
    a, sigma = _build_matrix(args.family, m, m, args, mat_rng)
    sigma_ref = _family_sigma(a, sigma)
    header = [
        "family", "m", "backend", "index", "agg",
        "sigma", "rvalue", "ratio", "lower_bound", "upper_bound",
    ]
    rows = []
    for backend in FIRST_FACTORIZATIONS:
        mix_rng = root.spawn(1)[0]
        r = np.triu(FIRST_FACTORIZATIONS[backend](a, args.mixes, mix_rng).packed)
        report = rvalue_ratios(r, sigma_ref)
        rvalues = np.sort(np.abs(np.diagonal(r)))[::-1]
        for i in range(m):
            rows.append([args.family, m, backend, i, 0,
                         float(sigma_ref[i]), float(rvalues[i]), float(report.ratios[i]),
                         report.lower_bound, report.upper_bound])
        rows.append([args.family, m, backend, "-", 1, None, None,
                     report.min, report.lower_bound, report.upper_bound])
    config = {"family": args.family, "m": m}
    return config, header, rows


def _exp_qlp(args, root):
    """L-values from the two-pass factorization, with step-down ratios."""
    m = args.m
    mat_rng, mix_rng = root.spawn(2)
    a, sigma = _build_matrix(args.family, m, m, args, mat_rng)
    report = qlp(a, first=args.first, num_mixes=args.mixes, rng=mix_rng)
    lv = report.l_values
    # a step-down ratio is taken only where the next L-value is nonzero
    ratios = [float(lv[i] / lv[i + 1]) if lv[i + 1] > 0 else None for i in range(lv.size - 1)] + [None]
    header = ["family", "m", "first", "index", "agg", "sigma", "l_value", "ratio_next"]
    rows = []
    for i, ratio in enumerate(ratios):
        ref = float(sigma[i]) if sigma is not None else None
        rows.append([args.family, m, args.first, i, 0, ref, float(lv[i]), ratio])
    finite = [ratio for ratio in ratios if ratio is not None and np.isfinite(ratio)]
    rows.append([args.family, m, args.first, "-", 1, None, None, max(finite, default=None)])
    config = {"family": args.family, "m": m, "first": args.first}
    return config, header, rows


def _exp_ls_bench(args, root):
    """Residual/norm/time for every solve method across sizes."""
    sizes = _parse_sizes(args.sizes)
    header = ["m", "n", "method", "instantiation", "agg", "residual", "norm", "elapsed"]
    rows = []
    for m in sizes:
        n = 2 * m
        if 2 * args.p > min(m, n):
            raise ValueError(f"correlated family needs 2p <= min(m, n); p={args.p}, size {m}")
        start = len(rows)
        for i in range(args.reps):
            wide_rng, tall_rng, b_rng = root.spawn(3)
            wide = gen_correlated(m, n, args.p, args.e, wide_rng)
            tall = gen_correlated(n, m, args.p, args.e, tall_rng)
            b_wide = b_rng.standard_normal(m)
            b_tall = b_rng.standard_normal(n)
            for method in SOLVE_METHODS:
                solve_rng = root.spawn(1)[0]
                a, b = (tall, b_tall) if method in OVERDETERMINED_METHODS else (wide, b_wide)
                t0 = time.perf_counter()
                sol = SOLVERS[method](a, b, solve_rng, args.mixes)
                elapsed = _elapsed_since(t0, args)
                rows.append([a.shape[0], a.shape[1], method, i, 0,
                             sol.residual_norm, sol.solution_norm, elapsed])
        for method in SOLVE_METHODS:
            shape = (n, m) if method in OVERDETERMINED_METHODS else (m, n)
            agg = np.mean([row[5:] for row in rows[start:] if row[2] == method], axis=0)
            rows.append([shape[0], shape[1], method, "-", 1] + [float(v) for v in agg])
    config = {"sizes": ",".join(str(s) for s in sizes), "reps": args.reps,
              "p": args.p, "e": args.e}
    return config, header, rows


_EXP_FUNCS = {
    "mix-norms": _exp_mix_norms,
    "rr-scaling": _exp_rr_scaling,
    "rvalues": _exp_rvalues,
    "qlp": _exp_qlp,
    "ls-bench": _exp_ls_bench,
}


def cmd_exp(args):
    """Run one named experiment, emit its CSV."""
    if (args.format or "csv") != "csv":
        raise ValueError("experiments emit CSV only")
    root = np.random.default_rng(args.seed)
    config, header, rows = _EXP_FUNCS[args.name](args, root)
    full_config = {"subcommand": "exp", "name": args.name,
                   "seed": args.seed, "mixes": args.mixes}
    full_config.update(config)
    _emit(_render_csv(full_config, header, rows, _timestamp(args)), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _int_in(lo, hi, what):
    """argparse type: an integer in [lo, hi), else the error "<what>, got <text>"."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = lo - 1  # not an integer: rejected below
        if not lo <= value < hi:
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
        return value

    return parse


def _add_family_flags(parser):
    parser.add_argument("--family", choices=FAMILIES, default="kahan",
                        help="matrix family (default: kahan)")
    parser.add_argument("--m", type=int, default=64, help="rows (default: 64)")
    parser.add_argument("--n", type=int, default=None,
                        help="columns (default: same as --m)")
    parser.add_argument("--c", type=float, default=0.1, help="kahan c (default: 0.1)")
    parser.add_argument("--tau", type=float, default=1e-7,
                        help="kahan diagonal damping (default: 1e-7)")
    parser.add_argument("--k", type=int, default=None,
                        help="gap position (default: m // 2)")
    parser.add_argument("--gap", type=float, default=1e-10,
                        help="gap ratio sigma_{k+1}/sigma_k (default: 1e-10)")
    parser.add_argument("--rho", type=float, default=0.99,
                        help="gap family decay rate (default: 0.99)")
    parser.add_argument("--stair-len", type=int, default=16, dest="stair_len",
                        help="devils-stairs stair length (default: 16)")
    parser.add_argument("--jump", type=float, default=0.1,
                        help="devils-stairs jump factor (default: 0.1)")
    parser.add_argument("--p", type=int, default=10,
                        help="correlated family: duplicated columns (default: 10)")
    parser.add_argument("--e", type=float, default=1e-4,
                        help="correlated family: noise scale (default: 1e-4)")
    parser.add_argument("--kappa", type=float, default=1e6,
                        help="condition family kappa (default: 1e6)")


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_int_in(0, 2**64, "seed must be an unsigned 64-bit integer"),
                        default=0, help="RNG seed, unsigned 64-bit (default: 0)")
    common.add_argument("--mixes", type=_int_in(1, float("inf"), "must be a positive integer"),
                        default=1, help="number of mixing passes N (default: 1)")
    common.add_argument("--out", default="-",
                        help="output path, '-' for stdout (default: '-')")
    common.add_argument("--format", choices=("mm", "csv"), default=None,
                        help="output format (gen defaults to mm, the rest to csv)")
    common.add_argument("--no-timestamp", action="store_true", dest="no_timestamp",
                        help="suppress clock comments and elapsed columns for "
                             "byte-identical re-runs")

    parser = argparse.ArgumentParser(
        prog="mixfactor",
        description="Randomized URV factorizations: column mixing instead of pivoting.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_gen = sub.add_parser("gen", parents=[common], help="generate a test matrix")
    _add_family_flags(p_gen)
    p_gen.add_argument("--sigma-out", dest="sigma_out", default=None,
                       help="also write the prescribed singular values here")
    p_gen.set_defaults(func=cmd_gen)

    p_factor = sub.add_parser("factor", parents=[common], help="factor a matrix file")
    p_factor.add_argument("--in", dest="infile", required=True,
                          help="input matrix (Matrix Market)")
    p_factor.add_argument("--method", choices=FACTOR_METHODS, default="rurv-ros")
    p_factor.add_argument("--rank", type=int, default=None,
                          help="stop rurv-ros after this many columns")
    p_factor.set_defaults(func=cmd_factor)

    p_solve = sub.add_parser("solve", parents=[common], help="least-squares solve")
    p_solve.add_argument("--a", required=True, help="coefficient matrix file")
    p_solve.add_argument("--b", required=True, help="right-hand side file")
    p_solve.add_argument("--method", choices=SOLVE_METHODS, default=None,
                         help="default: qr-overdet when m >= n, else rurv-ros-basic")
    p_solve.add_argument("--x-out", dest="x_out", default=None,
                         help="write the solution vector here (Matrix Market)")
    p_solve.set_defaults(func=cmd_solve)

    p_exp = sub.add_parser("exp", parents=[common], help="run a named experiment")
    p_exp.add_argument("name", choices=_EXP_FUNCS)
    _add_family_flags(p_exp)
    p_exp.add_argument("--sizes", default="100:300:100",
                       help="size sweep, 'lo:hi[:step]' or comma list (default: 100:300:100)")
    p_exp.add_argument("--reps", type=_int_in(1, float("inf"), "must be a positive integer"),
                       default=5, help="instantiations per configuration (default: 5)")
    p_exp.add_argument("--first", choices=FIRST_FACTORIZATIONS, default="rurv-ros",
                       help="first pass for the qlp experiment (default: rurv-ros)")
    p_exp.set_defaults(func=cmd_exp)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"mixfactor: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as exc:
        print(f"mixfactor: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"mixfactor: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
