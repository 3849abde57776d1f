"""Benchmark of mixfactor, run from the root of a checkout:

    python3 bench/run.py --workload lstsq-large --seed 1 --seconds 20 --trace 0

The package is imported from src/ of the same checkout.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
Notes on failed operations go to standard error.
"""

import argparse
import importlib
import json
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
# Set-up runs this many times, each from a fresh import; setup_s is the median.
SETUP_REPS = 3

# One BLAS thread, set before numpy loads.  Times are CPU seconds of this
# process (time.process_time): on a shared virtual machine the wall clock
# also counts time the hypervisor gives to other guests, which spread one
# operation's wall time by 14% where its CPU time spread by 3.5%.  With one
# thread, CPU time is the wall time of an idle machine; a second BLAS thread
# only added its own CPU time (measured: 0.96 s wall, 1.33 s CPU, against
# 0.86 s and 0.82 s with one thread, for one low-rank approximation).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    [("setup_s", "s"), ("ops_per_s", "ops/s")]
    + [(f"solve_s.{m}", "s") for m in workloads.SOLVE_METHODS]
    + [(f"reveal_s.{f}", "s") for f in workloads.FIRSTS]
    + [(f"lowrank_s.{k}", "s") for k in workloads.LOWRANK_KINDS]
)
PER_LAYER = (
    [
        (f"{mod}.{fn}.{stat}", unit)
        for mod, names in tracing.TRACED.items()
        for fn in names
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
    ]
    + [
        ("linalg.house_qr.gflop_s", "GFLOP/s"),
        ("linalg.house_qr.vs_lapack", "ratio"),
        ("transforms.dct2.vs_numpy", "ratio"),
        ("lstsq.draws_per_solve", "draws/solve"),
        ("trace.overhead_s", "s"),
    ]
)


def import_package():
    """Import mixfactor afresh from this checkout's src/, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "mixfactor" or n.startswith("mixfactor.")]:
        del sys.modules[name]
    mf = importlib.import_module("mixfactor")
    if not Path(mf.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mixfactor came from {mf.__file__}, not from {SRC}")
    return mf


def setup(workload, seed):
    """Import, build inputs and warm up SETUP_REPS times; return the last and the median time."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.process_time()
        mf = import_package()
        inputs = workloads.make_inputs(mf, workload, seed)
        times.append(time.process_time() - start)
    return mf, inputs, statistics.median(times)


def op_generators(seed, round_index, count):
    """One generator per operation of a round: children of SeedSequence(seed) child (1, round)."""
    seq = np.random.SeedSequence(seed, spawn_key=(1, round_index))
    return iter([np.random.default_rng(s) for s in seq.spawn(count)])


class Phase:
    """Timed rounds: samples per metric, operation counts and busy seconds.

    A sample is a task's seconds per operation, except for DRAWS_METRIC,
    whose sample is seconds per mixing draw (see workloads.DRAWS_METRIC).
    """

    def __init__(self):
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0  # CPU seconds inside operations that passed their checks
        self.completed = 0
        self.draws = []  # LsSolution.draws of every DRAWS_METRIC solve
        self.rounds = 0

    def run_round(self, tasks, seed):
        rngs = op_generators(seed, self.rounds, sum(len(t.ops) for t in tasks))
        for task in tasks:
            spent, done, units = 0.0, 0, 0
            for op in task.ops:
                rng = next(rngs)
                self.attempted += 1
                start = time.process_time()
                try:
                    out = op.run(rng)
                    took = time.process_time() - start
                    problems = op.check(out)
                except Exception:  # a failing operation is counted; the run goes on
                    problems = [f"raised\n{traceback.format_exc()}"]
                if problems:
                    self.failed += 1
                    print(f"{task.metric}: " + "; ".join(problems), file=sys.stderr)
                    continue
                spent += took
                done += 1
                if task.metric == workloads.DRAWS_METRIC:
                    self.draws.append(out.draws)
                    units += out.draws
                else:
                    units += 1
            if done:
                self.samples[task.metric].append(spent / units)
                self.busy += spent
                self.completed += done
        self.rounds += 1


def measure(tasks, seed, seconds=None, rounds=None):
    """Run whole rounds: a given number, or until `seconds` have passed (at least one)."""
    phase = Phase()
    start = time.perf_counter()
    while phase.rounds < rounds if rounds is not None else (phase.rounds == 0 or time.perf_counter() - start < seconds):
        phase.run_round(tasks, seed)
    return phase


def end_to_end(phase, setup_s):
    values = {"setup_s": setup_s, "ops_per_s": phase.completed / phase.busy if phase.busy else None}
    for name, _ in END_TO_END[2:]:
        samples = phase.samples.get(name)
        values[name] = statistics.median(samples) if samples else None
    return values


def per_layer(untraced, traced, spans, seed):
    """Per-layer metrics of the traced phase, with the ceilings timed in this run."""
    stats = tracing.layer_stats(spans)
    values = {}
    for mod, names in tracing.TRACED.items():
        for fn in names:
            entry = stats.get(f"{mod}.{fn}", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for stat in ("calls", "self_s", "total_s"):
                values[f"{mod}.{fn}.{stat}"] = entry[stat]
    flops, lapack_s, fft_s = tracing.ceilings(spans, np.random.default_rng(seed))
    qr_self = values["linalg.house_qr.self_s"]
    values["linalg.house_qr.gflop_s"] = flops / qr_self / 1e9 if qr_self else None
    values["linalg.house_qr.vs_lapack"] = qr_self / lapack_s if lapack_s else None
    values["transforms.dct2.vs_numpy"] = values["transforms.dct2.self_s"] / fft_s if fft_s else None
    values["lstsq.draws_per_solve"] = sum(traced.draws) / len(traced.draws) if traced.draws else None
    values["trace.overhead_s"] = traced.busy - untraced.busy
    return values


def write_spans(spans, workload, seed):
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for name, start, end, parent, _ in spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")


def run(name, seed, seconds, trace, sizes=workloads.WORKLOADS):
    """Run one workload and return the result object that run.py prints."""
    workload = sizes[name]
    mf, inputs, setup_s = setup(workload, seed)
    problems = workloads.add_references(inputs, workload.lowrank.rank)
    for problem in problems:
        print(f"input: {problem}", file=sys.stderr)
    tasks = workloads.round_tasks(mf, workload, inputs)
    untraced = measure(tasks, seed, seconds=seconds)
    if trace:
        with tracing.Tracer() as tracer:
            traced = measure(tasks, seed, rounds=untraced.rounds)
        write_spans(tracer.spans, name, seed)
        values, units = per_layer(untraced, traced, tracer.spans, seed), PER_LAYER
        phases = (untraced, traced)
    else:
        values, units = end_to_end(untraced, setup_s), END_TO_END
        phases = (untraced,)
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mixfactor" / "__init__.py").is_file():
        sys.exit(f"run.py: no package at {SRC / 'mixfactor'}; run from a mixfactor checkout")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
