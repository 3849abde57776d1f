"""Spans around the package's functions, installed from outside the package.

The Tracer replaces each listed function, on every mixfactor module that
binds it, with a wrapper that records one span (name, start, end, parent,
info) in memory, timed in CPU seconds like the benchmark's operations.
Nothing in the package knows it is traced.  Self time is a
span's duration minus the time its child spans cover.
"""

import functools
import sys
import time

import numpy as np

# The functions the traced run reports, by the module that defines them.
TRACED = {
    "linalg": (
        "house_qr",
        "house_qrcp",
        "apply_q",
        "apply_qt",
        "form_q",
        "extract_r",
        "back_substitute",
        "forward_substitute",
        "jacobi_svd",
    ),
    "transforms": ("dct2", "dct3", "ros_apply"),
    "rurv": (
        "haar_sample",
        "_mix_and_sort",
        "rurv_haar",
        "rurv_ros",
        "rurv_ros_partial",
        "rvlu_ros",
        "mix_apply",
        "urv_reconstruct",
    ),
    "lstsq": ("solve_basic", "solve_overdetermined", "solve_min_norm", "_cond2_estimate"),
    "diagnostics": ("rr_conditions", "qlp"),
}

# Call arguments kept on the span, for the flop count and the ceilings.
DESCRIBE = {
    "linalg.house_qr": lambda a, steps=None: (np.shape(a), steps),
    "transforms.dct2": lambda x, axis=-1: (np.shape(x), axis),
}


class Tracer:
    """Install span-recording wrappers on the mixfactor modules; use as a context manager."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, info]
        self._stack = []
        self._installed = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        describe = DESCRIBE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = describe(*args, **kwargs) if describe else None
            index = len(spans)
            spans.append([name, time.process_time(), None, stack[-1] if stack else -1, info])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.process_time()

        return traced

    def __enter__(self):
        modules = [mod for key, mod in list(sys.modules.items()) if key == "mixfactor" or key.startswith("mixfactor.")]
        for short, names in TRACED.items():
            home = sys.modules[f"mixfactor.{short}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._installed.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()
        return False


def layer_stats(spans):
    """Per span name: calls, total_s and self_s.

    total_s counts only spans with no ancestor of the same name, so a
    function nested inside itself is not counted twice; self_s subtracts
    from each span the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["total_s"] += end - start
    return stats


def house_qr_flops(shape, steps):
    """Flops of `steps` Householder steps on an m x n matrix (norm, reflector, update)."""
    m, n = shape
    k = min(m, n) if steps is None else steps
    return sum(3 * (m - j) + 4 * (m - j) * (n - j - 1) for j in range(k))


def _median_seconds(fn, repeat=3):
    times = []
    for _ in range(repeat):
        start = time.process_time()
        fn()
        times.append(time.process_time() - start)
    return float(np.median(times))


def ceilings(spans, rng):
    """LAPACK and np.fft times for the traced house_qr and dct2 calls.

    Returns (house_qr flops, LAPACK seconds, np.fft seconds).  Each distinct
    shape is timed once, as the median of three runs on Gaussian data.  A
    partial house_qr is charged its share, by flops, of a full LAPACK QR of
    the same shape, since np.linalg.qr cannot stop after k steps.
    """
    flops = lapack = fft = 0.0
    qr_time, fft_time = {}, {}
    for name, _, _, _, info in spans:
        if name == "linalg.house_qr":
            shape, steps = info
            if shape not in qr_time:
                a = rng.standard_normal(shape)
                qr_time[shape] = _median_seconds(lambda: np.linalg.qr(a, mode="raw"))
            done = house_qr_flops(shape, steps)
            flops += done
            lapack += qr_time[shape] * done / house_qr_flops(shape, None)
        elif name == "transforms.dct2":
            if info not in fft_time:
                shape, axis = info
                x = rng.standard_normal(shape)
                fft_time[info] = _median_seconds(lambda: np.fft.fft(x, axis=axis))
            fft += fft_time[info]
    return flops, lapack, fft
