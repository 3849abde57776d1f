"""Tests of the benchmark itself: its checks, its span arithmetic and a tiny run.

Run from the root of the checkout:  python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def wide():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 30))
    b = rng.standard_normal(20)
    return a, b, float(np.linalg.norm(a, 2))


def basic_solution(a, b):
    m = a.shape[0]
    x = np.zeros(a.shape[1])
    x[:m] = np.linalg.solve(a[:, :m], b)
    return x


# ---------------------------------------------------------------------------
# every check passes a correct output and rejects a corrupted one


def test_backward_error_rejects_perturbed_solution(wide):
    a, b, norm = wide
    x = basic_solution(a, b)
    for method in ("qr-basic", "qrcp", "rurv-haar-basic", "rurv-ros-basic"):
        assert checks.check_solve(method, a, norm, b, x) == []
        assert checks.check_solve(method, a, norm, b, x * (1 + 1e-8))
    nan = x.copy()
    nan[0] = np.nan
    assert checks.check_solve("rurv-ros-basic", a, norm, b, nan)


def test_qr_basic_needs_exact_zeros_past_m(wide):
    a, b, norm = wide
    x = basic_solution(a, b)
    x[25] = 1e-300  # far below the backward-error tolerance
    assert checks.check_solve("rurv-ros-basic", a, norm, b, x) == []
    assert checks.check_solve("qr-basic", a, norm, b, x)


def test_qrcp_needs_at_most_m_nonzeros(wide):
    a, b, norm = wide
    dense = np.linalg.lstsq(a, b, rcond=None)[0]
    assert checks.check_solve("rurv-haar-basic", a, norm, b, dense) == []
    assert checks.check_solve("qrcp", a, norm, b, dense)


def test_minimum_norm_must_match_lstsq(wide):
    a, b, norm = wide
    x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
    assert checks.check_solve("rvlu-minnorm", a, norm, b, x_ref, x_ref) == []
    assert checks.check_solve("rvlu-minnorm", a, norm, b, basic_solution(a, b), x_ref)


def test_normal_equations_reject_perturbed_least_squares(wide):
    a, b, _ = wide
    a, b = a.T, np.random.default_rng(8).standard_normal(30)
    norm = float(np.linalg.norm(a, 2))
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    for method in checks.TALL_METHODS:
        assert checks.check_solve(method, a, norm, b, x) == []
        assert checks.check_solve(method, a, norm, b, x + 1e-8)


def reveal_case(m=12, k=6):
    """A diagnosis computed with numpy alone: R from np.linalg.qr, its ratios and values."""
    a = np.random.default_rng(9).standard_normal((m, m))
    sigma = np.linalg.svd(a, compute_uv=False)
    r = np.linalg.qr(a, mode="r")
    r11 = sigma[:k] / np.linalg.svd(r[:k, :k], compute_uv=False)
    r22 = np.linalg.svd(r[k:, k:], compute_uv=False) / sigma[k:]
    l_values = np.sort(np.abs(np.diagonal(np.linalg.qr(r.T, mode="r"))))[::-1]
    return sigma, r11, r22, np.abs(np.diagonal(r)), l_values


def test_reveal_check_rejects_scaled_values_and_broken_interlacing():
    sigma, r11, r22, r_values, l_values = reveal_case()
    args = ("gap", "rurv-ros", sigma)
    assert checks.check_reveal(*args, r11, r22, r11.max(), r_values, l_values) == []
    scaled = r_values.copy()
    scaled[np.argmax(scaled)] = sigma[0] * (1 + 1e-6)
    assert checks.check_reveal(*args, r11, r22, r11.max(), scaled, l_values)
    assert checks.check_reveal(*args, r11, r22, r11.max(), r_values, l_values * 0.5)
    broken = r11.copy()
    broken[0] = 1 - 1e-9
    assert checks.check_reveal(*args, broken, r22, r11.max(), r_values, l_values)


def test_kahan_qrcp_must_reach_the_kahan_bound():
    sigma, r11, r22, r_values, l_values = reveal_case(m=200)
    bound = checks.kahan_bound(200)
    assert checks.check_reveal("kahan", "qrcp", sigma, r11, r22, bound, r_values, l_values) == []
    assert checks.check_reveal("kahan", "qrcp", sigma, r11, r22, bound * 0.99, r_values, l_values)
    # the bound binds only the pivoted factorization
    assert checks.check_reveal("kahan", "rurv-ros", sigma, r11, r22, 1.0, r_values, l_values) == []


def test_spectrum_check_rejects_a_shifted_value():
    sigma = np.linalg.svd(np.random.default_rng(10).standard_normal((30, 30)), compute_uv=False)
    assert checks.check_spectrum("x", sigma.copy(), sigma) == []
    shifted = sigma.copy()
    shifted[-1] *= 1 + 1e-6
    assert checks.check_spectrum("x", shifted, sigma)


def test_lowrank_check_rejects_too_good_and_mismatched_errors():
    a = np.random.default_rng(11).standard_normal((40, 50))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    k = 5
    tail = float(np.sqrt(np.sum(s[k:] ** 2)))
    best = (u[:, :k] * s[:k]) @ vt[:k]
    fro = float(np.linalg.norm(a))
    assert checks.check_lowrank(a, fro, k, tail, best, tail) == []
    assert checks.check_lowrank(a, fro, k, tail, a, 0.0)  # error 0 beats Eckart-Young
    assert checks.check_lowrank(a, fro, k, tail, best, tail * (1 + 1e-9))


# ---------------------------------------------------------------------------
# spans


def test_self_and_total_time_on_a_toy_nest():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 7.0, 0, None],
        ["a", 7.5, 9.0, 0, None],  # a nested inside a
    ]
    stats = tracing.layer_stats(spans)
    assert stats["a"] == {"calls": 2, "total_s": 10.0, "self_s": 3.5 + 1.5}
    assert stats["b"] == {"calls": 2, "total_s": 5.0, "self_s": 2.0 + 2.0}
    assert stats["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_tracer_wraps_every_binding_and_restores_them():
    mf = run.import_package()
    original = mf.linalg.house_qr
    bound = [mod for mod in (mf, mf.linalg, mf.rurv, mf.lstsq, mf.diagnostics) if mod.house_qr is original]
    assert len(bound) == 5
    a = np.random.default_rng(12).standard_normal((6, 4))
    with tracing.Tracer() as tracer:
        assert all(mod.house_qr is not original for mod in bound)
        mf.rurv_haar(a, rng=1)
    assert all(mod.house_qr is original for mod in bound)
    names = [span[0] for span in tracer.spans]
    assert names[0] == "rurv.rurv_haar"
    assert names.count("linalg.house_qr") == 2  # the Haar sample and the mixed matrix
    parents = {span[0]: span[3] for span in tracer.spans}
    assert parents["linalg.form_q"] == names.index("rurv.haar_sample")
    assert parents["linalg.apply_q"] == names.index("linalg.form_q")


def test_house_qr_flops_match_the_textbook_count():
    m, n = 300, 200
    assert tracing.house_qr_flops((m, n), None) == pytest.approx(2 * m * n * n - 2 * n**3 / 3, rel=0.02)
    assert tracing.house_qr_flops((m, n), 1) == 3 * m + 4 * m * (n - 1)


# ---------------------------------------------------------------------------
# rounds and tiny-size runs


def test_failed_operations_are_counted_and_give_no_sample():
    ok = workloads.Op(run=lambda rng: rng.random(), check=lambda out: [])
    wrong = workloads.Op(run=lambda rng: rng.random(), check=lambda out: ["wrong"])
    raises = workloads.Op(run=lambda rng: 1 / 0, check=lambda out: [])
    tasks = [workloads.Task("m.ok", [ok, ok]), workloads.Task("m.wrong", [wrong]), workloads.Task("m.raises", [raises])]
    phase = run.measure(tasks, seed=0, rounds=2)
    assert (phase.attempted, phase.failed, phase.completed) == (8, 4, 4)
    assert len(phase.samples["m.ok"]) == 2
    assert "m.wrong" not in phase.samples and "m.raises" not in phase.samples


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_every_workload(name):
    start = time.perf_counter()
    plain = run.run(name, seed=5, seconds=0, trace=0, sizes=workloads.TINY)
    traced = run.run(name, seed=5, seconds=0, trace=1, sizes=workloads.TINY)
    assert time.perf_counter() - start < 30
    for result, expected in ((plain, run.END_TO_END), (traced, run.PER_LAYER)):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
        assert all(v["value"] is not None for v in result["metrics"].values())
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert traced["attempted"] == 2 * plain["attempted"]
    assert traced["metrics"]["linalg.house_qr.calls"]["value"] > 0


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lowrank-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
