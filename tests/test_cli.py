"""End-to-end checks of the mixfactor command-line interface."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mixfactor import column_norm_stats, gen_heavytail, gen_kahan, haar_sample, read_matrix
from mixfactor.cli import _build_parser, _family_sigma, _parse_sizes, main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    """Split a CSV output into (config dict, header list, row lists)."""
    config, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            config[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return config, header, rows


# ---------------------------------------------------------------------------
# gen


def test_gen_kahan_matches_generator(tmp_path):
    out = tmp_path / "k.mm"
    rc = run_cli("gen", "--family", "kahan", "--m", "4", "--c", "0.1",
                 "--tau", "0", "--out", str(out))
    assert rc == 0
    assert_array_equal(read_matrix(out), gen_kahan(4, c=0.1, tau=0.0))


def test_gen_condition_kappa_one(tmp_path):
    out = tmp_path / "c.mm"
    sigma_out = tmp_path / "s.mm"
    rc = run_cli("gen", "--family", "condition", "--kappa", "1", "--m", "6",
                 "--out", str(out), "--sigma-out", str(sigma_out))
    assert rc == 0
    assert_allclose(np.linalg.svd(read_matrix(out), compute_uv=False), 1.0)
    assert_allclose(read_matrix(sigma_out)[:, 0], 1.0)


def test_gen_roundtrip_through_reader(tmp_path):
    out = tmp_path / "h.mm"
    assert run_cli("gen", "--family", "heavytail", "--m", "12", "--n", "9",
                   "--seed", "3", "--out", str(out)) == 0
    a = read_matrix(out)
    assert a.shape == (12, 9)
    out2 = tmp_path / "h2.mm"
    assert run_cli("gen", "--family", "heavytail", "--m", "12", "--n", "9",
                   "--seed", "3", "--out", str(out2)) == 0
    assert_array_equal(a, read_matrix(out2))


def test_gen_csv_format(tmp_path):
    out = tmp_path / "k.csv"
    assert run_cli("gen", "--family", "kahan", "--m", "3", "--format", "csv",
                   "--out", str(out)) == 0
    data = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    parsed = np.array([[float(v) for v in line.split(",")] for line in data])
    assert_allclose(parsed, gen_kahan(3), rtol=1e-15)


def test_gen_sigma_out_rejected_for_unprescribed_family(tmp_path, capsys):
    rc = run_cli("gen", "--family", "kahan", "--m", "3",
                 "--out", str(tmp_path / "k.mm"),
                 "--sigma-out", str(tmp_path / "s.mm"))
    assert rc == 2
    assert "spectrum" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# factor


def test_factor_reports_kahan_diagonal(tmp_path):
    # the default tau damping keeps column norms strictly decreasing, so
    # pivoting stays put and R is the Kahan matrix itself
    mat = tmp_path / "k.mm"
    run_cli("gen", "--family", "kahan", "--m", "5", "--out", str(mat))
    out = tmp_path / "f.csv"
    assert run_cli("factor", "--in", str(mat), "--method", "qrcp",
                   "--out", str(out)) == 0
    config, header, rows = read_csv(out)
    assert header == ["index", "value"]
    assert config["method"] == "qrcp"
    values = [float(row[1]) for row in rows]
    assert_allclose(values, np.abs(np.diagonal(gen_kahan(5))), rtol=1e-15)


def test_factor_partial_rank(tmp_path):
    mat = tmp_path / "g.mm"
    run_cli("gen", "--family", "gap", "--m", "16", "--k", "8", "--seed", "1",
            "--out", str(mat))
    out = tmp_path / "f.csv"
    assert run_cli("factor", "--in", str(mat), "--method", "rurv-ros",
                   "--rank", "8", "--seed", "2", "--out", str(out)) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 8


def test_factor_rank_only_for_ros(tmp_path, capsys):
    mat = tmp_path / "k.mm"
    run_cli("gen", "--family", "kahan", "--m", "4", "--out", str(mat))
    assert run_cli("factor", "--in", str(mat), "--method", "qr", "--rank", "2") == 2


@pytest.mark.parametrize("rank", ["0", "21"])
def test_factor_rank_out_of_range_names_the_flag(tmp_path, capsys, rank):
    mat = tmp_path / "g.mm"
    run_cli("gen", "--family", "gap", "--m", "20", "--seed", "1", "--out", str(mat))
    capsys.readouterr()
    assert run_cli("factor", "--in", str(mat), "--rank", rank) == 2
    err = capsys.readouterr().err
    assert "--rank" in err
    assert f"[1, 20], got {rank}" in err


def test_factor_missing_file_is_io_error(capsys):
    assert run_cli("factor", "--in", "/no/such/file.mm") == 4


def test_factor_malformed_file_is_io_error(tmp_path):
    bad = tmp_path / "bad.mm"
    bad.write_text("not a matrix\n")
    assert run_cli("factor", "--in", str(bad)) == 4


# ---------------------------------------------------------------------------
# solve


def make_system(tmp_path, m=12, n=5, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    from mixfactor import write_matrix

    a_path, b_path = tmp_path / "a.mm", tmp_path / "b.mm"
    write_matrix(a_path, a)
    write_matrix(b_path, a @ x)
    return a_path, b_path


def test_solve_consistent_system(tmp_path):
    a_path, b_path = make_system(tmp_path)
    out = tmp_path / "sol.csv"
    assert run_cli("solve", "--a", str(a_path), "--b", str(b_path),
                   "--no-timestamp", "--out", str(out)) == 0
    _, header, rows = read_csv(out)
    assert header == ["method", "residual", "norm", "elapsed"]
    method, residual, _, elapsed = rows[0]
    assert method == "qr-overdet"
    assert float(residual) < 1e-12
    assert elapsed == "0"


def test_solve_writes_solution_vector(tmp_path):
    a_path, b_path = make_system(tmp_path, seed=1)
    x_out = tmp_path / "x.mm"
    assert run_cli("solve", "--a", str(a_path), "--b", str(b_path),
                   "--method", "rurv-ros-overdet", "--seed", "5",
                   "--out", str(tmp_path / "s.csv"), "--x-out", str(x_out)) == 0
    x = read_matrix(x_out)[:, 0]
    a, b = read_matrix(a_path), read_matrix(b_path)[:, 0]
    assert np.linalg.norm(a @ x - b) < 1e-11


def test_solve_wide_default_method(tmp_path):
    from mixfactor import write_matrix

    rng = np.random.default_rng(2)
    a_path, b_path = tmp_path / "a.mm", tmp_path / "b.mm"
    write_matrix(a_path, rng.standard_normal((4, 10)))
    write_matrix(b_path, rng.standard_normal(4))
    out = tmp_path / "sol.csv"
    assert run_cli("solve", "--a", str(a_path), "--b", str(b_path),
                   "--out", str(out)) == 0
    _, _, rows = read_csv(out)
    assert rows[0][0] == "rurv-ros-basic"


def test_solve_singular_system_is_numerical_failure(tmp_path, capsys):
    from mixfactor import write_matrix

    a_path, b_path = tmp_path / "a.mm", tmp_path / "b.mm"
    write_matrix(a_path, np.ones((6, 3)))
    write_matrix(b_path, np.ones(6))
    rc = run_cli("solve", "--a", str(a_path), "--b", str(b_path),
                 "--method", "qr-overdet")
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_solve_shape_mismatch_is_usage_error(tmp_path):
    a_path, b_path = make_system(tmp_path, seed=3)
    rc = run_cli("solve", "--a", str(a_path), "--b", str(a_path),
                 "--method", "qr-overdet")
    assert rc == 2


@pytest.mark.parametrize("method", ["qr-overdet", "rurv-ros-overdet"])
def test_solve_bad_right_hand_side_is_usage_error(tmp_path, capsys, method):
    # a NaN entry, or a 5 x 2 file whose 10 entries would ravel into a
    # scrambled right-hand side
    from mixfactor import write_matrix

    a_path, b_path = make_system(tmp_path, m=10, n=6, seed=4)
    nan_b = read_matrix(b_path)
    nan_b[2, 0] = np.nan
    for bad, message in [(nan_b, "right-hand side entries must be finite"),
                         (np.ones((5, 2)), "right-hand side must be a vector or a single column")]:
        write_matrix(b_path, bad)
        rc = run_cli("solve", "--a", str(a_path), "--b", str(b_path), "--method", method)
        assert rc == 2
        assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exp


def test_exp_mix_norms_contracts_stdev(tmp_path):
    out = tmp_path / "mn.csv"
    assert run_cli("exp", "mix-norms", "--m", "80", "--n", "80", "--seed", "1",
                   "--reps", "3", "--no-timestamp", "--out", str(out)) == 0
    config, header, rows = read_csv(out)
    assert config["name"] == "mix-norms"
    pre = header.index("pre_stdev")
    post = header.index("post_stdev")
    for row in rows:
        assert float(row[post]) < float(row[pre])


def test_exp_mix_norms_haar_rows_match_dense_mix(tmp_path):
    # the command applies the Haar reflectors; the dense V of the same draw
    # must give the same column norms
    out = tmp_path / "mn.csv"
    assert run_cli("exp", "mix-norms", "--m", "70", "--n", "90", "--seed", "4",
                   "--reps", "2", "--no-timestamp", "--out", str(out)) == 0
    _, header, rows = read_csv(out)
    haar = [row for row in rows if row[0] == "haar" and row[1] != "-"]
    root = np.random.default_rng(4)
    for row in haar:
        mat_rng, haar_rng, _ = root.spawn(3)
        dense = column_norm_stats(gen_heavytail(70, 90, mat_rng) @ haar_sample(90, haar_rng).T)
        for name, value in (("post_mean", dense.mean), ("post_stdev", dense.stdev)):
            assert_allclose(float(row[header.index(name)]), value, rtol=1e-12)
    assert len(haar) == 2


def test_exp_rr_scaling_kahan(tmp_path):
    out = tmp_path / "rr.csv"
    assert run_cli("exp", "rr-scaling", "--family", "kahan", "--sizes", "20,30",
                   "--reps", "2", "--seed", "2", "--no-timestamp",
                   "--out", str(out)) == 0
    _, header, rows = read_csv(out)
    ratio = header.index("max_ratio_r11")
    bound = header.index("bound")
    agg = header.index("agg")
    backend = header.index("backend")
    qrcp_rows = [r for r in rows if r[backend] == "qrcp" and r[agg] == "0"]
    assert qrcp_rows and all(float(r[ratio]) >= float(r[bound]) for r in qrcp_rows)
    # every (size, backend) has an aggregation row
    assert sum(1 for r in rows if r[agg] == "1") == 6


def test_exp_rvalues_gap(tmp_path):
    out = tmp_path / "rv.csv"
    assert run_cli("exp", "rvalues", "--family", "gap", "--m", "16", "--seed", "3",
                   "--no-timestamp", "--out", str(out)) == 0
    _, header, rows = read_csv(out)
    backend = header.index("backend")
    agg = header.index("agg")
    ratio = header.index("ratio")
    lower = header.index("lower_bound")
    upper = header.index("upper_bound")
    for row in rows:
        if row[backend] == "qrcp" and row[agg] == "0":
            assert float(row[lower]) * (1 - 1e-10) <= float(row[ratio])
            assert float(row[ratio]) <= float(row[upper]) * (1 + 1e-10)


def test_exp_qlp_devils_stairs(tmp_path):
    out = tmp_path / "q.csv"
    assert run_cli("exp", "qlp", "--family", "devils-stairs", "--m", "32",
                   "--stair-len", "8", "--seed", "4", "--no-timestamp",
                   "--out", str(out)) == 0
    _, header, rows = read_csv(out)
    agg_rows = [r for r in rows if r[header.index("agg")] == "1"]
    assert len(agg_rows) == 1
    # largest step-down ratio is near the stair jump of 10
    assert 2.0 < float(agg_rows[0][header.index("ratio_next")]) < 50.0


def test_exp_ls_bench_reports_all_methods(tmp_path):
    out = tmp_path / "ls.csv"
    assert run_cli("exp", "ls-bench", "--sizes", "30", "--reps", "1",
                   "--seed", "5", "--no-timestamp", "--out", str(out)) == 0
    _, header, rows = read_csv(out)
    methods = {row[header.index("method")] for row in rows}
    assert methods == {"qr-overdet", "rurv-ros-overdet", "qr-basic", "qrcp",
                       "rurv-haar-basic", "rurv-ros-basic", "rvlu-minnorm"}


def test_exp_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("exp", "spectra")
    assert info.value.code == 2


def test_exp_nonpositive_reps_is_usage_error(capsys):
    for argv in (["ls-bench", "--sizes", "20"], ["mix-norms"], ["rr-scaling"]):
        for reps in ("0", "-1"):
            with pytest.raises(SystemExit) as info:
                run_cli("exp", *argv, "--reps", reps)
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage:") and "--reps" in err


def test_nonpositive_mixes_is_usage_error(tmp_path, capsys):
    a_path, b_path = make_system(tmp_path, seed=7)
    for argv in (["factor", "--in", str(a_path), "--method", "qr"],
                 ["solve", "--a", str(a_path), "--b", str(b_path), "--method", "qr-overdet"],
                 ["exp", "qlp", "--first", "qrcp", "--m", "8"]):
        for mixes in ("0", "-1"):
            with pytest.raises(SystemExit) as info:
                run_cli(*argv, "--mixes", mixes, "--out", str(tmp_path / "out.csv"))
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage:")
            assert "argument --mixes: must be a positive integer" in err


def test_non_integer_flag_values_are_usage_errors(capsys):
    for argv, flag in ((["gen", "--m", "4", "--mixes", "x"], "--mixes"),
                       (["exp", "mix-norms", "--reps", "1.5"], "--reps"),
                       (["gen", "--m", "4", "--seed", "x"], "--seed")):
        with pytest.raises(SystemExit) as info:
            run_cli(*argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and repr(argv[-1]) in err
        assert re.search(r"(?<![\w-])_\w", err) is None, err


@pytest.mark.parametrize("family", ["kahan", "gap"])
def test_exp_rr_scaling_sizes_below_two_is_usage_error(family, capsys):
    assert run_cli("exp", "rr-scaling", "--family", family, "--sizes", "1") == 2
    assert "--sizes" in capsys.readouterr().err


def test_kahan_reference_spectrum_is_accurate():
    # the Kahan matrix is graded by rows: one-sided Jacobi over its columns
    # loses 9.5e-6 relative at the smallest singular value of order 250,
    # over its rows 1.5e-7
    a = gen_kahan(250)
    assert_allclose(_family_sigma(a, None), np.linalg.svd(a, compute_uv=False), rtol=1e-6)


# ---------------------------------------------------------------------------
# plumbing


def test_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("exp", "rr-scaling", "--family", "gap", "--sizes", "12,16",
            "--reps", "2", "--seed", "7", "--no-timestamp")
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_timestamp_appears_unless_suppressed(tmp_path):
    out = tmp_path / "t.csv"
    run_cli("exp", "mix-norms", "--m", "10", "--reps", "1", "--out", str(out))
    assert "# timestamp=" in out.read_text()
    run_cli("exp", "mix-norms", "--m", "10", "--reps", "1", "--no-timestamp",
            "--out", str(out))
    assert "timestamp" not in out.read_text()


def test_parse_sizes_forms():
    assert _parse_sizes("10,20,30") == [10, 20, 30]
    assert _parse_sizes("20:60") == [20, 40, 60]
    assert _parse_sizes("10:50:20") == [10, 30, 50]
    with pytest.raises(ValueError):
        _parse_sizes("0:10")
    with pytest.raises(ValueError):
        _parse_sizes("a,b")


def test_unwritable_output_is_io_error(tmp_path):
    assert run_cli("exp", "mix-norms", "--m", "8", "--reps", "1",
                   "--out", str(tmp_path / "missing" / "x.csv")) == 4


def test_mm_format_rejected_for_csv_commands(tmp_path):
    a_path, b_path = make_system(tmp_path, seed=6)
    assert run_cli("solve", "--a", str(a_path), "--b", str(b_path),
                   "--format", "mm") == 2


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("mixfactor ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mixfactor.cli", "gen", "--family", "kahan",
         "--m", "2", "--tau", "0", "--no-timestamp"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("%%MatrixMarket")
    assert "0.99498743710661997" in proc.stdout
