"""Unit tests for the command-line interface and its file formats."""

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lossyphase import checks, cli, sweep
from lossyphase.cli import _fmt, main, parse_loss_grid, parse_n_range
from lossyphase.loss import ReducedDensity, reduced_density

from conftest import child_env


# a fixed example sequence keeps Tier-1 reproducible and its cost bounded
GRID_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
GRID_LOSSES = st.floats(0.0, 1.0, exclude_max=True)
GRID_COUNTS = st.integers(1, cli.MAX_LOSS_GRID_POINTS)

# each bad --n-range and the message that refuses it
N_RANGE_ERRORS = {
    "5": "n-range must look like lo:hi, got '5'",
    "0:10": "need 1 <= n_min <= n_max, got 0:10",
    "9:3": "need 1 <= n_min <= n_max, got 9:3",
    "a:b": "n-range bounds must be integers, got 'a:b'",
    "1:2:3": "n-range must look like lo:hi, got '1:2:3'",
}


def read_rows(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestParsers:
    def test_n_range(self):
        assert parse_n_range("1:500") == (1, 500)
        assert parse_n_range("7:7") == (7, 7)

    @pytest.mark.parametrize("bad", N_RANGE_ERRORS)
    def test_n_range_rejects(self, bad):
        # the parser refuses the shape and the integers, the scan the range
        with pytest.raises(ValueError, match=re.escape(N_RANGE_ERRORS[bad])):
            sweep.curve(0.1, *parse_n_range(bad))

    def test_loss_grid_linear(self):
        grid = parse_loss_grid("0:0.4:5")
        assert grid == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    def test_loss_grid_log(self):
        grid = parse_loss_grid("1e-4:0.5:20:log")
        assert len(grid) == 20
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(0.5)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    @GRID_PROPERTY
    @given(GRID_LOSSES, GRID_LOSSES, GRID_COUNTS)
    @example(0.0, 1.5e-323, 8)  # a step that underflows to zero, and i * step with it
    def test_linear_grid_is_linspace_bit_for_bit(self, a, b, count):
        lo, hi = sorted((a, b))
        assert parse_loss_grid(f"{lo!r}:{hi!r}:{count}") == np.linspace(lo, hi, count).tolist()

    @GRID_PROPERTY
    @given(GRID_LOSSES.filter(lambda x: x > 0.0), GRID_LOSSES.filter(lambda x: x > 0.0), GRID_COUNTS)
    def test_log_grid_within_one_ulp_of_its_exponents(self, a, b, count):
        # each value is 10**x_i for the float exponent x_i of the linear grid
        # from log10(lo) to log10(hi), to 1 ulp of the 50-digit power
        lo, hi = sorted((a, b))
        grid = parse_loss_grid(f"{lo!r}:{hi!r}:{count}:log")
        exponents = np.linspace(math.log10(lo), math.log10(hi), count).tolist()
        assert len(grid) == count
        with mpmath.workdps(50):
            for value, x in zip(grid, exponents):
                assert abs(mpmath.mpf(value) - mpmath.power(10, x)) <= math.ulp(value), (value, x)
        if count > 1:
            assert (grid[0], grid[-1]) == (10.0 ** math.log10(lo), 10.0 ** math.log10(hi))

    def test_log_grid_endpoints_exact(self):
        # integer exponents give the nearest doubles to the powers of ten
        assert parse_loss_grid("1e-4:0.1:4:log") == [1e-4, 1e-3, 1e-2, 0.1]
        assert parse_loss_grid("1e-300:1e-300:3:log") == [1e-300] * 3

    @pytest.mark.parametrize("bad", ["0.1:0.9", "0.5:0.1:5", "0:0.5:0", "0:1.0:5", "0:0.5:5:lin",
                                     "0.5:0.1:1", "0.1:nan:1"])
    def test_loss_grid_rejects(self, bad):
        # the parser refuses the shape and the size, the library the values;
        # a one-point grid's hi, which the library never sees, too
        with pytest.raises(ValueError):
            sweep.nopt_vs_loss(parse_loss_grid(bad), 10)

    @pytest.mark.parametrize("text", ["0.1:0.2:1", "0.1:0.1:1"])
    def test_one_point_grid_is_lo(self, text):
        assert parse_loss_grid(text) == [0.1]

    @pytest.mark.parametrize("bad,message", [
        ("0.5:0:3:log", "log-spaced loss-grid needs lo > 0 and hi > 0"),
        ("0:0.5:3:log", "log-spaced loss-grid needs lo > 0 and hi > 0"),
        ("0.5:1.7976931348623157e308:2:log", ", got 1.7976931348623157e+308"),
        ("nan:0.5:3:log", "log-spaced loss-grid needs lo > 0 and hi > 0"),
        ("0.5:2:3:log", "loss must be < 1, got 2.0"),
        ("0.5:1e308:3:log", ", got 1e+308"),
        ("1e-3:1e-5:3:log", "loss grid must not descend, got 0.001 then 1e-05"),
    ])
    def test_log_grid_ends(self, bad, message):
        # log10 needs positive ends, and NaN is not one; then the typed ends,
        # not their powers, meet the library's grid rule
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep.nopt_vs_loss(parse_loss_grid(bad), 10)

    def test_fmt_inf(self):
        assert _fmt(math.inf) == "inf"

    def test_fmt_round_trips(self):
        for x in (0.1, 1 / 3, math.pi, 2.0**-40):
            assert float(_fmt(x)) == x


class TestCurveCommand:
    def test_csv_format_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["curve", "--loss", "0", "--n-range", "1:100"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        comments, header, rows = read_rows(out1)
        assert header == "n,delta_phi,shot_noise,heisenberg"
        assert len(rows) == 100
        assert any(c == "normalized = false" for c in comments)
        for row in rows:
            n = int(row[0])
            assert float(row[1]) == pytest.approx(math.tan(math.pi / (n + 2)), rel=1e-9)
            assert float(row[2]) == pytest.approx(1 / math.sqrt(n), rel=1e-12)

    def test_plot_script_references_data(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--loss", "0.3", "--n-range", "1:20", "--out", str(out)]) == 0
        script = tmp_path / "curve.csv.gp"
        assert script.exists()
        assert "curve.csv" in script.read_text()

    def test_json_format(self, tmp_path):
        out = tmp_path / "curve.json"
        rc = main(
            ["curve", "--loss", "0.1", "--n-range", "1:5", "--format", "json", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "rows"}
        assert payload["config"]["loss"] == 0.1
        assert payload["config"]["n_range"] == "1:5"
        assert [row["n"] for row in payload["rows"]] == [1, 2, 3, 4, 5]
        assert set(payload["rows"][0]) == {"n", "delta_phi", "shot_noise", "heisenberg"}
        assert (tmp_path / "curve.json_plot.py").exists()

    def test_unwritable_path(self, tmp_path, capsys):
        rc = main(["curve", "--loss", "0.1", "--n-range", "1:5", "--out", str(tmp_path / "no/dir.csv")])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_normalized_stamp(self, tmp_path):
        out = tmp_path / "norm.csv"
        assert main(["curve", "--loss", "0.2", "--n-range", "1:10", "--normalized", "--out", str(out)]) == 0
        comments, _, _ = read_rows(out)
        assert any(c == "normalized = true" for c in comments)


class TestNOptCommand:
    def test_sentinel_for_zero_loss(self, tmp_path):
        out = tmp_path / "nopt.csv"
        rc = main(["nopt", "--loss-grid", "0:0.4:3", "--n-max", "60", "--jobs", "1", "--out", str(out)])
        assert rc == 0
        _, header, rows = read_rows(out)
        assert header == "loss,n_opt"
        assert rows[0][1] == "none"
        assert rows[1][1] != "none"

    def test_non_increasing_column_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["nopt", "--loss-grid", "0.05:0.5:6", "--n-max", "120", "--jobs", "1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        _, _, rows = read_rows(out1)
        opts = [int(r[1]) for r in rows]
        assert all(a >= b for a, b in zip(opts, opts[1:]))

    def test_json_none_is_null(self, tmp_path):
        out = tmp_path / "nopt.json"
        rc = main(["nopt", "--loss-grid", "0:0.3:2", "--n-max", "50", "--jobs", "1",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["n_opt"] is None
        assert isinstance(payload["rows"][1]["n_opt"], int)

    @pytest.mark.parametrize("grid,loss", [("0.1:0.1:3", 0.1), ("0:0:2", 0.0)])
    def test_repeated_grid_values(self, tmp_path, grid, loss):
        # the parser yields repeated values for lo = hi; nopt keeps one row per
        # grid point, each with the n_opt of that loss on its own
        assert parse_loss_grid(grid) == [loss] * int(grid.split(":")[2])
        out = tmp_path / "nopt.csv"
        assert main(["nopt", "--loss-grid", grid, "--n-max", "80", "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        n_opt = sweep.curve(loss, 1, 80).n_opt
        expected = [_fmt(loss), "none" if n_opt is None else str(n_opt)]
        assert rows == [expected] * len(parse_loss_grid(grid))

    @pytest.mark.parametrize("grid", ["0.1:0.1:3", "0:0:2"])
    def test_library_repeats_rows_of_repeated_values(self, grid):
        pairs = sweep.nopt_vs_loss(parse_loss_grid(grid), 80)
        assert len(pairs) == int(grid.split(":")[2])
        assert len(set(pairs)) == 1

    def test_near_total_loss_row(self, tmp_path):
        # S is below 1e-13 here, and ranking by 1 - S, which rounds to 1, gave 903
        out = tmp_path / "nopt.csv"
        argv = ["nopt", "--loss-grid", "0.9999999999999992:0.9999999999999992:1", "--n-max", "3318"]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1] == "0.99999999999999922,1"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_header_records_n_max(self, tmp_path, fmt):
        # whether n_opt is none depends on --n-max, so the header must say which
        headers = []
        for n_max in ("50", "500"):
            out = tmp_path / f"nopt{n_max}.{fmt}"
            argv = ["nopt", "--loss-grid", "0.01:0.2:3", "--n-max", n_max, "--format", fmt]
            assert main(argv + ["--out", str(out)]) == 0
            if fmt == "csv":
                headers.append([line for line in out.read_text().splitlines() if line.startswith("# ")])
            else:
                headers.append(json.loads(out.read_text())["config"])
        assert headers[0] != headers[1]
        if fmt == "csv":
            assert "# n_max = 500" in headers[1]
        else:
            assert headers[1]["n_max"] == 500

    def test_largest_accepted_input(self, tmp_path):
        # 1024 losses x N <= 4096 runs one loss at a time and reads about 24
        # points of each: measured 15.0 MB of peak RSS against 14.8 MB for one
        # loss, in about 0.2 s of CPU (2 vCPUs), where a (losses x N) array
        # would add 32 MB
        out = tmp_path / "nopt.csv"
        argv = ["nopt", "--loss-grid", "1e-7:0.9:1024:log", "--n-max", "4096", "--out", str(out)]
        one_loss = ["nopt", "--loss-grid", "1e-7:1e-7:1", "--n-max", "4096", "--out", str(tmp_path / "one.csv")]
        assert child_peak_rss_kb(argv, tmp_path) < child_peak_rss_kb(one_loss, tmp_path) + 2048
        _, _, rows = read_rows(out)
        assert len(rows) == 1024 and rows[-1][1] != "none"

    @pytest.mark.parametrize("jobs", ["1", "2", "0", "-3", "5000"])
    def test_parallel_jobs_match_serial(self, tmp_path, jobs):
        # --jobs is accepted and ignored: nopt runs in this process whatever it says
        plain, with_jobs = tmp_path / "plain.csv", tmp_path / "jobs.csv"
        base = ["nopt", "--loss-grid", "0.1:0.5:4", "--n-max", "80"]
        assert main(base + ["--out", str(plain)]) == 0
        assert main(base + ["--jobs", jobs, "--out", str(with_jobs)]) == 0
        assert plain.read_bytes() == with_jobs.read_bytes()


# spawns ``python -m lossyphase`` on argv[1:] and prints its exit code and peak
# RSS (kB on Linux); a child's figure starts from the peak RSS of the process
# that spawned it, so this small process, not the test process, is the parent
PEAK_RSS_OF_JOB = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, '-m', 'lossyphase', *sys.argv[1:]], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def child_peak_rss_kb(argv, cwd) -> int:
    """Peak RSS of ``python -m lossyphase argv`` in a fresh process; the job must exit 0."""
    run = subprocess.run([sys.executable, "-c", PEAK_RSS_OF_JOB, *argv], capture_output=True, text=True,
                         cwd=cwd, env=child_env(), timeout=120, check=True)
    code, peak = map(int, run.stdout.splitlines()[-1].split())
    assert code == 0, run.stderr
    return peak


class TestDistCommand:
    def test_lossless_two_photons(self, tmp_path):
        out = tmp_path / "dist.csv"
        rc = main(["dist", "--loss", "0", "--n", "2", "--phi-samples", "256", "--out", str(out)])
        assert rc == 0
        comments, header, rows = read_rows(out)
        assert header == "phi,p"
        assert len(rows) == 256
        integral = [c for c in comments if c.startswith("integral_p")]
        assert integral and float(integral[0].split("=")[1]) == pytest.approx(1.0, abs=1e-12)
        values = [float(r[1]) for r in rows]
        assert values.index(max(values)) == 0  # peak at phi = 0
        assert all(v >= 0 for v in values)

    def test_subnormalized_integral_header(self, tmp_path):
        out = tmp_path / "dist.csv"
        rc = main(["dist", "--loss", "0.3", "--n", "1", "--phi-samples", "128", "--out", str(out)])
        assert rc == 0
        comments, _, _ = read_rows(out)
        integral = [c for c in comments if c.startswith("integral_p")][0]
        assert float(integral.split("=")[1]) == pytest.approx(0.85, abs=1e-10)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_runs_in_the_memory_of_a_one_point_curve(self, tmp_path, fmt):
        # the closed form on the standard library, streamed: N = 256 with 65536
        # samples, a file over 2 MB in either format, peaks 0.1-0.3 MB above a
        # one-point curve process (importing numpy adds 12)
        out = tmp_path / f"d.{fmt}"
        argv = ["dist", "--loss", "0.02", "--n", "256", "--phi-samples", "65536",
                "--format", fmt, "--out", str(out)]
        one_point = ["curve", "--loss", "0.02", "--n-range", "1:1", "--out", str(tmp_path / "c.csv")]
        assert child_peak_rss_kb(argv, tmp_path) < child_peak_rss_kb(one_point, tmp_path) + 2048
        assert out.stat().st_size > 2_000_000

    def test_minimum_samples(self, tmp_path, capsys):
        rc = main(["dist", "--loss", "0", "--n", "2", "--phi-samples", "32", "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert "phi-samples" in capsys.readouterr().err


class TestPhotonNumberCap:
    @pytest.mark.parametrize("args", [
        ["curve", "--loss", "0.1", "--n-range", "1:4097"],
        ["nopt", "--loss-grid", "0.1:0.1:1", "--n-max", "4097"],
        ["dist", "--loss", "0.1", "--n", "4097", "--phi-samples", "20000"],
    ])
    def test_above_cap_exits_2(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path / "x.csv")]) == 2
        assert "photon number 4097 exceeds the supported maximum 4096" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args", [
        ["curve", "--loss", "0.1", "--n-range", "1:4097"],
        ["nopt", "--loss-grid", "0.1:0.2:3", "--n-max", "4097"],
    ])
    def test_above_cap_computes_no_point(self, tmp_path, capsys, monkeypatch, args):
        def no_point(*_):
            raise AssertionError("a curve point was computed before the cap check")

        monkeypatch.setattr(sweep, "_sine_sharpness", no_point)
        assert main(args + ["--out", str(tmp_path / "x.csv")]) == 2
        assert "photon number 4097 exceeds the supported maximum 4096" in capsys.readouterr().err


DUAL_PATH_ROW = next(check for check in checks.CHECKS
                     if check[0] == "1 - S, closed form vs density (relative)")

# faults in rho's factors that the dual-path row must see: they moved its
# defect to 1.15, 2.0e-9 and 2.0e-12 against a tolerance of 2e-15
DENSITY_FAULTS = {
    "last kept block dropped": lambda factors: {
        ell: w for ell, w in factors.items() if ell == 0 or ell < max(factors)},
    "block 0 scaled by 1 + 1e-9": lambda factors: {
        ell: w * (1 + 1e-9) if ell == 0 else w for ell, w in factors.items()},
    "lost blocks scaled by 1 + 1e-12": lambda factors: {
        ell: w if ell == 0 else w * (1 + 1e-12) for ell, w in factors.items()},
}


class TestValidateCommand:
    def test_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("check", checks.CHECKS, ids=[check[0] for check in checks.CHECKS])
    def test_row_within_tolerance(self, check):
        # the rows validate prints, each on its own grid
        name, tol = check[:2]
        defect, witness = checks.worst_defect(check)
        assert defect <= tol, f"{name}: defect {defect:.3e} above {tol:.0e} at {witness}"

    @pytest.mark.parametrize("bad", [1e-3, math.nan])
    def test_failing_row_is_reported_once(self, monkeypatch, capsys, bad):
        # a middle row fails at one grid point; every row still prints and
        # stderr names the failure in one line
        rows_in = list(checks.CHECKS)
        name, _, _, photon_numbers, losses = rows_in[2]

        def failing(n, loss):
            return bad if (n, loss) == (5, 0.3) else 0.0

        rows_in[2] = (name, 0.0, failing, photon_numbers, losses)
        monkeypatch.setattr(checks, "CHECKS", tuple(rows_in))
        assert main(["validate"]) == 3
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[1:]
        assert [row[:40].rstrip() for row in rows] == [check[0] for check in rows_in]
        assert rows[2].endswith(" FAIL at N=5 L=0.3")
        assert all(row.endswith(" PASS") for i, row in enumerate(rows) if i != 2)
        assert captured.err == (
            f"validation failed: {name} defect {bad:.3e} exceeds 0.000e+00 at N=5 L=0.3\n"
        )

    @pytest.mark.parametrize("fault", DENSITY_FAULTS.values(), ids=list(DENSITY_FAULTS))
    def test_dual_path_row_sees_a_faulted_density(self, monkeypatch, fault):
        # the row reads both of its sides through the library, so a density
        # path that drifts from the closed form must push it past its tolerance
        def faulted(state, loss):
            rho = reduced_density(state, loss)
            return ReducedDensity(rho.n_photons, fault(rho.factors))

        monkeypatch.setattr("lossyphase.loss.reduced_density", faulted)
        assert checks.worst_defect(DUAL_PATH_ROW)[0] > DUAL_PATH_ROW[1]

    @pytest.mark.parametrize("variant", [False, True], ids=["raw", "normalized"])
    def test_dual_path_row_sees_a_faulted_closed_form(self, monkeypatch, variant):
        # 1 - S that curve publishes, scaled by 1 + 1e-12 in one variant only,
        # moves the row's defect to 1.0e-12 against a tolerance of 2e-15
        published = sweep._sine_sharpness

        def faulted(loss, normalized):
            point = published(loss, normalized)
            if normalized != variant:
                return point

            def scaled(n):
                sharp, defect, mass = point(n)
                return sharp, defect * (1 + 1e-12), mass

            return scaled

        monkeypatch.setattr(sweep, "_sine_sharpness", faulted)
        assert checks.worst_defect(DUAL_PATH_ROW)[0] > DUAL_PATH_ROW[1]


# each command's options besides -h, in the order the parser adds them; a knob
# added or removed is an edit of this table
COMMAND_OPTIONS = {
    "curve": ["--loss", "--n-range", "--out", "--format", "--normalized"],
    "nopt": ["--loss-grid", "--n-max", "--jobs", "--out", "--format"],
    "dist": ["--loss", "--n", "--phi-samples", "--out", "--format"],
    "validate": [],
}


def test_option_inventory():
    parser = cli.build_parser()
    [commands] = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    assert {name: [option for action in command._actions for option in action.option_strings
                   if option not in ("-h", "--help")]
            for name, command in commands.choices.items()} == COMMAND_OPTIONS


def _run_in(directory, monkeypatch, argv):
    """Exit code of the CLI run in ``directory``; argparse's own exit counts as one."""
    monkeypatch.chdir(directory)
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestDomainEdges:
    # every input at an edge of the accepted domain works or is refused with a
    # message; none raises, leaves a partial file or writes a NaN
    @pytest.mark.parametrize("argv,code", [
        (["curve", "--loss", "0.1", "--n-range", "1:1"], 0),
        (["curve", "--loss", "0.1", "--n-range", "4096:4096"], 0),
        (["curve", "--loss", "0", "--n-range", "1:8"], 0),
        (["curve", "--loss", "0.9999999999999999", "--n-range", "1:8"], 0),
        (["curve", "--loss", "0.9999999999999999", "--n-range", "4096:4096", "--normalized"], 0),
        (["curve", "--loss", "nan", "--n-range", "1:8"], 2),
        (["curve", "--loss", "inf", "--n-range", "1:8"], 2),
        (["curve", "--loss=-1e-300", "--n-range", "1:8"], 2),
        (["curve", "--loss", "-1e-300", "--n-range", "1:8"], 2),
        (["curve", "--loss", "-h"], 2),
        (["curve", "--loss", "0.1", "--n-range", "0:5"], 2),
        (["dist", "--loss", "nan", "--n", "2"], 2),
        (["nopt", "--loss-grid", "0.1:0.1:1", "--n-max", "40"], 0),
        (["nopt", "--loss-grid", "nan:0.1:3", "--n-max", "40"], 2),
        (["nopt", "--loss-grid", "0.1:0.2:3", "--n-max", "0"], 2),
        (["nopt", "--loss-grid", "0.5:0.1:5"], 2),
        (["nopt", "--loss-grid", "0:1.0:5"], 2),
        (["dist", "--loss", "0.1", "--n", "0"], 2),
        (["dist", "--loss", "0.1", "--n", "20", "--phi-samples", "84"], 0),
        (["dist", "--loss", "0.1", "--n", "20", "--phi-samples", "83"], 2),
        (["dist", "--loss", "0.1", "--n", "1", "--phi-samples", "1048577"], 2),
        (["dist", "--loss", "0.1", "--n", "1", "--phi-samples", "1000000000000"], 2),
        (["dist", "--loss", "0.3", "--n", "2", "--phi-samples", "64", "--normalized"], 2),
        (["nopt", "--loss-grid", "0:0.3:2", "--n-max", "50", "--normalized"], 2),
        (["nopt", "--loss-grid", "0.1:0.2:1024", "--n-max", "2"], 0),
        (["nopt", "--loss-grid", "0.1:0.2:1025", "--n-max", "2"], 2),
        (["nopt", "--loss-grid", "0.1:0.2:1000000000000", "--n-max", "2"], 2),
        (["validate"], 0),
    ], ids=lambda value: "_".join(value) if isinstance(value, list) else None)
    def test_exits_0_or_2(self, tmp_path, monkeypatch, capsys, argv, code):
        assert _run_in(tmp_path, monkeypatch, argv) == code
        captured = capsys.readouterr()
        written = sorted(path.name for path in tmp_path.iterdir())
        if code == 0:
            assert captured.err == ""
            if argv[0] != "validate":
                data = tmp_path / f"{argv[0]}.csv"
                assert written == [data.name, data.name + ".gp"]
                assert "nan" not in data.read_text()
        else:
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if "error:" in line]
            assert len(errors) == 1 and captured.err.splitlines()[-1] == errors[0]
            assert written == []

    @pytest.mark.parametrize("argv", [
        ["nopt", "--loss-grid", "-0.0:0.3:1", "--n-max", "50"],
        ["curve", "--loss", "-0", "--n-range", "1:8"],
        ["curve", "--loss", "-0", "--n-range", "1:8", "--format", "json"],
        ["dist", "--loss", "-0.0", "--n", "2", "--phi-samples", "64"],
        ["dist", "--loss", "-0.0", "--n", "2", "--phi-samples", "64", "--format", "json"],
    ], ids="_".join)
    def test_negative_zero_loss_is_written_as_zero(self, tmp_path, monkeypatch, argv):
        # -0 passes the loss rule, and its files are those of +0 but for the
        # grid nopt's header repeats as typed: no header or row shows -0
        negative = next(word for word in argv if word.startswith("-0"))
        data = f"{argv[0]}.{'json' if 'json' in argv else 'csv'}"
        texts = []
        for name, word in (("negative", negative), ("positive", negative[1:])):
            (tmp_path / name).mkdir()
            assert _run_in(tmp_path / name, monkeypatch, [word if w == negative else w for w in argv]) == 0
            texts.append((tmp_path / name / data).read_text(encoding="utf-8"))
        assert texts[0] == texts[1].replace(f"loss_grid = {negative[1:]}", f"loss_grid = {negative}")

    @pytest.mark.parametrize("argv,shown", [
        (["curve", "--loss=-1e-300", "--n-range", "1:8"], "loss must be >= 0, got -1e-300"),
        (["curve", "--loss", "-1e-300", "--n-range", "1:8"], "loss must be >= 0, got -1e-300"),
        (["curve", "--n-range", "1:8", "--loss", "-.5"], "loss must be >= 0, got -0.5"),
        (["dist", "--loss", "-1e-300", "--n", "2"], "loss must be >= 0, got -1e-300"),
        (["nopt", "--loss-grid", "-0.1:0.2:3"], "loss must be >= 0, got -0.1"),
        (["curve", "--loss", "0.1", "--n-range", "-1:5"], "need 1 <= n_min <= n_max, got -1:5"),
        (["curve", "--loss", "-inf", "--n-range", "1:8"], "loss must be >= 0, got -inf"),
        (["curve", "--loss", "-Infinity", "--n-range", "1:8"], "loss must be >= 0, got -inf"),
        (["curve", "--loss", "-nan", "--n-range", "1:8"], "loss must be >= 0, got nan"),
        (["nopt", "--loss-grid", "-inf:0.1:3"], "loss must be >= 0, got -inf"),
    ], ids=lambda value: "_".join(value) if isinstance(value, list) else value.split()[-1])
    def test_negative_loss_message(self, tmp_path, monkeypatch, capsys, argv, shown):
        # a negative value after --loss, --loss-grid or --n-range reaches the
        # library's check in any spelling
        assert _run_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == f"error: {shown}\n"

    @pytest.mark.parametrize("argv,message", [
        (["curve", "--loss", "inf", "--n-range", "1:8"], "loss must be < 1, got inf"),
        (["nopt", "--loss-grid", "0.5:0.1:1"], "loss grid must not descend, got 0.5 then 0.1"),
        (["nopt", "--loss-grid", "0.1:nan:1"], "loss must be >= 0, got nan"),
        (["nopt", "--loss-grid", "0:inf:3"], "loss must be < 1, got inf"),
        (["curve", "--loss", "1.0"], "loss must be < 1, got 1.0"),
        (["curve", "--loss", "0.1", "--n-range", "9:3"], "need 1 <= n_min <= n_max, got 9:3"),
        (["nopt", "--loss-grid", "0.1:0.2:3", "--n-max", "0"], "n-max must be >= 1, got 0"),
        (["dist", "--loss", "0", "--n", "20", "--phi-samples", "64"],
         "64 phase samples are below the Nyquist guard 84 for N = 20"),
        # a bad N and a bad loss: N is checked first, so it is the one reported
        (["dist", "--loss", "-0.1", "--n", "0"], "photon number must be >= 1, got 0"),
    ], ids=lambda value: "_".join(value) if isinstance(value, list) else None)
    def test_library_message(self, tmp_path, monkeypatch, capsys, argv, message):
        # the whole stderr is the library's message; +inf is at or above 1, not
        # below 0; a one-point grid's hi is checked, and a grid's typed ends are
        # checked before 0 * inf can make a NaN
        assert _run_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# The exact header block, column line, JSON key order and plot-script name of
# each command, written with the default --out into the working directory;
# only curve and nopt carry ``normalized``, and nopt's is always false.
FORMAT_CASES = {
    "curve": (
        ["--loss", "0.25", "--n-range", "1:3"],
        [("normalized", False), ("loss", 0.25), ("n_range", "1:3")],
        {},
        "n,delta_phi,shot_noise,heisenberg",
    ),
    "nopt": (
        ["--loss-grid", "0:0.3:2", "--n-max", "50"],
        [("normalized", False), ("loss_grid", "0:0.3:2"), ("n_max", 50)],
        {},
        "loss,n_opt",
    ),
    "dist": (
        ["--loss", "0.25", "--n", "2", "--phi-samples", "64"],
        [("loss", 0.25), ("n", 2), ("phi_samples", 64)],
        # the closed form's M, 1 ulp above the exact 49/64 (the FFT's sum of
        # squares gave 1 ulp below)
        {"integral_p": ("0.76562500000000011", 0.7656250000000001)},
        "phi,p",
    ),
}


class TestFileFormats:
    @pytest.mark.parametrize("command", sorted(FORMAT_CASES))
    def test_csv_layout(self, tmp_path, monkeypatch, capsys, command):
        argv, config, extra, columns = FORMAT_CASES[command]
        monkeypatch.chdir(tmp_path)
        assert main([command] + argv) == 0
        assert capsys.readouterr().out == f"wrote {command}.csv and {command}.csv.gp\n"
        lines = (tmp_path / f"{command}.csv").read_text().splitlines()
        expected = [f"# command = {command}", "# format = csv"]
        expected += [f"# {key} = {json.dumps(value) if isinstance(value, bool) else value}"
                     for key, value in config]
        expected += [f"# {key} = {text}" for key, (text, _) in extra.items()]
        assert lines[: len(expected) + 1] == expected + [columns]
        assert not lines[len(expected) + 1].startswith("#")
        assert f"'{command}.csv'" in (tmp_path / f"{command}.csv.gp").read_text()

    @pytest.mark.parametrize("command", sorted(FORMAT_CASES))
    def test_json_layout(self, tmp_path, monkeypatch, capsys, command):
        argv, config, extra, columns = FORMAT_CASES[command]
        monkeypatch.chdir(tmp_path)
        assert main([command] + argv + ["--format", "json"]) == 0
        assert capsys.readouterr().out == f"wrote {command}.json and {command}.json_plot.py\n"
        payload = json.loads((tmp_path / f"{command}.json").read_text())
        assert list(payload) == ["config"] + list(extra) + ["rows"]
        expected = {"command": command, "format": "json", **dict(config)}
        assert list(payload["config"]) == list(expected)
        assert payload["config"] == expected
        assert {key: payload[key] for key in extra} == {k: v for k, (_, v) in extra.items()}
        assert all(list(row) == columns.split(",") for row in payload["rows"])
        assert f"'{command}.json'" in (tmp_path / f"{command}.json_plot.py").read_text()


# tests/golden holds the files these command lines wrote before rows were
# streamed into the open file: CSV must still match byte for byte, and JSON,
# whose layout changed to one row per line, must parse to the same payload.
# The curve files' N = 3 delta-phi is the C library's; it was written on a
# host where numpy's AVX-512 expm1 put it 2 ulp higher
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = {
    "curve": ["--loss", "0.25", "--n-range", "1:3"],
    "nopt": ["--loss-grid", "0:0.3:3", "--n-max", "50"],
    "dist": ["--loss", "0.25", "--n", "2", "--phi-samples", "64"],
}

# rows with an inf and a none cell, written by _emit itself (no command yields
# them from this configuration) from one iterable per column; the CSV bytes
# are those of the same rows before streaming
EDGE_COLUMNS = ([1, 2, 3], [0.1, math.inf, None])
EDGE_CSV = (
    "# command = curve\n# format = csv\n# loss = 0.5\n# integral_p = inf\n"
    "n,delta_phi\n1,0.10000000000000001\n2,inf\n3,none\n"
)
EDGE_JSON = (
    '{"config": {"command": "curve", "format": "json", "loss": 0.5}, "integral_p": "inf", "rows": [\n'
    '{"n": 1, "delta_phi": 0.1},\n'
    '{"n": 2, "delta_phi": "inf"},\n'
    '{"n": 3, "delta_phi": null}\n'
    "]}\n"
)

# sha256 of 4096-point curve files as the C library's expm1, sin, cos, tan and
# pow give them, the same on every CPU; numpy's AVX-512 kernels rounded 301
# rows of the 7e-4 file differently, and x ** 2 in place of x * x changes a
# row of each raw file
CURVE_DIGESTS = {
    "7e-4": "7d6984505e48f868fba086f95244917c09bfb5264cc2ce68e6946397fbaa4308",
    "0.0123": "9c7c261ed39f997bbb830752423aef43f590c078d403a5fb6311b24177a051a5",
    "1.3e-5 normalized": "d32e56045db8d16298e90408f74783c408eb76a8e7bf200cf603392d849c846c",
}


def _emit_edge_rows(directory, fmt):
    out = directory / f"edge.{fmt}"
    args = argparse.Namespace(command="curve", format=fmt, out=str(out))
    assert cli._emit(args, {"loss": 0.5}, ("n", "delta_phi"), map(iter, EDGE_COLUMNS),
                     logscale=True, ylabel="delta_phi", extra={"integral_p": math.inf}) == 0
    return out.read_text(encoding="utf-8")


class TestStreamedFiles:
    @pytest.mark.parametrize("command", sorted(GOLDEN_CASES))
    def test_csv_bytes_match_golden(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert main([command] + GOLDEN_CASES[command]) == 0
        assert (tmp_path / f"{command}.csv").read_bytes() == (GOLDEN / f"{command}.csv").read_bytes()

    @pytest.mark.parametrize("case", CURVE_DIGESTS)
    def test_curve_bytes_pinned(self, tmp_path, case):
        loss, *flags = case.split()
        out = tmp_path / "curve.csv"
        argv = ["curve", "--loss", loss, "--n-range", "1:4096", "--out", str(out)]
        assert main(argv + [f"--{flag}" for flag in flags]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CURVE_DIGESTS[case]

    def test_csv_bytes_of_inf_and_none_cells(self, tmp_path):
        assert _emit_edge_rows(tmp_path, "csv") == EDGE_CSV

    @pytest.mark.parametrize("command", sorted(GOLDEN_CASES))
    def test_json_rows_one_per_line(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert main([command] + GOLDEN_CASES[command] + ["--format", "json"]) == 0
        text = (tmp_path / f"{command}.json").read_text(encoding="utf-8")
        payload = json.loads(text)
        assert payload == json.loads((GOLDEN / f"{command}.json").read_text(encoding="utf-8"))
        lines = text.split("\n")
        assert lines[0].endswith(', "rows": [') and lines[-2:] == ["]}", ""]
        rows = [json.dumps(row) for row in payload["rows"]]
        assert lines[1:-2] == [row + "," for row in rows[:-1]] + rows[-1:]

    @pytest.mark.parametrize("command,text", [
        ("curve",
         '{"config": {"command": "curve", "format": "json", "normalized": false, "loss": 0.25, '
         '"n_range": "1:3"}, "rows": [\n'
         '{"n": 1, "delta_phi": 2.081665999466132, "shot_noise": 1.0, "heisenberg": 1.7320508075688767},\n'
         '{"n": 2, "delta_phi": 1.5757516293118374, "shot_noise": 0.7071067811865475, '
         '"heisenberg": 0.9999999999999999},\n'
         '{"n": 3, "delta_phi": 1.5685548693388036, "shot_noise": 0.5773502691896258, '
         '"heisenberg": 0.7265425280053609}\n'
         "]}\n"),
        ("nopt",
         '{"config": {"command": "nopt", "format": "json", "normalized": false, "loss_grid": "0:0.3:3", '
         '"n_max": 50}, "rows": [\n'
         '{"loss": 0.0, "n_opt": null},\n'
         '{"loss": 0.15, "n_opt": 3},\n'
         '{"loss": 0.3, "n_opt": 2}\n'
         "]}\n"),
    ])
    def test_json_text(self, tmp_path, monkeypatch, command, text):
        monkeypatch.chdir(tmp_path)
        assert main([command] + GOLDEN_CASES[command] + ["--format", "json"]) == 0
        assert (tmp_path / f"{command}.json").read_text(encoding="utf-8") == text

    def test_json_text_of_inf_and_none_cells(self, tmp_path):
        text = _emit_edge_rows(tmp_path, "json")
        assert text == EDGE_JSON
        assert json.loads(text) == {
            "config": {"command": "curve", "format": "json", "loss": 0.5}, "integral_p": "inf",
            "rows": [{"n": 1, "delta_phi": 0.1}, {"n": 2, "delta_phi": "inf"},
                     {"n": 3, "delta_phi": None}],
        }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_curve_streams_the_columns(self, tmp_path, monkeypatch, fmt):
        # run_curve reads the result's arrays, never its per-point view
        def no_points(_):
            raise AssertionError("curve emission read SweepResult.points")

        monkeypatch.setattr(sweep.SweepResult, "points", property(no_points))
        monkeypatch.chdir(tmp_path)
        assert main(["curve"] + GOLDEN_CASES["curve"] + ["--format", fmt]) == 0
        written, golden = (tmp_path / f"curve.{fmt}").read_bytes(), (GOLDEN / f"curve.{fmt}").read_bytes()
        assert written == golden if fmt == "csv" else json.loads(written) == json.loads(golden)

    @pytest.mark.parametrize("command,argv", [
        ("curve", ["--loss", "0.1", "--n-range", "1:4097"]),
        ("nopt", ["--loss-grid", "0.1:0.2:3", "--n-max", "4097"]),
        ("dist", ["--loss", "0.1", "--n", "20", "--phi-samples", "64"]),
    ])
    def test_rejected_input_leaves_an_earlier_file_alone(self, tmp_path, monkeypatch, command, argv):
        # every check runs before the data file is opened, so a refused run
        # neither truncates nor removes what an earlier run wrote
        monkeypatch.chdir(tmp_path)
        (tmp_path / f"{command}.csv").write_text("earlier\n", encoding="utf-8")
        assert main([command] + argv) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{command}.csv"]
        assert (tmp_path / f"{command}.csv").read_text(encoding="utf-8") == "earlier\n"

    @staticmethod
    def _fail_after_one_slice(monkeypatch):
        # slices of one row, and the first column raises once its first row is read
        emit = cli._emit

        def emit_failing_after_one_slice(args, config, names, columns, *rest, **kwargs):
            def failing(column):
                yield next(iter(column))
                raise OSError("device full")
            first, *others = columns
            return emit(args, config, names, (failing(first), *others), *rest, **kwargs)

        monkeypatch.setattr(cli, "ROW_SLICE", 1)
        monkeypatch.setattr(cli, "_emit", emit_failing_after_one_slice)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(GOLDEN_CASES))
    def test_failure_while_streaming_leaves_no_file(self, tmp_path, monkeypatch, capsys, command, fmt):
        self._fail_after_one_slice(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert main([command] + GOLDEN_CASES[command] + ["--format", fmt]) == 2
        assert capsys.readouterr().err == "error: cannot write output: device full\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_failure_while_streaming_keeps_a_fifo(self, tmp_path, monkeypatch, capsys):
        # only a regular file is removed: a FIFO (or a device) named by
        # --out is not the writer's to delete
        fifo = tmp_path / "rows"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        self._fail_after_one_slice(monkeypatch)
        try:
            assert main(["curve"] + GOLDEN_CASES["curve"] + ["--out", str(fifo)]) == 2
        finally:
            if reader.is_alive():  # unblock a reader whose writer never opened the pipe
                with contextlib.suppress(OSError):
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert capsys.readouterr().err == "error: cannot write output: device full\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows"]
        assert received[0].startswith(b"# command = curve\n")


class TestRowSlices:
    # the goldens hold 3 rows and the benchmark's jobs multiples of 512, so
    # these lengths are the ones that cross or end on a slice boundary
    @pytest.mark.parametrize("length", [1, 511, 512, 513, 1025])
    @pytest.mark.parametrize("kind", [tuple, list, lambda column: map(float, column), iter])
    def test_slices_cut_every_column_at_the_same_rows(self, length, kind):
        n = list(range(length))
        half = [0.5 * k for k in n]
        blocks = list(cli._slices((kind(n), kind(half))))
        step = cli.ROW_SLICE
        assert blocks == [(n[start : start + step], half[start : start + step]) for start in range(0, length, step)]
        assert all(type(column) is list for block in blocks for column in block)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dist_columns_across_slices(self, tmp_path, fmt):
        # 1000 rows: one full slice and a partial one, each value kept bitwise
        out = tmp_path / f"dist.{fmt}"
        argv = ["dist", "--loss", "0.1", "--n", "7", "--phi-samples", "1000", "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        if fmt == "csv":
            rows = [[float(cell) for cell in row] for row in read_rows(out)[2]]
        else:
            rows = [[row["phi"], row["p"]] for row in json.loads(out.read_text(encoding="utf-8"))["rows"]]
        phi, p = zip(*rows)
        step = 2.0 * math.pi / 1000
        assert [x.hex() for x in phi] == [(k * step).hex() for k in range(1000)]
        assert [x.hex() for x in p] == [x.hex() for x in sweep.sine_density(0.1, 7, 1000)]
