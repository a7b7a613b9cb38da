"""The benchmark scripts under bench/ still bind to the library they measure.

``bench/traced.py`` wraps library functions by attribute name and reads the
density matrix the way the density script does; a renamed function or a
changed return type would only show up as a failed ``--trace 1`` run, and a
command line the CLI no longer accepts only as a fall in ``ok_frac``. These
tests import the scripts and run their library-facing parts on small inputs.
"""

import importlib
import json
from pathlib import Path

import mpmath
import pytest

from lossyphase import cli, curve, optimal_amplitudes, reduced_density

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_every_traced_target_exists(bench_module):
    traced = bench_module("traced")
    targets = traced._targets()
    assert targets
    for name, owner, attr, _ in targets:
        assert attr in vars(owner), name


def test_block_counter_reads_reduced_density(bench_module):
    traced = bench_module("traced")
    tracer = traced.Tracer()
    traced._count_blocks(tracer, reduced_density(optimal_amplitudes(6), 0.25))
    assert tracer.counts["loss.blocks_kept"] == 7
    assert tracer.counts["loss.block_bytes"] == 8 * sum(k * k for k in range(1, 8))


def test_curve_counter_reads_sweep_result(bench_module):
    traced = bench_module("traced")
    tracer = traced.Tracer()
    traced._count_curve(tracer, curve(0.01, 1, 4096))
    assert tracer.counts["sweep.curve.points"] == 4096
    assert len(tracer.points) == 4096


def test_density_script_runs(bench_module, tmp_path):
    density_job = bench_module("density_job")
    out = tmp_path / "density.json"
    assert density_job.main(["--n", "4,8", "--loss", "1e-7,0.2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [(r["n"], r["loss"]) for r in rows] == [(4, 1e-7), (4, 0.2), (8, 1e-7), (8, 0.2)]
    for row in rows:
        assert row["blocks"] == row["n"] + 1
        assert abs(row["sharpness_density"] - row["sharpness_closed"]) <= 1e-10


@pytest.mark.parametrize("workload", ["sweep", "density"])
@pytest.mark.parametrize("seed", [0, 1, 7, 101])
def test_workload_command_lines_parse(bench_module, workload, seed):
    jobs = [job for job in bench_module("workloads").jobs_for(workload, seed) if job.is_cli]
    assert jobs
    for job in jobs:
        args = cli.build_parser().parse_args(list(job.argv))
        assert args.command == job.kind


def test_bench_test_command_lines_parse(bench_module):
    test_bench = bench_module("test_bench")
    nopt = cli.build_parser().parse_args(list(test_bench._nopt_job().argv))
    assert (nopt.command, nopt.jobs) == ("nopt", 1)
    for fmt in ("csv", "json"):
        for normalized in (False, True):
            argv = list(test_bench._curve_job(fmt, normalized).argv)
            assert cli.build_parser().parse_args(argv).command == "curve"


@pytest.mark.parametrize("seed", [0, 1])
def test_reference_accepts_dist_and_validate_output(
    bench_module, tmp_path, monkeypatch, capsys, seed
):
    # the reference check sets mpmath to 50 digits when first imported; keep
    # that for its checks and give the tests after this one their precision back
    with mpmath.workdps(50):
        reference = bench_module("reference")
        monkeypatch.chdir(tmp_path)
        jobs = [j for j in bench_module("workloads").jobs_for("density", seed)
                if j.kind in ("dist", "validate")]
        assert [j.kind for j in jobs] == ["validate", "dist"]
        for job in jobs:
            assert cli.main(list(job.argv)) == 0
            if job.kind == "validate":
                (tmp_path / f"{job.name}.stdout").write_text(capsys.readouterr().out, encoding="utf-8")
            check = reference.check_job(job, str(tmp_path))
            assert check.ok, check.detail


@pytest.mark.parametrize("seed", [0, 1])
def test_reference_accepts_json_curve_output(bench_module, tmp_path, monkeypatch, seed):
    # the JSON layout is read by the reference check of the sweep workload; a
    # slip in it would show only as a fall in ok_frac
    with mpmath.workdps(50):
        reference = bench_module("reference")
        monkeypatch.chdir(tmp_path)
        jobs = [j for j in bench_module("workloads").jobs_for("sweep", seed)
                if j.kind == "curve" and j.params["format"] == "json"]
        assert jobs
        job = jobs[0]
        assert cli.main(list(job.argv)) == 0
        check = reference.check_job(job, str(tmp_path))
        assert check.ok, check.detail
