"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Corrupted outputs must count as failed, a job that overruns its timeout
must be killed and count as failed, and the metric names the benchmark
prints must be the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import run
from workloads import Job

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from lossyphase import cli  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _curve_job(fmt: str, normalized: bool = False) -> Job:
    loss = 3e-3
    out = f"curve.{fmt}"
    argv = ["curve", "--loss", repr(loss), "--n-range", "1:300", "--format", fmt, "--out", out]
    if normalized:
        argv.append("--normalized")
    params = {"loss": loss, "n_min": 1, "n_max": 300, "format": fmt,
              "normalized": normalized, "sample_n": [7, 300]}
    return Job("curve", "curve", tuple(argv), out, params)


def _nopt_job() -> Job:
    argv = ("nopt", "--loss-grid", "0.001:0.2:4:log", "--n-max", "300", "--jobs", "1",
            "--out", "nopt.csv")
    params = {"lo": 0.001, "hi": 0.2, "count": 4, "n_max": 300}
    return Job("nopt", "nopt", argv, "nopt.csv", params)


def _produce(job: Job, directory) -> str:
    os.chdir(directory)
    assert cli.main(list(job.argv)) == 0
    return os.path.join(directory, job.out)


def _flip_digit(number: str, i: int) -> str:
    """Change the digit at index ``i`` of a decimal string."""
    assert number[i].isdigit()
    return number[:i] + str((int(number[i]) + 1) % 10) + number[i + 1:]


@pytest.mark.parametrize("fmt,normalized", [("csv", False), ("json", True)])
@pytest.mark.parametrize("row", [7, 150, 300])
@pytest.mark.parametrize("position", [2, 8])
def test_flipped_delta_phi_digit_fails(tmp_path, monkeypatch, fmt, normalized, row, position):
    monkeypatch.chdir(tmp_path)
    job = _curve_job(fmt, normalized)
    path = _produce(job, tmp_path)
    assert reference.check_job(job, str(tmp_path)).ok

    text = open(path, encoding="utf-8").read()
    if fmt == "csv":
        field = next(line for line in text.splitlines() if line.startswith(f"{row},"))
        target = field.split(",")[1]
    else:
        rows = json.loads(text)["rows"]
        target = repr(rows[row - 1]["delta_phi"])
    corrupted = text.replace(target, _flip_digit(target, position), 1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(corrupted)
    check = reference.check_job(job, str(tmp_path))
    assert not check.ok, check


def test_wrong_n_opt_fails(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = _nopt_job()
    path = _produce(job, tmp_path)
    assert reference.check_job(job, str(tmp_path)).ok

    lines = open(path, encoding="utf-8").read().splitlines()
    i = next(k for k, line in enumerate(lines) if line and line[0].isdigit())
    loss, n_opt = lines[i].split(",")
    lines[i] = f"{loss},{int(n_opt) + 1}"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    check = reference.check_job(job, str(tmp_path))
    assert not check.ok and "n_opt" in check.detail


def test_output_differing_between_passes_fails(tmp_path, monkeypatch):
    job = _nopt_job()
    dirs = [tmp_path / "pass0", tmp_path / "pass1"]
    for d in dirs:
        d.mkdir()
        monkeypatch.chdir(d)
        _produce(job, d)
    with open(dirs[1] / job.out, "a", encoding="utf-8") as handle:
        handle.write("\n")
    failed, attempted, _, _ = run.check_passes([job], [str(d) for d in dirs], [[True], [True]])
    assert (failed, attempted) == (1, 2)


def test_timeout_kills_the_job_and_counts_as_failed(tmp_path):
    res = run.run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                          str(tmp_path), dict(os.environ), 0.5, str(tmp_path / "sleep"))
    assert res.timed_out and not res.ok
    assert res.wall < 10


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads.WORKLOADS)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
