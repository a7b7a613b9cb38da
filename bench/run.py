"""lossyphase benchmark: closed-loop CLI jobs, reference checks, traced layers.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

``--trace 0`` is the closed loop: one client runs the workload's job list,
one fresh process at a time (``python -m lossyphase ...`` or the density
script), pass after pass until ``--seconds`` have gone by, and prints the
end-to-end metrics. ``--trace 1`` runs the same job list inside one fresh
interpreter (``traced.py``) with spans around each module's public
functions and prints the per-layer metrics. Either way every output is
checked against an independent reference (``reference.py``) after the timed
region, and the last line of stdout is the JSON result. ``--workload all``
runs the workloads in turn.

The benchmark only uses the package under ``src/`` next to this directory
and exits 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

SETUP_REPEATS = 9
JOB_TIMEOUT_S = 60.0
# Every run ends well inside the three minutes a run may take.
RUN_DEADLINE_S = 150.0

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import lossyphase.cli; t2 = time.perf_counter(); import json; "
    "print(json.dumps([t1 - t0, t2 - t1, numpy.__version__, lossyphase.__file__]))"
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class Usage(Exception):
    """The benchmark cannot run in this directory."""


def locate_package() -> str:
    """Absolute ``src/`` directory holding the ``lossyphase`` package.

    The client itself imports neither lossyphase nor numpy while jobs run:
    a child's ``ru_maxrss`` includes the RSS its parent had when it forked,
    so the client stays small. The import probes check that children import
    the package from this directory.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lossyphase", "__init__.py")):
        raise Usage(f"no lossyphase package under {src}")
    return src


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


@dataclass(frozen=True)
class Result:
    """Exit status and resource use of one finished child process."""

    rc: int
    wall: float
    cpu: float
    maxrss_kb: int
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.timed_out


def run_process(argv, cwd: str, env: dict, timeout: float, log_stem: str) -> Result:
    """Run one child in its own process group; kill the group on timeout.

    The child is waited for with ``wait4``, so its CPU time includes every
    descendant it reaped (the ``nopt`` pool workers) and ``ru_maxrss`` is the
    largest RSS among them.
    """
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    with open(log_stem + ".stdout", "wb") as out, open(log_stem + ".stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)

        def kill():
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        # wait without reaping, so the pid cannot be reused while the timer
        # may still signal its group
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            raise
        finally:
            wall = time.perf_counter() - start
            with lock:
                state["exited"] = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    _wait_group_gone(proc.pid)
    return Result(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss, state["timed_out"])


def _wait_group_gone(pgid: int, limit: float = 5.0) -> None:
    """Kill what is left of a job's process group and wait until it is empty."""
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def fits(start: float, passes, seconds: float, remaining: float) -> bool:
    """True while one more pass of the mean length so far ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    mean = elapsed / len(passes)
    return elapsed + mean <= seconds and mean < remaining


def job_argv(job) -> list:
    if job.is_cli:
        return [sys.executable, "-m", "lossyphase", *job.argv]
    return [sys.executable, os.path.join(BENCH_DIR, "density_job.py"), *job.argv]


class Run:
    """State of one benchmark invocation: its work directory and deadline."""

    def __init__(self, workload: str, seed: int, seconds: float, src: str, workdir: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.env = child_env(src)
        self.workdir = workdir
        self.jobs = workloads.jobs_for(workload, seed)
        self.started = time.monotonic()
        self.numpy_version = "unknown"  # read by the import probes

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def probe_imports(self):
        """Fresh interpreters importing ``lossyphase.cli``: wall and import split."""
        walls, numpy_s, package_s = [], [], []
        for i in range(SETUP_REPEATS + 1):
            stem = os.path.join(self.workdir, f"probe{i}")
            res = run_process([sys.executable, "-c", IMPORT_PROBE], self.workdir, self.env,
                              JOB_TIMEOUT_S, stem)
            if not res.ok:
                raise Usage(f"importing lossyphase.cli failed; see {stem}.stderr")
            with open(stem + ".stdout", encoding="utf-8") as handle:
                a, b, self.numpy_version, package = json.load(handle)
            if os.path.dirname(os.path.dirname(package)) != self.env["PYTHONPATH"]:
                raise Usage(f"children import lossyphase from {package}, not from src/")
            if i == 0:  # warm-up: bytecode caches and the file cache fill here
                continue
            walls.append(res.wall)
            numpy_s.append(a)
            package_s.append(b)
        return walls, numpy_s, package_s

    def closed_loop(self) -> list:
        """Passes of the job list, one process at a time, for ``seconds``."""
        passes = []
        start = time.perf_counter()
        while not passes or fits(start, passes, self.seconds, self.remaining()):
            pass_dir = os.path.join(self.workdir, f"pass{len(passes)}")
            os.makedirs(pass_dir)
            t0 = time.perf_counter()
            results = []
            for job in self.jobs:
                timeout = max(1.0, min(JOB_TIMEOUT_S, self.remaining()))
                results.append(run_process(job_argv(job), pass_dir, self.env, timeout,
                                           os.path.join(pass_dir, job.name)))
            passes.append({"dir": pass_dir, "wall": time.perf_counter() - t0,
                           "results": results})
        return passes

    def traced(self) -> dict:
        out = os.path.join(self.workdir, "trace.json")
        argv = [sys.executable, os.path.join(BENCH_DIR, "traced.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--seconds", str(self.seconds), "--workdir", self.workdir, "--out", out]
        res = run_process(argv, self.workdir, self.env, max(1.0, self.remaining()),
                          os.path.join(self.workdir, "traced"))
        if not res.ok:
            with open(os.path.join(self.workdir, "traced.stderr"), encoding="utf-8") as handle:
                sys.stderr.write(handle.read())
            raise RuntimeError(f"traced run exited with {res.rc}"
                               + (" (timed out)" if res.timed_out else ""))
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


def check_passes(jobs, dirs, oks):
    """Failed and attempted job counts, and the fewest correct digits.

    ``dirs[i]`` is pass i's directory and ``oks[i][j]`` whether job j of
    pass i exited 0 in time. A job attempt fails if it did not, if its data
    file differs in bytes from the same job's file in the first good pass,
    or if that file fails the reference check (then every attempt of the
    job fails, since all of them wrote the same bytes).
    """
    import reference  # numpy and mpmath: only after the timed region

    failed = set()
    tables = reference.curve_tables(jobs)
    digits = []
    details = []
    for j, job in enumerate(jobs):
        good = [i for i, ok in enumerate(oks) if ok[j]]
        failed.update((i, j) for i in range(len(dirs)) if i not in good)
        if not good:
            details.append(f"{job.name}: every attempt exited nonzero or timed out")
            continue
        base_dir = dirs[good[0]]
        if job.out:
            with open(os.path.join(base_dir, job.out), "rb") as handle:
                base = handle.read()
            for i in good[1:]:
                with open(os.path.join(dirs[i], job.out), "rb") as handle:
                    if handle.read() != base:
                        failed.add((i, j))
                        details.append(f"{job.name}: pass {i} output differs from pass {good[0]}")
        check = reference.check_job(job, base_dir, tables.get(job.name))
        if check.digits is not None:
            digits.append(check.digits)
        if not check.ok:
            failed.update((i, j) for i in range(len(dirs)))
            details.append(f"{job.name}: {check.detail}")
    attempted = len(dirs) * len(jobs)
    return len(failed), attempted, (min(digits) if digits else 0.0), details


def environment(seed: int, numpy_version: str, loadavg) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):  # not an enclosing repository's
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "commit": commit,
        "seed": seed,
        "loadavg": loadavg,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    return (f"median {_median(values):.4f} of {len(values)}, "
            f"min {min(values):.4f}, max {max(values):.4f}")


def end_to_end(run: Run, setup_walls) -> tuple:
    passes = run.closed_loop()
    failed, attempted, digits, details = check_passes(
        run.jobs, [p["dir"] for p in passes], [[r.ok for r in p["results"]] for p in passes])
    walls = [p["wall"] for p in passes]
    cpus = [sum(r.cpu for r in p["results"]) for p in passes]
    peak = max(r.maxrss_kb for p in passes for r in p["results"]) / 1024.0
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median(setup_walls),
        "cpu_s": _median(cpus),
        "peak_rss_mb": peak,
        "ok_frac": 1.0 - failed / attempted,
        "digits_min": digits,
    }
    notes = [
        f"closed loop, one client, {len(run.jobs)} jobs per pass, {len(passes)} passes",
        f"wall_s: {_spread(walls)} s",
        f"cpu_s: {_spread(cpus)} s (children and their pool workers)",
        f"setup_s: {_spread(setup_walls)} s (fresh interpreter importing lossyphase.cli)",
        f"failed_frac = {failed / attempted:.6g} (share of job attempts; {failed} of {attempted} failed)",
    ]
    return metrics, failed, attempted, notes + details


def per_layer(run: Run, numpy_s, package_s) -> tuple:
    trace = run.traced()
    passes = trace["passes"]
    failed, attempted, _, details = check_passes(
        run.jobs, [p["dir"] for p in passes], [[r["rc"] == 0 for r in p["results"]] for p in passes])
    traced = [p["trace"] for p in passes if p["traced"]]
    plain = [p["wall"] for p in passes if not p["traced"]]
    busy = [p["wall"] for p in passes if p["traced"]]
    metrics = {
        "import.numpy_s": _median(numpy_s),
        "import.lossyphase_s": _median(package_s),
    }
    metrics.update(layer_metrics(traced))
    metrics["trace.overhead_s"] = _median(busy) - _median(plain)
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced in-process passes, "
        f"{len(run.jobs)} jobs each; per-layer values are medians over traced passes",
        trace["note"],
    ]
    return metrics, failed, attempted, notes + details


LAYER_FUNCTIONS = {
    "states.optimal_amplitudes": ("calls", "self_s"),
    "povm.sharpness_closed": ("calls", "self_s"),
    "povm.holevo": ("self_s",),
    "sweep.curve": ("calls", "self_s"),
    "cli.run_nopt": ("self_s",),
    "cli.run_curve": ("self_s",),
    "cli.run_dist": ("self_s",),
    "povm.evaluate": ("self_s",),
    "loss.pure_lossy_state": ("self_s",),
    "loss.reduced_density": ("self_s",),
    "wigner.d_element": ("calls", "self_s"),
    "cli.run_validate": ("self_s",),
    "povm.distribution_from_density": ("self_s",),
}
LAYER_COUNTS = ("sweep.curve.points", "loss.blocks_kept", "loss.block_bytes")


def layer_metrics(traced) -> dict:
    """Per-layer metrics as medians over the traced passes' totals."""

    def med(fn):
        return _median([fn(t) for t in traced])

    out = {}
    for name, kinds in LAYER_FUNCTIONS.items():
        for kind in kinds:
            out[f"{name}.{kind}"] = med(lambda t: t[kind].get(name, 0))
    for name in LAYER_COUNTS:
        out[name] = med(lambda t: t["counts"].get(name, 0))
    out["sweep.sharpness_calls_per_point"] = med(
        lambda t: t["calls"].get("povm.sharpness_closed", 0) / t["distinct_points"]
        if t["distinct_points"] else 0.0)
    out["oracle.self_s"] = med(
        lambda t: sum(v for k, v in t["self_s"].items() if k.startswith("oracle.")))
    out["cli.pool_cpu_s"] = med(lambda t: t["pool_cpu_s"])
    out["cli.bytes_out"] = med(lambda t: t["bytes_out"])
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, src: str) -> dict:
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        loadavg = os.getloadavg()
        run = Run(workload, seed, seconds, src, workdir)
        setup_walls, numpy_s, package_s = run.probe_imports()
        env = environment(seed, run.numpy_version, loadavg)
        print(json.dumps({"workload": workload, "trace": int(trace), "environment": env}))
        if trace:
            metrics, failed, attempted, notes = per_layer(run, numpy_s, package_s)
        else:
            metrics, failed, attempted, notes = end_to_end(run, setup_walls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{workload:8} {name:40} {value:14.6g} {UNITS[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lossyphase benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        src = locate_package()
    except Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), src)
        except Usage as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
