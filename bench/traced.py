"""In-process traced run of one workload's job list.

Started by ``run.py --trace 1`` as a fresh interpreter with the pass
directories already chosen. It alternates an untraced pass and a traced pass
of the same jobs until ``--seconds`` have gone by, calling ``lossyphase.cli``
and the density script in this process. During a traced pass every public
function of the timed modules is wrapped where its callers look it up, so
``from`` imports (``sweep`` binding ``optimal_amplitudes``, ``sharpness_closed``
and ``holevo``; ``loss`` and ``cli`` binding ``d_element``) are traced too.

Spans (name, start, end, parent) stay in memory and are reduced to per-pass
totals after each pass, outside its timed region; the totals go to ``--out``
when the run ends. Pool workers that ``nopt`` forks inherit the wrappers,
but their spans die with them and are not collected: ``cli.pool_cpu_s``
(children's CPU during the pass) stands in for them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict

import density_job
import workloads

from lossyphase import cli, loss, oracle, povm, states, sweep, wigner

POOL_NOTE = (
    "spans inside forked nopt pool workers are not collected; "
    "cli.pool_cpu_s is the pool's CPU time"
)


class Tracer:
    """Timing spans and counters of one pass, kept in memory."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []
        self.counts = defaultdict(int)
        self.points = set()  # distinct (N, L) pairs delivered by sweep.curve

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def totals(self) -> dict:
        """Calls and self time per span name; self = span minus its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = defaultdict(int), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return {"calls": dict(calls), "self_s": dict(self_s)}


def _count_curve(tracer: Tracer, result) -> None:
    tracer.counts["sweep.curve.points"] += len(result.points)
    tracer.points.update((p.n, result.loss) for p in result.points)


def _count_blocks(tracer: Tracer, rho) -> None:
    tracer.counts["loss.blocks_kept"] += len(rho.blocks)
    tracer.counts["loss.block_bytes"] += sum(8 * b.shape[0] * b.shape[1] for b in rho.blocks.values())


def _targets():
    """(span name, owner, attribute, result hook) of every traced function."""
    out = [
        ("states.optimal_amplitudes", states, "optimal_amplitudes", None),
        ("povm.sharpness_closed", povm, "sharpness_closed", None),
        ("povm.holevo", povm, "holevo", None),
        ("povm.evaluate", povm.PhaseDistribution, "evaluate", None),
        ("povm.distribution_from_density", povm, "distribution_from_density", None),
        ("sweep.curve", sweep, "curve", _count_curve),
        ("loss.pure_lossy_state", loss, "pure_lossy_state", None),
        ("loss.reduced_density", loss, "reduced_density", _count_blocks),
        ("wigner.d_element", wigner, "d_element", None),
        ("cli.run_curve", cli, "run_curve", None),
        ("cli.run_nopt", cli, "run_nopt", None),
        ("cli.run_dist", cli, "run_dist", None),
        ("cli.run_validate", cli, "run_validate", None),
    ]
    for name, fn in inspect.getmembers(oracle, inspect.isfunction):
        if fn.__module__ == oracle.__name__ and not name.startswith("_"):
            out.append((f"oracle.{name}", oracle, name, None))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every binding of each target, in every lossyphase module, for a wrapper."""
    namespaces = [m for n, m in sys.modules.items()
                  if n == "lossyphase" or n.startswith("lossyphase.")]
    undo = []
    for name, owner, attr, hook in _targets():
        original = vars(owner)[attr]
        wrapper = tracer.wrap(name, original, hook)
        holders = [owner] + [m for m in namespaces if m is not owner]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))
    try:
        yield tracer
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_job(job, pass_dir: str) -> dict:
    """Run one job in this process; its stdout goes to ``<name>.stdout``."""
    entry = cli.main if job.is_cli else density_job.main
    buffer = io.StringIO()
    before = set(os.listdir(pass_dir))
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            code = entry(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing job is a failed job; keep the pass going
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    written = 0
    if job.is_cli:
        written = sum(os.path.getsize(os.path.join(pass_dir, f))
                      for f in set(os.listdir(pass_dir)) - before)
    with open(os.path.join(pass_dir, f"{job.name}.stdout"), "w", encoding="utf-8") as handle:
        handle.write(buffer.getvalue())
    return {"rc": code, "wall": wall, "bytes_out": written}


def run_pass(jobs, pass_dir: str, tracer: Tracer | None) -> dict:
    os.makedirs(pass_dir)
    os.chdir(pass_dir)
    cpu0 = _children_cpu()
    start = time.perf_counter()
    with installed(tracer) if tracer else contextlib.nullcontext():
        results = [run_job(job, pass_dir) for job in jobs]
    wall = time.perf_counter() - start
    record = {"dir": pass_dir, "traced": tracer is not None, "wall": wall, "results": results}
    if tracer is not None:
        totals = tracer.totals()
        totals["counts"] = dict(tracer.counts)
        totals["distinct_points"] = len(tracer.points)
        totals["pool_cpu_s"] = _children_cpu() - cpu0
        totals["bytes_out"] = sum(r["bytes_out"] for r in results)
        record["trace"] = totals
    return record


def pair_s(start: float, passes) -> float:
    """Mean length of an untraced plus a traced pass so far."""
    return 2 * (time.perf_counter() - start) / len(passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="in-process traced benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    jobs = workloads.jobs_for(args.workload, args.seed)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + pair_s(start, passes) <= args.seconds:
        for traced in (False, True):
            pass_dir = os.path.join(args.workdir, f"pass{len(passes)}")
            passes.append(run_pass(jobs, pass_dir, Tracer() if traced else None))
    os.chdir(args.workdir)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"passes": passes, "note": POOL_NOTE}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
