"""Run the benchmark over several seeds and summarise it as a baseline.

Run from the repository root:

    python3 bench/baseline.py --label seed --out bench/baseline.json

For every workload it runs ``bench/run.py --trace 0`` once per seed and
``--trace 1`` for the first ``--traced`` seeds, all with the
``run_seconds`` of ``BENCHMARK.json``. It prints each end-to-end metric's
median and its spread, the distance between the first and third quartile
as a share of the median, beside the metric's bound, and writes medians and
quartiles to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_once(workload: str, seed: int, trace: int) -> tuple:
    """Environment line and result line of one benchmark run."""
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} jobs failed")
    return json.loads(lines[0])["environment"], result


def summarise(results, names, quartiles: bool) -> dict:
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"median": statistics.median(values), "unit": results[0]["metrics"][name]["unit"]}
        if quartiles:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    args = parser.parse_args(argv)
    if not 1 <= args.traced <= args.seeds:
        parser.error("--traced must be between 1 and --seeds")

    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    env, summary = None, {}
    for workload in names:
        plain = []
        for seed in seeds:
            env, result = run_once(workload, seed, 0)
            plain.append(result)
        traced = [run_once(workload, seed, 1)[1] for seed in seeds[:args.traced]]
        end_to_end = summarise(plain, bounds, quartiles=True)
        summary[workload] = {
            "end_to_end": {"seeds": seeds, **end_to_end},
            "per_layer": {"seeds": seeds[:args.traced],
                          **summarise(traced, [m["name"] for m in SPEC["per_layer"]], False)},
        }
        for name, entry in end_to_end.items():
            spread = (entry["q3"] - entry["q1"]) / entry["median"]
            print(f"{workload:8} {name:12} median {entry['median']:10.5g} {entry['unit']:7} "
                  f"spread {spread:7.4f}  bound {bounds[name]}", flush=True)
    baseline = {
        "label": args.label,
        "commit": env["commit"],
        "machine": {k: env[k] for k in ("python", "numpy", "nproc", "cpu")},
        "note": "medians and quartiles over the seeds; end_to_end from --trace 0 runs, "
                "per_layer from --trace 1 runs",
        "run_seconds": SPEC["run_seconds"],
        "workloads": summary,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
