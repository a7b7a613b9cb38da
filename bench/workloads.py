"""Job lists of the benchmark workloads, generated from a seed.

A job is one fresh process in the closed loop: a ``python -m lossyphase``
command or the density-matrix script. The seed picks the loss values (or the
``nopt`` grid endpoints) and the rows the reference check samples; the
amount of work per job does not depend on the seed, so timings of different
seeds are comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

SCAN_N_MAX = 4096
SCAN_JOBS = 5
SCAN_LOSS_RANGE = (1e-5, 0.5)
NORMALIZED_TOP_ROWS = 16

NOPT_N_MAX = 2048
NOPT_COUNT = 32

DENSITY_NS = (64, 128, 256)
DIST_N = 256
DIST_PHI_SAMPLES = 65536


@dataclass(frozen=True)
class Job:
    """One process of a workload pass.

    ``argv`` follows ``python -m lossyphase`` for CLI jobs and
    ``python bench/density_job.py`` for the density-matrix script. ``out`` is the
    data file the job writes into the pass directory (None for validate).
    ``params`` holds what the reference check needs; the program never
    sees it.
    """

    name: str
    kind: str
    argv: tuple
    out: str | None
    params: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return self.kind != "density"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _stratified_losses(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """One log-uniform draw from each of ``count`` equal log-width strata.

    Every draw is log-uniform over its stratum, and the lowest stratum,
    where the sharpness loses the most digits, is always visited.
    """
    a, b = math.log10(lo), math.log10(hi)
    width = (b - a) / count
    return [10.0 ** rng.uniform(a + i * width, a + (i + 1) * width) for i in range(count)]


def scan(rng: random.Random) -> list:
    """Several full ``curve`` scans, CSV and JSON, one of them normalized.

    The normalized scan takes the lowest loss: there its delta-phi sits near
    the Heisenberg line and computing it from the sharpness cancels the most
    digits, so every seed exercises the worst-conditioned case.
    """
    losses = _stratified_losses(rng, *SCAN_LOSS_RANGE, SCAN_JOBS)
    jobs = []
    for i, loss in enumerate(losses):
        fmt = "csv" if i % 2 == 0 else "json"
        normalized = i == 0
        out = f"curve{i}.{fmt}"
        argv = ["curve", "--loss", repr(loss), "--n-range", f"1:{SCAN_N_MAX}",
                "--format", fmt, "--out", out]
        if normalized:
            argv.append("--normalized")
        # the top rows carry the largest rounding error; the normalized scan
        # samples more of them so the fewest-digits figure is not luck of one row
        top = NORMALIZED_TOP_ROWS if normalized else 1
        rows = list(range(SCAN_N_MAX - top + 1, SCAN_N_MAX + 1))
        rows += [round(_log_uniform(rng, 1, SCAN_N_MAX)) for _ in range(2)]
        params = {"loss": loss, "n_min": 1, "n_max": SCAN_N_MAX, "format": fmt,
                  "normalized": normalized, "sample_n": sorted(set(rows))}
        jobs.append(Job(f"curve{i}", "curve", tuple(argv), out, params))
    return jobs


def nopt(rng: random.Random) -> list:
    """One ``nopt`` job over a log loss grid; ``--jobs`` keeps its default."""
    lo = _log_uniform(rng, 5e-5, 2e-4)
    hi = rng.uniform(0.3, 0.6)
    grid = f"{lo!r}:{hi!r}:{NOPT_COUNT}:log"
    argv = ("nopt", "--loss-grid", grid, "--n-max", str(NOPT_N_MAX), "--out", "nopt.csv")
    params = {"lo": lo, "hi": hi, "count": NOPT_COUNT, "n_max": NOPT_N_MAX}
    return [Job("nopt", "nopt", argv, "nopt.csv", params)]


def sweep(rng: random.Random) -> list:
    """The ``scan`` curves, then the ``nopt`` job: the whole sweep layer.

    Both go through ``states`` -> ``povm`` -> ``sweep``; the curves spend
    their time on long scans and emission, the ``nopt`` job on many short
    scans, landmark search and the process pool, which ``cli.run_nopt``
    and ``cli.pool_cpu_s`` show apart. One workload holds both so that each
    run can be long on a noisy host.
    """
    return scan(rng) + nopt(rng)


def density(rng: random.Random) -> list:
    """Density-matrix script, default ``validate`` and one large ``dist``."""
    losses = [_log_uniform(rng, 1e-8, 1e-6), _log_uniform(rng, 1e-4, 0.5)]
    script = Job(
        "density", "density",
        ("--n", ",".join(map(str, DENSITY_NS)), "--loss", ",".join(map(repr, losses)),
         "--out", "density.json"),
        "density.json",
        {"ns": list(DENSITY_NS), "losses": losses},
    )
    validate = Job("validate", "validate", ("validate",), None)
    dist_loss = _log_uniform(rng, 1e-4, 0.5)
    dist = Job(
        "dist", "dist",
        ("dist", "--loss", repr(dist_loss), "--n", str(DIST_N),
         "--phi-samples", str(DIST_PHI_SAMPLES), "--out", "dist.csv"),
        "dist.csv",
        {"loss": dist_loss, "n": DIST_N, "phi_samples": DIST_PHI_SAMPLES,
         "sample_rows": sorted(rng.sample(range(DIST_PHI_SAMPLES), 8))},
    )
    return [script, validate, dist]


WORKLOADS = {"sweep": sweep, "density": density}


def jobs_for(workload: str, seed: int) -> list:
    """The job list of one pass of ``workload`` at ``seed``."""
    return WORKLOADS[workload](random.Random(seed))
