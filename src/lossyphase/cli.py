"""Command-line front end: curve/nopt/dist data emission and self-validation.

Data files are deterministic for a fixed configuration: stable row order,
17-significant-digit decimals, no timestamps. Infinities serialize as the
literal ``inf`` in CSV and the string ``"inf"`` in JSON. Each data file gets
a companion plot script (gnuplot for CSV, matplotlib for JSON) so the curves
can be rendered without adding any plotting dependency to the library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import loss as loss_mod
from . import oracle, povm, sweep
from .states import AmplitudeVector, optimal_amplitudes

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3

MIN_PHI_SAMPLES = 64

CURVE_COLUMNS = ("n", "delta_phi", "shot_noise", "heisenberg")
NOPT_COLUMNS = ("loss", "n_opt")
DIST_COLUMNS = ("phi", "p")


@dataclass
class RunConfig:
    command: str
    loss: float | None = None
    loss_grid: list | None = None
    loss_grid_text: str | None = None
    n: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    phi_samples: int = 1024
    out: str | None = None
    format: str = "csv"
    normalized: bool = False


def _fmt(value) -> str:
    """Fixed 17-significant-digit decimal; round-trips any float64."""
    return format(float(value), ".17g")


def _json_value(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def parse_n_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"n-range must look like lo:hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"n-range bounds must be integers, got {text!r}") from None
    if lo < 1 or lo > hi:
        raise ValueError(f"need 1 <= lo <= hi in n-range, got {text!r}")
    return lo, hi


def parse_loss_grid(text: str) -> list:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"loss-grid must look like lo:hi:count[:log], got {text!r}")
    if len(parts) == 4 and parts[3] != "log":
        raise ValueError(f"loss-grid spacing must be 'log', got {parts[3]!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"bad loss-grid numbers in {text!r}") from None
    if count < 1:
        raise ValueError("loss-grid needs at least one point")
    if not 0.0 <= lo <= hi < 1.0:
        raise ValueError(f"loss-grid values must satisfy 0 <= lo <= hi < 1, got {text!r}")
    if count == 1:
        return [lo]
    if len(parts) == 4:
        if lo <= 0.0:
            raise ValueError("log-spaced loss-grid needs lo > 0")
        values = np.logspace(math.log10(lo), math.log10(hi), count)
    else:
        values = np.linspace(lo, hi, count)
    return [float(v) for v in values]


def _check_loss(value: float) -> float:
    # surface the same message the channel constructor uses
    loss_mod.channel_from_loss(value)
    return float(value)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _csv_text(comments: list, columns: tuple, rows: list) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(config: dict, rows: list, extra: dict | None = None) -> str:
    payload = {"config": config}
    if extra:
        payload.update(extra)
    payload["rows"] = rows
    return json.dumps(payload, indent=2) + "\n"


def _gnuplot_script(data_path: str, columns, logscale: bool, ylabel: str) -> str:
    name = os.path.basename(data_path)
    lines = [
        f"# render {name}; run: gnuplot -p this_file",
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'set xlabel "{columns[0]}"',
        f'set ylabel "{ylabel}"',
    ]
    if logscale:
        lines.append("set logscale xy")
    plot_items = ", ".join(
        f"'{name}' using 1:{i + 2} with lines" for i in range(len(columns) - 1)
    )
    lines.append(f"plot {plot_items}")
    return "\n".join(lines) + "\n"


def _matplotlib_script(data_path: str, columns, logscale: bool, ylabel: str) -> str:
    name = os.path.basename(data_path)
    ycols = ", ".join(repr(c) for c in columns[1:])
    return (
        "import json\n"
        "import matplotlib.pyplot as plt\n\n"
        f"rows = json.load(open({name!r}))['rows']\n"
        f"xs = [row[{columns[0]!r}] for row in rows]\n"
        f"for col in ({ycols},):\n"
        "    ys = [float('nan') if row[col] in ('inf', None) else row[col] for row in rows]\n"
        "    plt.plot(xs, ys, label=col)\n"
        + ("plt.xscale('log')\nplt.yscale('log')\n" if logscale else "")
        + f"plt.xlabel({columns[0]!r})\n"
        f"plt.ylabel({ylabel!r})\n"
        "plt.legend()\n"
        "plt.show()\n"
    )


def _emit_plot_script(cfg: RunConfig, data_path: str, columns, logscale: bool, ylabel: str) -> str:
    if cfg.format == "csv":
        path = data_path + ".gp"
        _write_text(path, _gnuplot_script(data_path, columns, logscale, ylabel))
    else:
        path = data_path + "_plot.py"
        _write_text(path, _matplotlib_script(data_path, columns, logscale, ylabel))
    return path


def _config_dict(cfg: RunConfig) -> dict:
    out = {"command": cfg.command, "format": cfg.format, "normalized": cfg.normalized}
    if cfg.loss is not None:
        out["loss"] = cfg.loss
    if cfg.loss_grid_text is not None:
        out["loss_grid"] = cfg.loss_grid_text
    if cfg.n is not None:
        out["n"] = cfg.n
    if cfg.n_min is not None:
        out["n_range"] = f"{cfg.n_min}:{cfg.n_max}"
    if cfg.command == "dist":
        out["phi_samples"] = cfg.phi_samples
    return out


def _comment_lines(cfg: RunConfig, extra: list | None = None) -> list:
    lines = [f"{k} = {str(v).lower() if isinstance(v, bool) else v}" for k, v in _config_dict(cfg).items()]
    return lines + (extra or [])


def run_curve(cfg: RunConfig) -> int:
    result = sweep.curve(cfg.loss, cfg.n_min, cfg.n_max, normalized=cfg.normalized)
    out = cfg.out or f"curve.{cfg.format}"
    if cfg.format == "csv":
        rows = [
            (str(p.n), _fmt(p.delta_phi), _fmt(p.shot_noise), _fmt(p.heisenberg))
            for p in result.points
        ]
        _write_text(out, _csv_text(_comment_lines(cfg), CURVE_COLUMNS, rows))
    else:
        rows = [
            {
                "n": p.n,
                "delta_phi": _json_value(p.delta_phi),
                "shot_noise": p.shot_noise,
                "heisenberg": p.heisenberg,
            }
            for p in result.points
        ]
        _write_text(out, _json_text(_config_dict(cfg), rows))
    script = _emit_plot_script(cfg, out, CURVE_COLUMNS, logscale=True, ylabel="delta_phi")
    print(f"wrote {out} and {script}")
    return EXIT_OK


def run_nopt(cfg: RunConfig) -> int:
    n_max = cfg.n_max or sweep.DEFAULT_MAX_PHOTONS
    pairs = [(l, sweep.find_n_opt(l, n_max, normalized=cfg.normalized)) for l in cfg.loss_grid]
    out = cfg.out or f"nopt.{cfg.format}"
    if cfg.format == "csv":
        rows = [(_fmt(l), "none" if n is None else str(n)) for l, n in pairs]
        _write_text(out, _csv_text(_comment_lines(cfg), NOPT_COLUMNS, rows))
    else:
        rows = [{"loss": l, "n_opt": n} for l, n in pairs]
        _write_text(out, _json_text(_config_dict(cfg), rows))
    script = _emit_plot_script(cfg, out, NOPT_COLUMNS, logscale=True, ylabel="n_opt")
    print(f"wrote {out} and {script}")
    return EXIT_OK


def run_dist(cfg: RunConfig) -> int:
    state = optimal_amplitudes(cfg.n)
    channel = loss_mod.channel_from_loss(cfg.loss)
    dist = povm.distribution(state, channel)
    nyquist = 4 * (cfg.n + 1)
    if cfg.phi_samples < max(MIN_PHI_SAMPLES, nyquist):
        raise ValueError(
            f"phi-samples = {cfg.phi_samples} below the Nyquist guard "
            f"{max(MIN_PHI_SAMPLES, nyquist)} for n = {cfg.n}"
        )
    phi = np.linspace(0.0, povm.TWO_PI, cfg.phi_samples, endpoint=False)
    values = dist.evaluate(phi)
    integral = dist.total_mass()
    out = cfg.out or f"dist.{cfg.format}"
    if cfg.format == "csv":
        rows = [(_fmt(x), _fmt(p)) for x, p in zip(phi, values)]
        comments = _comment_lines(cfg, [f"integral_p = {_fmt(integral)}"])
        _write_text(out, _csv_text(comments, DIST_COLUMNS, rows))
    else:
        rows = [{"phi": float(x), "p": float(p)} for x, p in zip(phi, values)]
        _write_text(out, _json_text(_config_dict(cfg), rows, extra={"integral_p": integral}))
    script = _emit_plot_script(cfg, out, DIST_COLUMNS, logscale=False, ylabel="P(phi)")
    print(f"wrote {out} and {script}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

_VALIDATE_LOSSES = (0.1, 0.3, 0.5)


def _largest_defect(cases):
    """Largest of (defect, witness) pairs, with the witness that first reached it."""
    worst, witness = 0.0, ""
    for defect, label in cases:
        if defect > worst:
            worst, witness = defect, label
    return worst, witness


def _check_lossy_ket(max_twice_j: int):
    """Splitter branches of |t photons in the lossy arm> against e^{i theta Jx}, signed."""
    for t in range(max_twice_j + 1):
        state = AmplitudeVector(np.eye(t + 1)[t])
        for loss_value in (0.0,) + _VALIDATE_LOSSES:
            # cos^2(theta/2) = 1 - L, taken by atan2 so theta keeps its digits at small L
            theta = 2.0 * math.atan2(math.sqrt(loss_value), math.sqrt(1.0 - loss_value))
            expected = np.conj(oracle.bs_unitary(t, theta)[:, t])
            channel = loss_mod.channel_from_loss(loss_value)
            branch = loss_mod.pure_lossy_state(state, channel).coeffs[t]
            yield float(np.max(np.abs(branch - expected))), f"t={t} L={loss_value:g}"


def _block_difference(left, right) -> float:
    keys = set(left.blocks) | set(right.blocks)
    worst = 0.0
    for ell in keys:
        worst = max(worst, float(np.max(np.abs(left.block(ell) - right.block(ell)))))
    return worst


def _lossy_states(n_top: int, losses):
    """(witness, state, channel) for N = 1..n_top at each loss."""
    for n in range(1, n_top + 1):
        state = optimal_amplitudes(n)
        for loss_value in losses:
            yield f"N={n} L={loss_value:g}", state, loss_mod.channel_from_loss(loss_value)


def _check_partial_trace():
    for witness, state, channel in _lossy_states(8, _VALIDATE_LOSSES):
        direct = loss_mod.reduced_density(state, channel)
        explicit = oracle.trace_out_explicit(loss_mod.pure_lossy_state(state, channel))
        yield _block_difference(direct, explicit), witness


def _check_dual_path():
    for witness, state, channel in _lossy_states(12, (0.0,) + _VALIDATE_LOSSES):
        closed = povm.sharpness_closed(state, channel)
        rho = loss_mod.reduced_density(state, channel)
        yield abs(closed - povm.distribution_from_density(rho).fourier_sharpness()), witness


def _check_quadrature():
    for witness, state, channel in _lossy_states(12, (0.0,) + _VALIDATE_LOSSES):
        closed = povm.sharpness_closed(state, channel)
        quad = oracle.quadrature_sharpness(povm.distribution(state, channel), 4096)
        yield abs(quad - closed), witness


def _check_lossless_anchor():
    identity = loss_mod.channel_from_loss(0.0)
    for n in range(1, 101):
        variance = povm.holevo(povm.sharpness_closed(optimal_amplitudes(n), identity)).holevo_variance
        reference = povm.lossless_reference(n)
        yield abs(variance - reference) / reference, f"N={n}"


def run_validate(max_twice_j: int = 12) -> int:
    checks = [
        ("lossy ket vs matrix exponential, signed", 1e-12, lambda: _check_lossy_ket(max_twice_j)),
        ("partial trace, blocks vs explicit", 1e-12, _check_partial_trace),
        ("sharpness, closed vs density path", 1e-10, _check_dual_path),
        ("sharpness, closed vs quadrature", 1e-8, _check_quadrature),
        ("lossless variance anchor (relative)", 1e-9, _check_lossless_anchor),
    ]
    failures = []
    print(f"{'check':<40} {'max defect':>12} {'tolerance':>12} result")
    for name, tol, fn in checks:
        defect, witness = _largest_defect(fn())
        ok = defect <= tol
        if not ok:
            failures.append((name, defect, tol, witness))
        tag = "PASS" if ok else f"FAIL at {witness}"
        print(f"{name:<40} {defect:>12.3e} {tol:>12.3e} {tag}")
    if failures:
        name, defect, tol, witness = failures[0]
        print(
            f"validation failed: {name} defect {defect:.3e} exceeds {tol:.3e} at {witness}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossyphase",
        description="Phase-measurement curves for a lossy two-mode interferometer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve_p = sub.add_parser("curve", help="delta-phi versus photon number at fixed loss")
    curve_p.add_argument("--loss", type=float, required=True)
    curve_p.add_argument("--n-range", default="1:1000", metavar="LO:HI")

    nopt_p = sub.add_parser("nopt", help="optimal photon number over a loss grid")
    nopt_p.add_argument("--loss-grid", required=True, metavar="LO:HI:COUNT[:log]")
    nopt_p.add_argument("--n-max", type=int, default=sweep.DEFAULT_MAX_PHOTONS)
    nopt_p.add_argument("--jobs", type=int, help="ignored; nopt runs in one process")

    dist_p = sub.add_parser("dist", help="phase distribution at fixed N and loss")
    dist_p.add_argument("--loss", type=float, required=True)
    dist_p.add_argument("--n", type=int, required=True)
    dist_p.add_argument("--phi-samples", type=int, default=1024)

    val_p = sub.add_parser("validate", help="run the oracle cross-check table")
    val_p.add_argument("--max-2j", type=int, default=12)

    for p in (curve_p, nopt_p, dist_p):
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--normalized", action="store_true")
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.command in ("curve", "dist"):
        cfg.loss = _check_loss(args.loss)
    if args.command == "curve":
        cfg.n_min, cfg.n_max = parse_n_range(args.n_range)
    if args.command == "nopt":
        cfg.loss_grid = parse_loss_grid(args.loss_grid)
        cfg.loss_grid_text = args.loss_grid
        cfg.n_max = args.n_max
        if cfg.n_max < 1:
            raise ValueError(f"n-max must be >= 1, got {cfg.n_max}")
    if args.command == "dist":
        cfg.n = args.n
        if cfg.n < 1:
            raise ValueError(f"n must be >= 1, got {cfg.n}")
        cfg.phi_samples = args.phi_samples
        if cfg.phi_samples < MIN_PHI_SAMPLES:
            raise ValueError(f"phi-samples must be >= {MIN_PHI_SAMPLES}, got {cfg.phi_samples}")
    if args.command != "validate":
        cfg.out = args.out
        cfg.format = args.format
        cfg.normalized = args.normalized
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return run_validate(max_twice_j=args.max_2j)
        cfg = _config_from_args(args)
        runner = {"curve": run_curve, "nopt": run_nopt, "dist": run_dist}[args.command]
        return runner(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
