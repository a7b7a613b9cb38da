"""Command-line front end: curve/nopt/dist data emission and self-validation.

Each of ``run_curve``, ``run_nopt`` and ``run_dist`` parses its arguments,
calls the library, which checks every input and cap before computing
anything, and hands ``_emit``, the one writer of every data file and plot
script, one iterable of plain values per column; ``_emit`` cuts them into
row slices itself. The library's rules (loss, photon number, Nyquist guard)
live in ``core``; the command line checks only what the library does not
see: the shapes of ``--n-range`` and ``--loss-grid``, the grid size and the
``--phi-samples`` range. Each typed value is parsed, shape- or range-checked
and then meets the library's rule (a grid by its typed ``lo:hi``) before any
arithmetic and before ``_emit`` opens the data file; ``_emit`` streams the
slices into the open file, so its memory does not grow with the file, and
removes a partly written regular file if anything raises.

Data files are deterministic for a fixed configuration: stable row order,
17-significant-digit decimals, no timestamps. A CSV file opens with
``# key = value`` lines, then the column line, then one line per row. A
JSON file's first line holds ``config`` and any extra header value and
opens ``rows``; each following line is one row object, exactly
``json.dumps`` of the row's dict, and the last line is ``]}``. The header
keys are ``command`` and ``format``, then per command:

- curve: ``normalized``, ``loss``, ``n_range``;
- nopt: ``normalized`` (always false), ``loss_grid``, ``n_max``;
- dist: ``loss``, ``n``, ``phi_samples``, then ``integral_p``, the integral
  of P(phi) over the circle.

Only ``curve`` takes ``--normalized``: the normalized delta-phi falls strictly
with N, so it has no ``n_opt`` (see ``sweep``). A header's loss is the value
the library's rule returned, so ``-0`` is written as ``0.0``.

In CSV a cell is ``none``, an int, or a ``.17g`` decimal (``inf`` for an
infinity); in JSON ``None`` is ``null`` and ``inf`` the string ``"inf"``.
Each data file gets a companion plot script (gnuplot for CSV, matplotlib for
JSON) so the curves can be rendered without adding any plotting dependency
to the library.

At import this module loads only the standard library, ``sweep`` and
``core``, so ``curve``, ``nopt`` and ``dist`` run without numpy. ``run_dist``
hands over the closed form of ``sweep.sine_density`` as it is generated and
imports none of the numpy layers (``states``, ``povm``); their FFT,
``PhaseDistribution.evaluate``, is its oracle in the tests and in
``validate``. Only ``run_validate`` loads numpy, with the check
table in ``checks``.

``main`` runs a command in the calling process as it stands. The command line
(``python -m lossyphase`` and the ``lossyphase`` script) enters through
``lossyphase.__main__.main``, which picks one BLAS thread before numpy can be
imported.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import stat
import sys

from . import core, sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3

# the upper bounds cap what one input can cost: 2**20 phase samples is 64
# times the Nyquist guard at N = 4096, and a 1024-point grid is 1024 rows of
# the file and 1024 bisections, each reading about 2 log2(n_max) points
MIN_PHI_SAMPLES = 64
MAX_PHI_SAMPLES = 2**20
MAX_LOSS_GRID_POINTS = 1024

CURVE_COLUMNS = ("n", "delta_phi", "shot_noise", "heisenberg")
NOPT_COLUMNS = ("loss", "n_opt")
DIST_COLUMNS = ("phi", "p")

# _slices cuts the columns into slices of this many rows; a JSON slice is
# encoded through a few strings per cell, so 4096 rows raised a 4096-point
# curve's tracemalloc peak to 2.6 MB, where 512 keep it at 0.56 MB for the
# same speed
ROW_SLICE = 512


def _fmt(value) -> str:
    """One CSV cell: ``none``, or 17 significant digits.

    That round-trips any float64, and an int below 2**53 prints as itself.
    """
    return "none" if value is None else "%.17g" % value


def _json_cell(value):
    return "inf" if value == math.inf else value


def _json_cells(column: list) -> list:
    """Each cell of a column as ``json.dumps`` of ``_json_cell`` writes it, from one call."""
    return ['"inf"' if cell == "Infinity" else cell for cell in json.dumps(column)[1:-1].split(", ")]


def parse_n_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"n-range must look like lo:hi, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"n-range bounds must be integers, got {text!r}") from None


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
    if not 1 <= count <= MAX_LOSS_GRID_POINTS:
        raise ValueError(f"loss-grid takes 1..{MAX_LOSS_GRID_POINTS} points, got {count}")
    log = len(parts) == 4
    if log and not (lo > 0.0 and hi > 0.0):  # NaN too
        raise ValueError("log-spaced loss-grid needs lo > 0 and hi > 0")
    # every grid's typed ends pass the library's grid rule before any arithmetic: the
    # library never sees a one-point hi, and 0 * inf or 10**x would show it untyped values
    core._check_loss_grid([lo, hi])
    if log and count > 1:
        return [10.0 ** x for x in _linear_grid(math.log10(lo), math.log10(hi), count)]
    return [lo] if count == 1 else _linear_grid(lo, hi, count)


def _linear_grid(lo: float, hi: float, count: int) -> list:
    """``count`` >= 2 evenly spaced values from lo to hi, both included.

    Value i is i * step + lo with step = (hi - lo)/(count - 1), and the last is
    hi itself, so the grid is bit for bit the one ``numpy.linspace`` gives;
    like it, a step that underflows to zero is replaced by (i/(count - 1)) *
    (hi - lo).
    """
    div = count - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + lo for i in range(div)]
    else:
        values = [i * step + lo for i in range(div)]
    return values + [hi]


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


@contextlib.contextmanager
def _open_or_remove(path: str):
    """Open ``path`` for writing text; remove the file if the block raises.

    Rows stream into the open file, so a failure part way through would
    otherwise leave a truncated data file behind. Only a regular file is
    removed: a FIFO or a device named as the output stays where it is.
    """
    handle = open(path, "w", encoding="utf-8", newline="")
    regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    try:
        with handle:
            yield handle
    except BaseException:
        if regular:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _slices(columns):
    """The columns, read in step, as tuples of ``ROW_SLICE``-row lists; no whole column is listed."""
    columns = [iter(column) for column in columns]
    while (block := tuple(list(itertools.islice(column, ROW_SLICE)) for column in columns))[0]:
        yield block


def _csv_text(config: dict, extra: dict, names: tuple, slices):
    """A CSV data file in pieces: the header and column line, then one piece per row slice."""
    header = [f"# {k} = {str(v).lower() if isinstance(v, bool) else v}" for k, v in config.items()]
    header += [f"# {k} = {_fmt(v)}" for k, v in extra.items()]
    yield "\n".join(header + [",".join(names)]) + "\n"
    for block in slices:  # a column holding None as _fmt writes it, so a slice is one % operation
        formats, block = zip(*(("%s", list(map(_fmt, column))) if None in column else ("%.17g", column)
                               for column in block))
        row = ",".join(formats) + "\n"
        yield (row * len(block[0])) % tuple(itertools.chain.from_iterable(zip(*block)))


def _json_text(config: dict, extra: dict, names: tuple, slices):
    """A JSON data file in pieces: the header keys on one line, then one row object per line.

    Each row line is the text ``json.dumps`` gives the row's dict, with
    ``_json_cell`` applied to its values; the cells of a slice are encoded one
    column at a time.
    """
    head = {"config": config, **{k: _json_cell(v) for k, v in extra.items()}}
    yield json.dumps(head)[:-1] + ', "rows": ['
    row = "{" + ", ".join(json.dumps(name) + ": %s" for name in names) + "}"
    separator = "\n"
    for block in slices:
        yield separator + ",\n".join(row % cells for cells in zip(*map(_json_cells, block)))
        separator = ",\n"
    yield "\n]}\n"


def _emit(args, config: dict, names: tuple, columns, logscale: bool, ylabel: str,
          extra: dict | None = None) -> int:
    """Write one command's data file and its plot script; the only writer of either.

    ``columns`` holds one iterable per name, all of one nonempty length, of
    ints, floats or None; ``_slices`` cuts them into row slices that stream
    into the open file. ``config`` holds the command's own header keys, after
    ``command`` and ``format``. ``extra`` holds header values computed with
    the rows: CSV comments after the config, JSON keys before ``rows``. If
    anything raises while the files are written, neither is left behind.
    """
    out = args.out or f"{args.command}.{args.format}"
    config = {"command": args.command, "format": args.format, **config}
    extra = extra or {}
    if args.format == "csv":
        text = _csv_text(config, extra, names, _slices(columns))
        script, script_text = out + ".gp", _gnuplot_script(out, names, logscale, ylabel)
    else:
        text = _json_text(config, extra, names, _slices(columns))
        script, script_text = out + "_plot.py", _matplotlib_script(out, names, logscale, ylabel)
    with _open_or_remove(out) as data:
        data.writelines(text)
        with _open_or_remove(script) as plot:
            plot.write(script_text)
    print(f"wrote {out} and {script}")
    return EXIT_OK


def run_curve(args) -> int:
    n_min, n_max = parse_n_range(args.n_range)
    result = sweep.curve(args.loss, n_min, n_max, normalized=args.normalized)
    columns = (result.n, result.delta_phi, result.shot_noise, result.heisenberg)
    config = {"normalized": args.normalized, "loss": result.loss, "n_range": f"{n_min}:{n_max}"}
    return _emit(args, config, CURVE_COLUMNS, columns, logscale=True, ylabel="delta_phi")


def run_nopt(args) -> int:
    pairs = sweep.nopt_vs_loss(parse_loss_grid(args.loss_grid), args.n_max)
    config = {"normalized": False, "loss_grid": args.loss_grid, "n_max": args.n_max}
    return _emit(args, config, NOPT_COLUMNS, zip(*pairs), logscale=True, ylabel="n_opt")


def run_dist(args) -> int:
    samples = args.phi_samples
    if not MIN_PHI_SAMPLES <= samples <= MAX_PHI_SAMPLES:
        raise ValueError(f"phi-samples must be in {MIN_PHI_SAMPLES}..{MAX_PHI_SAMPLES}, got {samples}")
    # phi_k = k * (2 pi / samples); float times int is the same double either way round
    phi = map((2.0 * math.pi / samples).__mul__, range(samples))
    p = sweep.sine_density(args.loss, args.n, samples)
    config = {"loss": core.channel_from_loss(args.loss), "n": args.n, "phi_samples": samples}
    return _emit(args, config, DIST_COLUMNS, (phi, p), logscale=False,
                 ylabel="P(phi)", extra={"integral_p": sweep.sine_mass(args.loss, args.n)})


# ---------------------------------------------------------------------------
# validation: the check table of ``checks``, row by row
# ---------------------------------------------------------------------------


def run_validate() -> int:
    """Print the ``checks.CHECKS`` table, one row per check; exit 3 if a row fails."""
    from . import checks

    failure = None
    print(f"{'check':<40} {'max defect':>12} {'tolerance':>12} result")
    for check in checks.CHECKS:
        name, tol = check[:2]
        defect, witness = checks.worst_defect(check)
        ok = defect <= tol
        if not ok and failure is None:
            failure = f"{name} defect {defect:.3e} exceeds {tol:.3e} at {witness}"
        tag = "PASS" if ok else f"FAIL at {witness}"
        print(f"{name:<40} {defect:>12.3e} {tol:>12.3e} {tag}")
    if failure is not None:
        print(f"validation failed: {failure}", file=sys.stderr)
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
    curve_p.add_argument("--n-range", default=f"1:{sweep.DEFAULT_MAX_PHOTONS}", metavar="LO:HI")

    nopt_p = sub.add_parser("nopt", help="optimal photon number over a loss grid")
    nopt_p.add_argument("--loss-grid", required=True, metavar="LO:HI:COUNT[:log]")
    nopt_p.add_argument("--n-max", type=int, default=sweep.DEFAULT_MAX_PHOTONS)
    nopt_p.add_argument("--jobs", type=int, help="ignored; nopt runs in one process")

    dist_p = sub.add_parser("dist", help="phase distribution at fixed N and loss")
    dist_p.add_argument("--loss", type=float, required=True)
    dist_p.add_argument("--n", type=int, required=True)
    dist_p.add_argument("--phi-samples", type=int, default=1024)

    sub.add_parser("validate", help="run the oracle cross-check table")

    for p in (curve_p, nopt_p, dist_p):
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    curve_p.add_argument("--normalized", action="store_true")
    return parser


def _join_negative_values(argv) -> list:
    """``--loss VALUE`` as ``--loss=VALUE`` where VALUE starts with a single dash.

    The same for ``--loss-grid`` and ``--n-range``. argparse reads a word such
    as ``-1e-300``, ``-0.1:0.2:3`` or ``-inf`` as an option (its
    negative-number pattern has no exponent, no colon and no letters), which
    would refuse ``--loss -1e-300`` as a missing value instead of letting it
    reach the library's check. Joined, any such word meets the option's own
    parsing: a negative value in any spelling reaches the library, and a word
    such as ``-h`` is refused as a bad value.
    """
    words = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(words) - 1, 0, -1):
        if (words[i - 1] in ("--loss", "--loss-grid", "--n-range")
                and words[i].startswith("-") and not words[i].startswith("--")):
            words[i - 1 : i + 1] = [f"{words[i - 1]}={words[i]}"]
    return words


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(argv))
    try:
        if args.command == "validate":
            return run_validate()
        return {"curve": run_curve, "nopt": run_nopt, "dist": run_dist}[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
