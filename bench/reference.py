"""Independent reference checks of benchmark outputs.

Nothing here calls lossyphase. Sharpness and delta-phi are recomputed with
50-digit mpmath at sampled rows; whole curves and every ``n_opt`` with a
separate numpy quadratic form whose survival factor comes from ``log1p``;
the phase distribution with an FFT. A disagreement with numpy on ``n_opt``
is settled with mpmath at both candidates.

Each check returns a :class:`Check`; ``digits`` is the fewest correct
significant digits found against mpmath, or None when the job emits no
value that the ``digits_min`` metric covers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import mpmath
import numpy as np

mpmath.mp.dps = 50

# A value compared with mpmath fails below this many correct digits. The
# normalized delta-phi near the Heisenberg line at N = 4096 keeps only 9.2
# to 9.9: sqrt(1/S^2 - 1) cancels about -log10(dphi^2) digits of S.
MIN_DIGITS = 8.5
# Relative tolerance against the float64 numpy reference, which suffers the
# same cancellation (~2e-10 relative there).
NUMPY_RTOL = 1e-8
DIGITS_CAP = 17.0


@dataclass(frozen=True)
class Check:
    ok: bool
    digits: float | None = None
    detail: str = ""


def digits(value: float, exact) -> float:
    """Correct significant digits of ``value`` against ``exact``, capped at 17."""
    if not math.isfinite(value):
        return 0.0
    err = abs(mpmath.mpf(value) - exact)
    if err == 0:
        return DIGITS_CAP
    return min(DIGITS_CAP, float(-mpmath.log10(err / abs(exact))))


# ---------------------------------------------------------------------------
# mpmath references
# ---------------------------------------------------------------------------


def _mp_weights(n: int, loss: float) -> list:
    """g_t = psi_t (1-L)^(t/2) of the optimal sine state, t = 0..N."""
    step = mpmath.pi / (n + 2)
    scale = 1 / mpmath.sqrt(mpmath.mpf(n) / 2 + 1)
    root = mpmath.sqrt(1 - mpmath.mpf(loss))
    out, factor = [], mpmath.mpf(1)
    for t in range(n + 1):
        out.append(mpmath.sin((t + 1) * step) * scale * factor)
        factor *= root
    return out


def mp_sharpness(n: int, loss: float, normalized: bool = False):
    g = _mp_weights(n, loss)
    s = mpmath.fsum(g[t] * g[t - 1] for t in range(1, n + 1))
    if normalized:
        s /= mpmath.fsum(x * x for x in g)
    return s


def mp_delta_phi(n: int, loss: float, normalized: bool = False):
    s = mp_sharpness(n, loss, normalized)
    return mpmath.sqrt(1 / (s * s) - 1)


def mp_phase_density(n: int, loss: float, phi: float):
    """P(phi) = |sum_t g_t e^{i t phi}|^2 / 2pi."""
    g = _mp_weights(n, loss)
    x = mpmath.mpf(phi)
    re = mpmath.fsum(g[t] * mpmath.cos(t * x) for t in range(n + 1))
    im = mpmath.fsum(g[t] * mpmath.sin(t * x) for t in range(n + 1))
    return (re * re + im * im) / (2 * mpmath.pi)


# ---------------------------------------------------------------------------
# numpy references
# ---------------------------------------------------------------------------


def _np_weights(n: int, loss: float) -> np.ndarray:
    t = np.arange(n + 1)
    psi = np.sin((t + 1) * math.pi / (n + 2)) / math.sqrt(n / 2 + 1)
    return psi * np.exp(0.5 * t * math.log1p(-loss))


def np_sharpness_table(losses, n_max: int):
    """Raw sharpness and measured-sector mass for N = 1..n_max, one row per loss."""
    losses = np.asarray(losses, dtype=float)
    survival = np.exp(np.outer(0.5 * np.log1p(-losses), np.arange(n_max + 1)))
    sharp = np.empty((len(losses), n_max))
    mass = np.empty((len(losses), n_max))
    for n in range(1, n_max + 1):
        psi = np.sin(np.arange(1, n + 2) * (math.pi / (n + 2))) / math.sqrt(n / 2 + 1)
        g = survival[:, : n + 1] * psi
        sharp[:, n - 1] = np.sum(g[:, 1:] * g[:, :-1], axis=1)
        mass[:, n - 1] = np.sum(g * g, axis=1)
    return sharp, mass


def _delta_phi(sharp: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.sqrt(1.0 / (sharp * sharp) - 1.0)


# ---------------------------------------------------------------------------
# output parsers
# ---------------------------------------------------------------------------


def _read_csv(path: str):
    comments, header, rows = {}, None, []
    with open(path, encoding="utf-8") as handle:
        for line in handle.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                comments[key] = value
            elif header is None:
                header = line
            else:
                rows.append(line.split(","))
    return comments, header, rows


def _read_curve(path: str, fmt: str):
    if fmt == "csv":
        _, header, rows = _read_csv(path)
        if header != "n,delta_phi,shot_noise,heisenberg":
            raise ValueError(f"unexpected header {header!r}")
        cols = list(zip(*rows))
    else:
        with open(path, encoding="utf-8") as handle:
            rows = json.load(handle)["rows"]
        cols = [[r[k] for r in rows] for k in ("n", "delta_phi", "shot_noise", "heisenberg")]
    n = np.array([int(x) for x in cols[0]])
    return n, *(np.array([float(x) for x in c]) for c in cols[1:])


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------


def check_curve(job, path: str, table=None) -> Check:
    p = job.params
    try:
        n, dphi, shot, heis = _read_curve(path, p["format"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Check(False, None, f"unreadable output: {exc}")
    expected_n = np.arange(p["n_min"], p["n_max"] + 1)
    if not np.array_equal(n, expected_n):
        return Check(False, None, "photon-number column is not n_min..n_max")
    if not np.allclose(shot, 1.0 / np.sqrt(n), rtol=1e-14, atol=0.0):
        return Check(False, None, "shot_noise column is wrong")
    if not np.allclose(heis, np.tan(np.pi / (n + 2)), rtol=1e-14, atol=0.0):
        return Check(False, None, "heisenberg column is wrong")

    sharp, mass = table if table is not None else np_sharpness_table([p["loss"]], p["n_max"])
    sharp, mass = sharp[0], mass[0]
    if p["normalized"]:
        sharp = sharp / mass
    ref = _delta_phi(sharp[p["n_min"] - 1:])
    bad = ~((dphi == ref) | (np.abs(dphi - ref) <= NUMPY_RTOL * ref))
    if np.any(bad):
        i = int(np.argmax(bad))
        return Check(False, None, f"delta_phi at N={n[i]} is {dphi[i]!r}, numpy gives {ref[i]!r}")

    worst = DIGITS_CAP
    for m in p["sample_n"]:
        d = digits(dphi[m - p["n_min"]], mp_delta_phi(m, p["loss"], p["normalized"]))
        worst = min(worst, d)
        if d < MIN_DIGITS:
            return Check(False, worst, f"delta_phi at N={m} has {d:.2f} correct digits")
    return Check(True, worst)


def _settle_n_opt(loss: float, emitted: int, ref: int) -> bool:
    """True when mpmath says ``emitted`` is at least as good as ``ref``."""
    a, b = mp_delta_phi(emitted, loss), mp_delta_phi(ref, loss)
    return a <= b * (1 + mpmath.mpf("1e-12"))


def check_nopt(job, path: str) -> Check:
    p = job.params
    try:
        _, header, rows = _read_csv(path)
        losses = [float(r[0]) for r in rows]
        n_opts = [None if r[1] == "none" else int(r[1]) for r in rows]
    except (OSError, ValueError, IndexError) as exc:
        return Check(False, None, f"unreadable output: {exc}")
    if header != "loss,n_opt" or len(rows) != p["count"]:
        return Check(False, None, f"bad header or {len(rows)} rows")

    a, b = mpmath.log10(mpmath.mpf(p["lo"])), mpmath.log10(mpmath.mpf(p["hi"]))
    worst = DIGITS_CAP
    for i, loss in enumerate(losses):
        exact = mpmath.power(10, a + (b - a) * i / (p["count"] - 1))
        d = digits(loss, exact)
        worst = min(worst, d)
        if d < MIN_DIGITS:
            return Check(False, worst, f"grid loss {i} is {loss!r}, {d:.2f} correct digits")

    n_max = p["n_max"]
    sharp, _ = np_sharpness_table(losses, n_max)
    best = np.argmax(sharp, axis=1) + 1
    for loss, emitted, ref in zip(losses, n_opts, best):
        ref = int(ref)
        expected = None if ref == n_max else ref
        if emitted == expected:
            continue
        if not _settle_n_opt(loss, n_max if emitted is None else emitted, ref):
            return Check(False, worst, f"n_opt at L={loss!r} is {emitted}, reference {expected}")
    return Check(True, worst)


def check_dist(job, path: str) -> Check:
    p = job.params
    try:
        comments, header, rows = _read_csv(path)
        phi = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        integral = float(comments["integral_p"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Check(False, None, f"unreadable output: {exc}")
    m = p["phi_samples"]
    if header != "phi,p" or len(phi) != m:
        return Check(False, None, f"bad header or {len(phi)} rows")
    if np.max(np.abs(phi - np.arange(m) * (2 * math.pi / m))) > 1e-13:
        return Check(False, None, "phi column is not a uniform grid over a turn")

    n, loss = p["n"], p["loss"]
    g = np.zeros(m)
    g[: n + 1] = _np_weights(n, loss)
    ref = np.abs(m * np.fft.ifft(g)) ** 2 / (2 * math.pi)
    scale = float(np.max(ref))
    bad = np.abs(dens - ref) > 1e-10 * scale
    if np.any(bad):
        i = int(np.argmax(bad))
        return Check(False, None, f"P at row {i} is {dens[i]!r}, FFT gives {ref[i]!r}")
    for i in p["sample_rows"]:
        exact = mp_phase_density(n, loss, phi[i])
        if abs(mpmath.mpf(dens[i]) - exact) > 1e-10 * scale:
            return Check(False, None, f"P at row {i} is {dens[i]!r}, mpmath gives {float(exact)!r}")
    exact_mass = mpmath.fsum(x * x for x in _mp_weights(n, loss))
    if digits(integral, exact_mass) < MIN_DIGITS:
        return Check(False, None, f"integral_p {integral!r} against {float(exact_mass)!r}")
    return Check(True, None)


def check_validate(stdout_path: str) -> Check:
    try:
        with open(stdout_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()[1:]
    except OSError as exc:
        return Check(False, None, f"unreadable output: {exc}")
    if not lines or not all(line.endswith(" PASS") for line in lines):
        return Check(False, None, "validate table has a row that did not pass")
    return Check(True, None)


def check_density(job, path: str) -> Check:
    p = job.params
    try:
        with open(path, encoding="utf-8") as handle:
            rows = json.load(handle)["rows"]
        got = {(r["n"], r["loss"]): r for r in rows}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Check(False, None, f"unreadable output: {exc}")
    worst = DIGITS_CAP
    for n in p["ns"]:
        for loss in p["losses"]:
            row = got.get((n, loss))
            if row is None:
                return Check(False, None, f"no row for N={n} L={loss!r}")
            for key in ("norm_pure", "trace_rho"):
                if abs(row[key] - 1.0) > 1e-12:
                    return Check(False, None, f"{key} = {row[key]!r} at N={n} L={loss!r}")
            d = digits(row["sharpness_density"], mp_sharpness(n, loss))
            worst = min(worst, d)
            if d < MIN_DIGITS:
                return Check(False, worst, f"density sharpness at N={n} L={loss!r}: {d:.2f} digits")
    return Check(True, worst)


def check_job(job, pass_dir: str, table=None) -> Check:
    """Check one job's output in ``pass_dir`` against the references."""
    if job.kind == "validate":
        return check_validate(os.path.join(pass_dir, f"{job.name}.stdout"))
    path = os.path.join(pass_dir, job.out)
    if job.kind == "curve":
        return check_curve(job, path, table)
    if job.kind == "nopt":
        return check_nopt(job, path)
    if job.kind == "dist":
        return check_dist(job, path)
    return check_density(job, path)


def curve_tables(jobs) -> dict:
    """Numpy sharpness tables for every curve job, built in one pass over N."""
    curves = [j for j in jobs if j.kind == "curve"]
    if not curves:
        return {}
    n_max = max(j.params["n_max"] for j in curves)
    sharp, mass = np_sharpness_table([j.params["loss"] for j in curves], n_max)
    return {
        j.name: (sharp[i : i + 1, : j.params["n_max"]], mass[i : i + 1, : j.params["n_max"]])
        for i, j in enumerate(curves)
    }
