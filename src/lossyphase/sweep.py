"""Minimum-detectable-phase curves over photon number and their landmarks.

Every curve point is the sharpness S and its defect 1 - S of the sine state
in closed form, a few dozen numpy operations over the whole vector of photon
numbers at one loss: no per-N loop, no amplitudes, and memory O(n_max) per
loss whatever the length of a loss grid. ``_scan`` yields delta-phi =
sqrt((1-S)(1+S))/S one loss at a time and serves ``curve``, the landmark
finders and ``nopt_vs_loss``. ``povm._sharpness_kernel`` sums the same S for
any amplitudes and stays the reference the tests hold this form to.
``curve`` returns its scan column by column, one array each for N, delta-phi
and the two reference lines (``SweepResult``), so no object is built per
point.

With m = N + 2, a = pi/m and q = 1 - L, the sine state has
g_t = sqrt(2/m) sin((t+1)a) q^(t/2). Since sin((t+1)a) vanishes at t = -1 and
t = N + 1 and flips sign under t -> t + m, the terms of the infinite sums
sum_t g_t g_{t-1} and sum_t g_t^2 past t = N are the whole sums' terms again,
times q^m; each finite sum is the geometric infinite sum times 1 - q^m. With
R = (1 - q^m)/(1 - q) and D = L^2 + 4q sin^2 a (both positive):

    S = (4/m) sqrt(q) cos(a) sin^2(a) R / D
    M = sum g^2 = (2/m) (1 + q) sin^2(a) R / D
    M - S = (2/m) sin^2(a) R [(1 - sqrt q)^2 + 4 sqrt(q) sin^2(a/2)] / D

Raw, 1 - S = (1 - M) + (M - S), a sum of nonnegative parts. Normalized, R/D
cancels: S/M = 2 sqrt(q) cos(a) / (1 + q) and 1 - S/M = (M - S)/M. Every
quantity keeps about 15 digits (within 2e-15 of 50-digit mpmath); see
``_sine_sharpness`` for 1 - M. The results are deterministic for identical
inputs, and a loss gets the same row on its own as in any grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .loss import channel_from_loss
from .povm import _holevo_spread
from .states import _check_cap

DEFAULT_MAX_PHOTONS = 1000

# Taylor coefficients 1/(k+2)! of (e^{-u} - 1 + u)/u^2 in powers of -u; 17
# terms leave a remainder below 1/19! < 1e-17 of the sum for u < 1.
_PHI_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(17))


@dataclass(frozen=True)
class CurvePoint:
    """One photon number with its phase uncertainty and the two reference lines."""

    n: int
    delta_phi: float
    shot_noise: float
    heisenberg: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A scanned curve, column by column, plus the located optimum and sub-shot-noise edge.

    ``n`` (ints), ``delta_phi``, ``shot_noise`` and ``heisenberg`` are
    read-only arrays with one entry per scanned photon number, in ascending
    order. ``n_opt`` and ``n_subshot_max`` are None when the feature is not
    pinned down inside the scanned range (minimum still falling at the top of
    the scan, or no sub-shot-noise point at all).
    """

    loss: float
    n: np.ndarray
    delta_phi: np.ndarray
    shot_noise: np.ndarray
    heisenberg: np.ndarray
    n_opt: int | None
    n_subshot_max: int | None

    @cached_property
    def points(self) -> tuple:
        """The columns as one ``CurvePoint`` per photon number, built on first read.

        Nothing in the package reads it; the benchmark's traced run counts a
        curve's points through it.
        """
        columns = (self.n, self.delta_phi, self.shot_noise, self.heisenberg)
        return tuple(map(CurvePoint, *(column.tolist() for column in columns)))


def _phi_over_square(u: np.ndarray) -> np.ndarray:
    """(e^{-u} - 1 + u)/u^2 for u >= 0: its series below u = 1, no cancellation above."""
    out = np.empty_like(u)
    small = u < 1.0
    x = u[small]
    acc = np.full_like(x, _PHI_SERIES[-1])
    for c in _PHI_SERIES[-2::-1]:
        acc *= -x
        acc += c
    out[small] = acc
    x = u[~small]
    out[~small] = (np.expm1(-x) + x) / (x * x)
    return out


def _sine_sharpness(loss: float, n: np.ndarray, normalized: bool) -> tuple:
    """S and 1 - S of the sine state at one loss, for every photon number in ``n``.

    The closed form of the module docstring, in lambda = -log1p(-L) so that
    1 - q^m = -expm1(-m lambda) and 1 - sqrt(q) = -expm1(-lambda/2) keep their
    digits at small L. Where M >= 2/3 the difference 1 - M would cancel, so it
    is formed as [L^2 + sin^2(a) lambda B] / D with phi(u) = e^{-u} - 1 + u and

        lambda B = (4/m)(phi(m lambda) - m phi(lambda))/L - 4L + (2/m)(1 - q^m),

    where phi(u) = u^2 (phi(u)/u^2) lets lambda factor out of B, so nothing
    underflows down to L = 5e-324 and 1 - M stays nonnegative. Below 2/3 the
    subtraction 1 - M at most doubles M's rounding and is used as it is.
    """
    m = n + 2.0
    a = np.pi / m
    rate = -math.log1p(-loss)
    root_q = math.sqrt(1.0 - loss)
    half = np.sin(0.5 * a)
    near = math.expm1(-0.5 * rate) ** 2 + 4.0 * root_q * half * half
    if normalized:
        return 2.0 * root_q * np.cos(a) / (2.0 - loss), near / (2.0 - loss)
    # R = kept * ratio with kept = (1 - q^m)/lambda and ratio = lambda/L, whose
    # limits at L = 0 are m and 1
    kept, ratio = (m, 1.0) if loss == 0.0 else (-np.expm1(-m * rate) / rate, rate / loss)
    sin2 = np.sin(a) ** 2
    denom = loss * loss + 4.0 * (1.0 - loss) * sin2
    base = (2.0 / m) * sin2 * (kept * ratio) / denom
    mass = (2.0 - loss) * base
    phis = _phi_over_square(np.append(rate, m * rate))
    bracket = 4.0 * ratio * (m * phis[1:] - phis[0]) - 4.0 / ratio + (2.0 / m) * kept
    unkept = (loss * loss + sin2 * (rate * bracket)) / denom
    unkept = np.where(mass < 2.0 / 3.0, 1.0 - mass, unkept)
    return 2.0 * root_q * np.cos(a) * base, unkept + near * base


def _scan(losses, n_min: int, n_max: int, normalized: bool):
    """Delta-phi over N = n_min..n_max at each loss, one row per loss in the order given.

    Divergent points are explicit infinities. The range, the photon-number
    cap and every loss are checked before any point.
    """
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}:{n_max}")
    _check_cap(n_max)
    losses = [channel_from_loss(x).loss for x in losses]
    n = np.arange(n_min, n_max + 1, dtype=float)
    for loss in losses:
        yield _holevo_spread(*_sine_sharpness(loss, n, normalized))[1]


def _shot_noise(n_min: int, n_max: int) -> np.ndarray:
    return 1.0 / np.sqrt(np.arange(n_min, n_max + 1, dtype=float))


def curve(
    loss: float,
    n_min: int = 1,
    n_max: int = DEFAULT_MAX_PHOTONS,
    normalized: bool = False,
) -> SweepResult:
    """Scan delta-phi over every integer photon number in [n_min, n_max].

    Divergent points are carried through as explicit infinities; no photon
    number is ever dropped from the scan. The result holds one array per
    column; ``heisenberg`` is ``math.tan(pi/(N+2))`` of each N.
    """
    delta_phi = next(_scan([loss], n_min, n_max, normalized))
    n = np.arange(n_min, n_max + 1)
    shot_noise = _shot_noise(n_min, n_max)
    # math.tan, not np.tan: the two differ in the last bit at some N, and the
    # data files keep math.tan's values
    heisenberg = np.fromiter(map(math.tan, (math.pi / (n + 2.0)).tolist()), float, n.size)
    for column in (n, delta_phi, shot_noise, heisenberg):
        column.flags.writeable = False
    return SweepResult(
        loss=float(loss),
        n=n,
        delta_phi=delta_phi,
        shot_noise=shot_noise,
        heisenberg=heisenberg,
        n_opt=_locate_n_opt(delta_phi, n_min),
        n_subshot_max=_locate_subshot_max(delta_phi, shot_noise, n_min),
    )


def _locate_n_opt(delta_phi: np.ndarray, n_min: int) -> int | None:
    # A minimum sitting at the top of the scan means the curve is still
    # falling there; report that as not-in-range rather than as an optimum.
    # argmin keeps the first of equal minima, so ties go to the smaller N.
    best = int(np.argmin(delta_phi))
    return None if best == delta_phi.size - 1 else n_min + best


def _locate_subshot_max(delta_phi: np.ndarray, shot_noise: np.ndarray, n_min: int) -> int | None:
    # The stretch runs right from the lowest sub-shot-noise point, which is
    # the curve's minimum whenever that minimum beats shot noise.
    below = delta_phi < shot_noise
    if not below.any():
        return None
    start = int(np.argmin(np.where(below, delta_phi, math.inf)))
    above = np.flatnonzero(~below[start:])
    return None if above.size == 0 else n_min + start + int(above[0]) - 1


def _landmarks(losses, n_max: int, normalized: bool) -> list:
    """(n_opt, n_subshot_max) of the scan N = 1..n_max at each loss, in the order given."""
    shot_noise = _shot_noise(1, n_max)
    return [
        (_locate_n_opt(row, 1), _locate_subshot_max(row, shot_noise, 1))
        for row in _scan(losses, 1, n_max, normalized)
    ]


def find_n_opt(loss: float, n_max: int = DEFAULT_MAX_PHOTONS, normalized: bool = False) -> int | None:
    """Photon number minimizing delta-phi, ties broken toward smaller N."""
    return _landmarks([loss], n_max, normalized)[0][0]


def find_subshot_bound(
    loss: float,
    n_max: int = DEFAULT_MAX_PHOTONS,
    normalized: bool = False,
) -> int | None:
    """Largest N of the sub-shot-noise stretch around the curve's minimum."""
    return _landmarks([loss], n_max, normalized)[0][1]


def nopt_vs_loss(loss_grid, n_max: int = DEFAULT_MAX_PHOTONS, normalized: bool = False):
    """(loss, n_opt) pairs over an ascending grid of loss values."""
    grid = [float(x) for x in loss_grid]
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ValueError("loss grid must be strictly ascending")
    return [(loss, n_opt) for loss, (n_opt, _) in zip(grid, _landmarks(grid, n_max, normalized))]
