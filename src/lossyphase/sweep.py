"""Minimum-detectable-phase curves over photon number and their landmarks.

Every point uses the closed-form sharpness, so a scan to N in the thousands
stays cheap; the density-matrix machinery is deliberately not on this path.
One scan engine serves ``curve``, the landmark finders and ``nopt_vs_loss``:
it takes the losses in blocks of at most ``LOSS_BLOCK``, builds their loss
factors once per block as a (losses x t) array, and then walks N once,
building each sine profile once and handing it with the first N + 1 columns
of the factors to the sharpness kernel, which sums every loss of the block
at the same time. S and 1 - S go into preallocated (N x losses) arrays, and
delta-phi = sqrt((1-S)(1+S))/S is formed for the whole block after the walk.
A single curve is a one-loss block. The results are deterministic for
identical inputs, and a loss gets the same digits in any block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss import channel_from_loss
from .povm import _holevo_spread, _loss_factors, _sharpness_kernel
from .states import _check_cap, _sine_profile

DEFAULT_MAX_PHOTONS = 1000

# Losses scanned together. The engine's arrays are LOSS_BLOCK x (n_max + 1)
# at most, so its memory does not grow with the length of the loss grid.
LOSS_BLOCK = 64


@dataclass(frozen=True)
class CurvePoint:
    """One photon number with its phase uncertainty and the two reference lines."""

    n: int
    delta_phi: float
    shot_noise: float
    heisenberg: float


@dataclass(frozen=True)
class SweepResult:
    """A scanned curve plus the located optimum and sub-shot-noise edge.

    ``n_opt`` and ``n_subshot_max`` are None when the feature is not pinned
    down inside the scanned range (minimum still falling at the top of the
    scan, or no sub-shot-noise point at all).
    """

    loss: float
    points: tuple
    n_opt: int | None
    n_subshot_max: int | None


def _scan(losses, n_min: int, n_max: int, normalized: bool):
    """Delta-phi over N = n_min..n_max at each loss, one block of losses at a time.

    Yields one (block, n_max - n_min + 1) array per block, a row per loss in
    the order given; divergent points are explicit infinities. The range,
    the photon-number cap and every loss are checked before any point.
    """
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}:{n_max}")
    _check_cap(n_max)
    losses = [channel_from_loss(x).loss for x in losses]
    for start in range(0, len(losses), LOSS_BLOCK):
        block = losses[start : start + LOSS_BLOCK]
        survival, lost = _loss_factors(n_max, block)
        sharp = np.empty((n_max - n_min + 1, len(block)))
        defect = np.empty_like(sharp)
        for i, n in enumerate(range(n_min, n_max + 1)):
            keep = slice(0, n + 1)
            sharp[i], defect[i] = _sharpness_kernel(
                _sine_profile(n), survival[:, keep], lost[:, keep], normalized
            )
        yield _holevo_spread(sharp, defect)[1].T


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
    number is ever dropped from the scan.
    """
    (delta_phi,) = next(_scan([loss], n_min, n_max, normalized))
    shot_noise = _shot_noise(n_min, n_max)
    points = tuple(
        CurvePoint(n=n, delta_phi=d, shot_noise=s, heisenberg=math.tan(math.pi / (n + 2)))
        for n, d, s in zip(range(n_min, n_max + 1), delta_phi.tolist(), shot_noise.tolist())
    )
    return SweepResult(
        loss=float(loss),
        points=points,
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
        for block in _scan(losses, 1, n_max, normalized)
        for row in block
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
