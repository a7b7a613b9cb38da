"""Minimum-detectable-phase curves over photon number and their landmarks.

Every point uses the closed-form sharpness, so a scan to N in the thousands
stays cheap; the density-matrix machinery is deliberately not on this path.
A scan computes the loss factors once, up to its largest photon number, and
feeds each N's sine profile and a slice of them to the sharpness kernel;
the assembled results are deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .loss import channel_from_loss
from .povm import _loss_factors, _sharpness_kernel
from .states import _check_cap, _sine_profile

DEFAULT_MAX_PHOTONS = 1000


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
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}:{n_max}")
    _check_cap(n_max)
    ch = channel_from_loss(loss)
    survival, lost = _loss_factors(n_max, ch.loss)
    points = []
    for n in range(n_min, n_max + 1):
        keep = slice(0, n + 1)
        sharp, defect = _sharpness_kernel(_sine_profile(n), survival[keep], lost[keep], normalized)
        points.append(
            CurvePoint(
                n=n,
                # sqrt(1/S^2 - 1), without the cancellation of 1/S^2 - 1 near S = 1
                delta_phi=math.sqrt(defect * (1.0 + sharp)) / sharp if sharp > 0.0 else math.inf,
                shot_noise=1.0 / math.sqrt(n),
                heisenberg=math.tan(math.pi / (n + 2)),
            )
        )
    points = tuple(points)
    return SweepResult(
        loss=ch.loss,
        points=points,
        n_opt=_locate_n_opt(points, n_max),
        n_subshot_max=_locate_subshot_max(points, n_max),
    )


def _locate_n_opt(points, n_max: int) -> int | None:
    # A minimum sitting at the top of the scan means the curve is still
    # falling there; report that as not-in-range rather than as an optimum.
    # min() keeps the first of equal minima, so ties go to the smaller N.
    best = min(points, key=lambda p: p.delta_phi).n
    return None if best == n_max else best


def _locate_subshot_max(points, n_max: int) -> int | None:
    # The stretch runs right from the lowest sub-shot-noise point, which is
    # the curve's minimum whenever that minimum beats shot noise.
    below = [p.delta_phi < p.shot_noise for p in points]
    if not any(below):
        return None
    start = min((i for i, b in enumerate(below) if b), key=lambda i: points[i].delta_phi)
    end = next((i for i in range(start, len(below)) if not below[i]), len(below))
    edge = points[end - 1].n
    return None if edge == n_max else edge


def find_n_opt(loss: float, n_max: int = DEFAULT_MAX_PHOTONS, normalized: bool = False) -> int | None:
    """Photon number minimizing delta-phi, ties broken toward smaller N."""
    return curve(loss, 1, n_max, normalized=normalized).n_opt


def find_subshot_bound(
    loss: float,
    n_max: int = DEFAULT_MAX_PHOTONS,
    normalized: bool = False,
) -> int | None:
    """Largest N of the sub-shot-noise stretch around the curve's minimum."""
    return curve(loss, 1, n_max, normalized=normalized).n_subshot_max


def nopt_vs_loss(loss_grid, n_max: int = DEFAULT_MAX_PHOTONS, normalized: bool = False):
    """(loss, n_opt) pairs over an ascending grid of loss values."""
    grid = [float(x) for x in loss_grid]
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ValueError("loss grid must be strictly ascending")
    return [(loss, find_n_opt(loss, n_max, normalized=normalized)) for loss in grid]
