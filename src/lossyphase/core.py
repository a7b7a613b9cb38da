"""Input rules and the Holevo spread, on the standard library alone.

These are the pieces the sine-state scan shares with the numpy layers. Since
nothing here imports numpy, ``sweep`` and ``cli`` import only this module and
the standard library, and a ``curve`` or ``nopt`` process never loads numpy.
This is the one home of each input rule (the photon number with its cap, the
loss and the loss grid, the Nyquist guard): every entry calls these rules, and
the package exports the cap and the loss rule from here. A loss is a plain
float L, the fraction of the phase-arm photons that the splitter scatters.
"""

from __future__ import annotations

import math
import operator

# Hard cap on the photon number accepted anywhere. It bounds the density path's
# (N+1)(N+2)/2 factor entries (67 MB of floats at N = 4096) and ``curve``'s rows.
MAX_PHOTON_NUMBER = 4096


def _check_cap(n_photons: int) -> None:
    if n_photons > MAX_PHOTON_NUMBER:
        raise ValueError(
            f"photon number {n_photons} exceeds the supported maximum {MAX_PHOTON_NUMBER}"
        )


def _check_type(x, name: str, method: str, kind: str):
    """``x`` itself, once its type has ``method`` and is not bool: the type rule of every input."""
    if isinstance(x, bool) or not hasattr(type(x), method):
        raise TypeError(f"{name} must be {kind}, got {type(x).__name__}")
    return x


def _check_integer(n, name: str) -> int:
    """``n`` as an int: any integer type, no bool or float."""
    return operator.index(_check_type(n, name, "__index__", "an integer"))


def _check_photon_number(n, name: str = "photon number") -> int:
    """``n`` as an int in 1..MAX_PHOTON_NUMBER."""
    n = _check_integer(n, name)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    _check_cap(n)
    return n


def _check_phase_samples(samples, n_photons: int) -> int:
    """``samples`` as an int at the Nyquist guard 4(N+1) or above: four points per harmonic."""
    samples = _check_integer(samples, "phase samples")
    if samples < 4 * (n_photons + 1):
        raise ValueError(f"{samples} phase samples are below the Nyquist guard "
                         f"{4 * (n_photons + 1)} for N = {n_photons}")
    return samples


def channel_from_loss(loss) -> float:
    """The loss fraction L as a float in [0, 1), the one rule every loss passes.

    Any real type but bool (so no str), then the range. Total loss is excluded:
    with every photon scattered no fringe is left and every sharpness term vanishes.
    """
    loss = float(_check_type(loss, "loss", "__float__", "a real number"))
    if not loss >= 0.0:  # NaN too
        raise ValueError(f"loss must be >= 0, got {loss}")
    if loss >= 1.0:
        raise ValueError(f"loss must be < 1, got {loss}")
    return loss + 0.0  # -0.0 passes the range and comes back as 0.0; every other loss as itself


def _check_loss_grid(grid) -> list:
    """The grid's values as floats, once each type, then their order and then each value pass the loss rules."""
    grid = [float(_check_type(x, "loss", "__float__", "a real number")) for x in grid]
    for a, b in zip(grid, grid[1:]):
        if b < a:
            raise ValueError(f"loss grid must not descend, got {a!r} then {b!r}")
    return [channel_from_loss(x) for x in grid]


def _holevo_spread(sharp: float, defect: float) -> tuple:
    """Holevo variance (1-S)(1+S)/S^2 and its root delta-phi, from S and 1 - S.

    Taking 1 - S as ``povm.phase_estimate`` or the sweep's closed form gives it,
    rather than forming 1/S^2 - 1, keeps the digits near the Heisenberg line
    where S is within 1e-7 of 1. Where S <= 0 both are inf, and nothing is
    divided. Where S^2 rounds to 0 (S below about 1.6e-162), the variance is inf.
    """
    if not sharp > 0.0:
        return math.inf, math.inf
    spread, square = defect * (1.0 + sharp), sharp * sharp
    return (spread / square if square else math.inf), math.sqrt(spread) / sharp
