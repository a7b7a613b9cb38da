"""Input limits, the loss channel and the Holevo spread, on the standard library alone.

These are the pieces the sine-state scan shares with the numpy layers. Since
nothing here imports numpy, ``sweep`` and ``cli`` import only this module and
the standard library, and a ``curve`` or ``nopt`` process never loads numpy.
This is the one home of the cap and the channel: the package exports them from
here, and the numpy layers import them from here.
"""

from __future__ import annotations

import math
from collections import namedtuple

# Hard cap on the photon number accepted anywhere in the library. Beyond this
# the dense numerics dominate cost long before the indexing does.
MAX_PHOTON_NUMBER = 4096


def _check_cap(n_photons: int) -> None:
    if n_photons > MAX_PHOTON_NUMBER:
        raise ValueError(
            f"photon number {n_photons} exceeds the supported maximum {MAX_PHOTON_NUMBER}"
        )


class LossChannel(namedtuple("LossChannel", "loss")):
    """Fraction L (a float) of the phase-arm photons that the splitter scatters.

    A named tuple, not a dataclass: ``collections`` is loaded with ``re``
    anyway, while ``dataclasses`` would load ``inspect``, ``ast`` and ``dis``
    into every ``curve`` and ``nopt`` process.
    """

    __slots__ = ()


def channel_from_loss(loss: float) -> LossChannel:
    """Build the channel for a loss fraction in [0, 1).

    Total loss is excluded: with every photon scattered there is no fringe
    left and every sharpness term vanishes identically.
    """
    loss = float(loss)
    if not math.isfinite(loss) or loss < 0.0:
        raise ValueError(f"loss must be >= 0, got {loss}")
    if loss >= 1.0:
        raise ValueError(f"loss must be < 1, got {loss}")
    return LossChannel(loss=loss)


def _holevo_spread(sharp: float, defect: float) -> tuple:
    """Holevo variance (1-S)(1+S)/S^2 and its root delta-phi, from S and 1 - S.

    Taking 1 - S as the sharpness kernel or the sweep's closed form gives it,
    rather than forming 1/S^2 - 1, keeps the digits near the Heisenberg line
    where S is within 1e-7 of 1. Where S <= 0 both are inf, and nothing is
    divided.
    """
    if not sharp > 0.0:
        return math.inf, math.inf
    spread = defect * (1.0 + sharp)
    return spread / (sharp * sharp), math.sqrt(spread) / sharp
