"""Two-mode input states as real amplitude vectors over the photon split."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_cap, _check_photon_number

# An amplitude vector whose squared norm strays further than this from 1 is
# rejected outright; silently renormalizing would hide caller bugs.
NORMALIZATION_TOLERANCE = 1e-12


def _real_entries(values, name: str) -> np.ndarray:
    """``values`` as a float array, once its dtype is integer or float.

    numpy would otherwise take a complex entry's real part (with only a
    warning), a string's number and a bool's 0 or 1 without a word.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} entries must be integers or floats, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


@dataclass(frozen=True, eq=False)
class AmplitudeVector:
    """Real amplitudes psi_t of a pure two-mode state of N = len(psi) - 1 photons.

    Entry t is the Fock pair |t> in the lossy arm and |N-t> in the reference
    arm (t = j + mu in spin language). The vector is validated on
    construction and frozen afterwards.
    """

    psi: np.ndarray

    def __post_init__(self):
        arr = _real_entries(self.psi, "psi")
        if arr.ndim != 1:
            raise ValueError("psi must be one-dimensional")
        if arr.shape[0] == 0:
            raise ValueError("photon number must be nonnegative, got psi with no entries")
        _check_cap(arr.shape[0] - 1)
        if not np.all(np.isfinite(arr)):
            raise ValueError("psi entries must be finite")
        norm_sq = float(np.sum(arr * arr))
        if abs(norm_sq - 1.0) > NORMALIZATION_TOLERANCE:
            raise ValueError(
                f"psi is not normalized: sum psi^2 = {norm_sq!r} "
                f"(tolerance {NORMALIZATION_TOLERANCE})"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "psi", arr)

    @property
    def n_photons(self) -> int:
        return self.psi.shape[0] - 1


def optimal_amplitudes(n_photons: int) -> AmplitudeVector:
    """Variance-minimizing input state for the ideal phase measurement.

    psi_t = sin[(t+1) pi / (N+2)] / sqrt(N/2+1), which is strictly positive,
    symmetric about t = N/2, and exactly normalized. A single photon is the
    minimum: with none there is no fringe to sharpen.
    """
    n_photons = _check_photon_number(n_photons)  # before allocating anything of that size
    return AmplitudeVector(_sine_profile(n_photons))


def _sine_profile(n_photons: int) -> np.ndarray:
    """psi_t = sin[(t+1) pi / (N+2)] / sqrt(N/2+1) for t = 0..N, unchecked.

    Only t <= N/2 is computed; the rest is the mirror image psi_{N-t} = psi_t.
    That halves the sines and keeps the tail exact: taken directly near t = N,
    sin((t+1) pi / (N+2)) has a rounded argument close to pi and a small
    result, and loses relative digits (1.6e-13 at N = 4096).
    """
    head = np.sin(np.arange(1, n_photons // 2 + 2, dtype=float) * math.pi / (n_photons + 2))
    head /= math.sqrt(n_photons / 2.0 + 1.0)
    return np.concatenate((head, head[n_photons - head.size :: -1]))
