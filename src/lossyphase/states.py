"""Two-mode input states as real amplitude vectors over the photon split, and
``_frozen_vector``, the one rule that builds psi, each block factor w_ell and g."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_cap, _check_photon_number

# An amplitude vector whose squared norm strays further than this from 1 is
# rejected outright; silently renormalizing would hide caller bugs.
NORMALIZATION_TOLERANCE = 1e-12


def _frozen_vector(values, name: str, size: int | None = None) -> np.ndarray:
    """``values`` as a read-only vector of finite floats, by one rule for every numpy value.

    In order: an integer or float dtype (numpy would take a complex entry's
    real part, a string's number or a bool's 0 or 1); one dimension, nonempty
    and ``size`` long if given; len - 1 photons within the cap, before any
    copy; finite entries. A read-only array that owns its data is kept, and
    any other (writable, or a view that still sees its base) is copied.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} entries must be integers or floats, got dtype {arr.dtype}")
    if arr.ndim != 1 or arr.size == 0 or (size is not None and arr.size != size):
        expected = "a nonempty vector" if size is None else (size,)
        raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
    _check_cap(arr.size - 1)
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} entries must be finite")
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class AmplitudeVector:
    """Real amplitudes psi_t of a pure two-mode state of N = len(psi) - 1 photons.

    Entry t is the Fock pair |t> in the lossy arm and |N-t> in the reference
    arm (t = j + mu in spin language). It passes ``_frozen_vector`` and then
    the norm check on construction.
    """

    psi: np.ndarray

    def __post_init__(self):
        arr = _frozen_vector(self.psi, "psi")
        norm_sq = float(np.sum(arr * arr))
        if abs(norm_sq - 1.0) > NORMALIZATION_TOLERANCE:
            raise ValueError(
                f"psi is not normalized: sum psi^2 = {norm_sq!r} "
                f"(tolerance {NORMALIZATION_TOLERANCE})"
            )
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
