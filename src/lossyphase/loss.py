"""Photon loss as a fictitious beam splitter, and the traced-out density matrix.

Loss of a fraction L in the phase-shift arm is modeled by a beam splitter of
angle theta with transmission cos^2(theta/2) = 1 - L coupling that arm to a
vacuum mode. Scattered photons are traced out, leaving a mixed state on the
inner modes that is block diagonal in the number of photons lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import AmplitudeVector
from .wigner import d_element

# Dense block construction above this photon number is refused; the closed
# form in the povm module covers large N without materializing matrices.
DENSITY_MATRIX_MAX_PHOTONS = 256

# i^n for the kept-photon phase e^{i (pi/2)(m-k)}; exact complex units.
_QUARTER_TURNS = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)


@dataclass(frozen=True)
class LossChannel:
    """Loss fraction and the equivalent beam-splitter angle, kept consistent."""

    loss: float
    theta: float

    @property
    def transmission(self) -> float:
        return 1.0 - self.loss


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
    theta = 2.0 * math.acos(math.sqrt(1.0 - loss))
    return LossChannel(loss=loss, theta=theta)


@dataclass(frozen=True, eq=False)
class PureLossyState:
    """Tripartite pure state after the loss splitter, before tracing.

    ``coeffs[t][s]`` is the complex amplitude on the Fock ket with s photons
    kept in the lossy arm, t - s photons scattered into the traced mode, and
    N - t photons in the reference arm (t = j + mu runs 0..N). Each branch
    carries the quarter-turn phase i^(s-t) picked up at the splitter.
    """

    channel: LossChannel
    coeffs: tuple

    @property
    def n_photons(self) -> int:
        return len(self.coeffs) - 1

    def norm_squared(self) -> float:
        return float(sum(np.sum(np.abs(c) ** 2) for c in self.coeffs))


def pure_lossy_state(state: AmplitudeVector, channel: LossChannel) -> PureLossyState:
    """Send the input through the loss splitter, keeping the scattered mode.

    The branch with s of the t lossy-arm photons surviving carries amplitude
    psi_t * i^(s-t) * d^{t/2}_{s-t/2,t/2}(theta), which is
    ``d_element(t, 2s-t, t, theta)`` in doubled labels; the splitter is
    unitary, so the total norm is preserved.
    """
    n = state.n_photons
    coeffs = []
    for t in range(n + 1):
        branch = np.zeros(t + 1, dtype=complex)
        for s in range(t + 1):
            amp = state.psi[t] * d_element(t, 2 * s - t, t, channel.theta)
            branch[s] = amp * _QUARTER_TURNS[(s - t) % 4]
        branch.flags.writeable = False
        coeffs.append(branch)
    return PureLossyState(channel=channel, coeffs=tuple(coeffs))


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Density matrix of the inner modes, block diagonal in photons lost.

    ``blocks[ell]`` is the real symmetric block with exactly ell photons in
    the traced mode; its row index i corresponds to t = ell + i lossy-arm
    photons. Blocks that vanish identically are omitted.
    """

    n_photons: int
    channel: LossChannel
    blocks: dict

    def __post_init__(self):
        n = self.n_photons
        frozen = {}
        for ell, block in sorted(self.blocks.items()):
            arr = np.asarray(block, dtype=float)
            dim = n + 1 - ell
            if not 0 <= ell <= n:
                raise ValueError(f"lost-photon count {ell} outside 0..{n}")
            if arr.shape != (dim, dim):
                raise ValueError(
                    f"block {ell} has shape {arr.shape}, expected {(dim, dim)}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"block {ell} has non-finite entries")
            arr = arr.copy()
            arr.flags.writeable = False
            frozen[ell] = arr
        object.__setattr__(self, "blocks", frozen)

    def lost_photon_counts(self) -> tuple:
        return tuple(sorted(self.blocks))

    def block(self, ell: int) -> np.ndarray:
        """Block for ell lost photons; zeros if that sector is absent."""
        if ell in self.blocks:
            return self.blocks[ell]
        dim = self.n_photons + 1 - ell
        if not 0 <= ell <= self.n_photons:
            raise ValueError(f"lost-photon count {ell} outside 0..{self.n_photons}")
        return np.zeros((dim, dim))

    def trace(self) -> float:
        return float(sum(np.trace(b) for b in self.blocks.values()))

    def purity(self) -> float:
        return float(sum(np.sum(b * b) for b in self.blocks.values()))

    def symmetry_defect(self) -> float:
        return float(max((np.max(np.abs(b - b.T)) for b in self.blocks.values()), default=0.0))

    def min_eigenvalue(self) -> float:
        lows = [np.linalg.eigvalsh(b)[0] for b in self.blocks.values()]
        return float(min(lows)) if lows else 0.0


def reduced_density(state: AmplitudeVector, channel: LossChannel) -> ReducedDensity:
    """Trace the scattered mode out of the post-splitter pure state.

    Tracing forces the two sides of each entry to lose the same number of
    photons ell, which cancels the quarter-turn phases; each surviving block
    is the real rank-one outer product of
    w_ell(t) = psi_t * d^{t/2}_{t/2-ell, t/2}(theta) over t = ell..N.
    """
    n = state.n_photons
    if n > DENSITY_MATRIX_MAX_PHOTONS:
        raise ValueError(
            f"photon number {n} exceeds the density-matrix cap {DENSITY_MATRIX_MAX_PHOTONS}; "
            "use the closed-form path for large inputs"
        )
    d_col = np.zeros((n + 1, n + 1))
    for t in range(n + 1):
        for ell in range(t + 1):
            d_col[t, ell] = d_element(t, t - 2 * ell, t, channel.theta)
    blocks = {}
    for ell in range(n + 1):
        ts = np.arange(ell, n + 1)
        w = state.psi[ts] * d_col[ts, ell]
        if np.any(w != 0.0):
            blocks[ell] = np.outer(w, w)
    return ReducedDensity(n_photons=n, channel=channel, blocks=blocks)
