"""Photon loss as a fictitious beam splitter, and the traced-out density matrix.

Loss of a fraction L in the phase-shift arm is modeled by a beam splitter of
transmission 1 - L coupling that arm to a vacuum mode. Of t photons entering
it, ell are scattered with the binomial amplitude
K[t, ell] = sqrt(C(t, ell)) (1-L)^((t-ell)/2) L^(ell/2), the corner column of
the splitter's rotation matrix; each branch takes one row of K and each block
one column, both read through ``_loss_amplitude``, the one place K's log sum
over O(N) tables is written. The branches are views of one buffer and the
block factors are frozen once, so neither is held twice, and neither keeps
the loss L, which both entries take as a float through
``core.channel_from_loss``. Scattered photons are traced out, leaving a mixed
state on the inner modes that is block diagonal in the number of photons lost:
a ``ReducedDensity``, whose N passes ``core``'s rules and whose factors pass
``states._frozen_vector``, the rule every numpy value passes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .core import _check_cap, _check_integer, channel_from_loss
from .states import AmplitudeVector, _frozen_vector

# i^n for the kept-photon phase e^{i (pi/2)(m-k)}; exact complex units.
_QUARTER_TURNS = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)


def _loss_amplitude(n: int, loss: float):
    """``amplitude(t, ell, kept)`` reads K from log k!, k log(1-L) and k log L, k = 0..n.

    2 log K[t, ell] = log t! - log ell! - log (t-ell)! + (t-ell) log(1-L) + ell log L,
    summed in that order over int or slice indices (``kept`` is t - ell) and then
    halved and exponentiated, so an entry underflows only where its value is below
    the smallest double. At L = 0 the last table is -inf past k = 0, which gives
    exact ones at ell = 0 and exact zeros elsewhere.
    """
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    log_kept = np.arange(n + 1) * math.log1p(-loss)
    log_lost = np.zeros(n + 1)  # 0 * log(0) stays 0
    log_lost[1:] = np.arange(1, n + 1) * math.log(loss) if loss > 0.0 else -math.inf

    def amplitude(t, ell, kept) -> np.ndarray:
        return np.exp(0.5 * (log_factorial[t] - log_factorial[ell] - log_factorial[kept]
                             + log_kept[kept] + log_lost[ell]))
    return amplitude


@dataclass(frozen=True, eq=False)
class PureLossyState:
    """Tripartite pure state after the loss splitter, before tracing.

    ``coeffs[t][s]`` is the complex amplitude on the Fock ket with s photons
    kept in the lossy arm, t - s photons scattered into the traced mode, and
    N - t photons in the reference arm (t = j + mu runs 0..N). Each branch
    carries the quarter-turn phase i^(s-t) picked up at the splitter. The
    branches are read-only views of one buffer, branch t its entries
    t(t+1)/2 up to (t+1)(t+2)/2.
    """

    coeffs: tuple

    @property
    def n_photons(self) -> int:
        return len(self.coeffs) - 1

    def norm_squared(self) -> float:
        return float(sum(np.sum(np.abs(c) ** 2) for c in self.coeffs))


def pure_lossy_state(state: AmplitudeVector, loss: float) -> PureLossyState:
    """Send the input through the loss splitter, keeping the scattered mode.

    The branch with s of the t lossy-arm photons surviving carries amplitude
    psi_t * i^(s-t) * K[t, t-s], K being the binomial loss amplitude; the
    squares of each row of K sum to one, so the total norm is preserved.
    """
    n = state.n_photons
    amplitude = _loss_amplitude(n, channel_from_loss(loss))
    lost_phase = np.array(_QUARTER_TURNS)[-np.arange(n + 1) % 4]  # i^(-ell)
    starts = [t * (t + 1) // 2 for t in range(n + 2)]
    buffer = np.empty(starts[-1], dtype=complex)
    for t in range(n + 1):
        # row t of K over s = 0..t kept photons, ell = t - s
        row = amplitude(t, np.s_[t::-1], np.s_[: t + 1])
        np.multiply(state.psi[t] * row, lost_phase[t::-1], out=buffer[starts[t] : starts[t + 1]])
    buffer.flags.writeable = False  # so is every view of it
    return PureLossyState(tuple(buffer[a:b] for a, b in zip(starts, starts[1:])))


def _lost_count(ell, n: int) -> int:
    """``ell`` as an int lost-photon count in 0..n: any integer type, no bool or float."""
    ell = _check_integer(ell, "lost-photon count")
    if not 0 <= ell <= n:
        raise ValueError(f"lost-photon count {ell} outside 0..{n}")
    return ell


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Density matrix of the inner modes, block diagonal in photons lost.

    The block with exactly ell photons in the traced mode is the real
    rank-one outer product of ``factors[ell]``, the vector
    w_ell(t) = psi_t * K[t, ell] over t = ell..N lossy-arm photons, so its row
    index i corresponds to t = ell + i. Only the factors are stored;
    ``block(ell)`` builds one dense block on demand, and ``blocks`` is a
    read-only mapping over the kept ell that builds a block only when it is
    indexed. ``reduced_density`` keeps block ell exactly when some w_ell(t)
    is a nonzero double; the loss amplitude K underflows only below the
    smallest double, and at L = 0 only block 0 is kept. ``n_photons`` is an
    int in 0..4096, and each factor passes ``states._frozen_vector`` at length
    N + 1 - ell: a factor ``reduced_density`` froze is kept, any other copied.
    """

    n_photons: int
    factors: dict

    def __post_init__(self):
        n = _check_integer(self.n_photons, "photon number")
        if n < 0:
            raise ValueError(f"photon number must be >= 0, got {n}")
        _check_cap(n)
        counted = {_lost_count(ell, n): w for ell, w in self.factors.items()}
        frozen = {ell: _frozen_vector(w, f"factor {ell}", n + 1 - ell)
                  for ell, w in sorted(counted.items())}
        object.__setattr__(self, "n_photons", n)
        object.__setattr__(self, "factors", frozen)

    @property
    def blocks(self) -> Mapping:
        """Read-only map from each kept ell to its dense block, built only when read."""
        return _BlockView(self)

    def block(self, ell: int) -> np.ndarray:
        """Dense block for ell lost photons; zeros if that sector is absent."""
        ell = _lost_count(ell, self.n_photons)
        if ell in self.factors:
            return np.outer(self.factors[ell], self.factors[ell])
        dim = self.n_photons + 1 - ell
        return np.zeros((dim, dim))

    def trace(self) -> float:
        """Sum over blocks of |w|^2."""
        return float(sum(np.add.reduce(w * w) for w in self.factors.values()))


class _BlockView(Mapping):
    """``ReducedDensity.blocks``: each kept ell mapped to ``block(ell)``.

    Length, iteration and membership read the factors alone; indexing builds
    the one block asked for and raises KeyError for an ell that is not kept.
    """

    def __init__(self, rho: ReducedDensity):
        self._rho = rho

    def __getitem__(self, ell) -> np.ndarray:
        if ell not in self._rho.factors:
            raise KeyError(ell)
        return self._rho.block(ell)

    def __iter__(self):
        return iter(self._rho.factors)

    def __len__(self) -> int:
        return len(self._rho.factors)

    def __contains__(self, ell) -> bool:
        return ell in self._rho.factors


def reduced_density(state: AmplitudeVector, loss: float) -> ReducedDensity:
    """Trace the scattered mode out of the post-splitter pure state.

    Tracing forces the two sides of each entry to lose the same number of
    photons ell, which cancels the quarter-turn phases; each surviving block
    is the real rank-one outer product of w_ell(t) = psi_t * K[t, ell] over
    t = ell..N, K being the binomial loss amplitude, and only w_ell is kept.
    """
    n = state.n_photons
    amplitude = _loss_amplitude(n, channel_from_loss(loss))
    factors = {}
    for ell in range(n + 1):
        # column ell of K over t = ell..N
        w = state.psi[ell:] * amplitude(np.s_[ell:], ell, np.s_[: n + 1 - ell])
        if np.any(w != 0.0):
            w.flags.writeable = False
            factors[ell] = w
    return ReducedDensity(n, factors)
