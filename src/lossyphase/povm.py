"""Ideal phase-measurement statistics: distribution, sharpness, Holevo variance.

The canonical measurement projects onto equal-weight phase states of the full
photon number, so with loss only the zero-photons-lost sector of the density
matrix contributes. That sector is rank one, so a distribution is stored as
its factor g alone: P(phi) = |sum_t g_t e^{i t phi}|^2 / 2pi. Two routes give
the factor: the closed form built directly from the input amplitudes, and
block 0 of a reduced density matrix; their agreement is a standing
cross-check. ``PhaseDistribution`` is the one home of the sums S, M and
M - S; ``phase_estimate`` and ``validate``'s density path both read them
off it.

P is a trigonometric polynomial in the N + 1 harmonics of g, so its values on
the uniform grid phi_k = 2pi k / S are one zero-padded DFT of g, and
``PhaseDistribution.evaluate`` samples it there and nowhere else, for any
factor, on grids that pass the Nyquist guard S >= 4(N+1) of
``core._check_phase_samples``. The ``dist`` command does not use it: it
writes the sine state's P in closed form (``sweep.sine_density``, standard
library only), which calls the same guard, and ``evaluate`` is the oracle
that the tests and ``validate`` hold that form to.

Every entry takes the loss L as a float through ``core.channel_from_loss``.
With loss the distribution integrates to less than one (the measured sector is
reached with probability sum_t psi_t^2 (1-L)^t). ``sharpness_closed`` and
``phase_estimate`` give that raw quantity. The sharpness divided by the
integral is the ``normalized`` variant of ``sweep.curve``, never switched on
silently; the tests hold it to S/M and (M - S)/M of ``distribution``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_phase_samples, _check_photon_number, _holevo_spread, channel_from_loss
from .loss import ReducedDensity
from .states import AmplitudeVector, _frozen_vector

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class PhaseDistribution:
    """Phase distribution P(phi) = |sum_t g_t e^{i t phi}|^2 / 2pi of a factor g.

    g_t runs over t = 0..N lossy-arm photons, so only integer harmonics
    appear and P is nonnegative by construction. Its coefficient matrix in
    the photon basis is the rank-one g g^T / 2pi; only g is stored, through
    ``states._frozen_vector``, the rule every numpy value passes. Its
    integral M, first Fourier coefficient S and their difference M - S are
    ``total_mass``, ``fourier_sharpness`` and ``spread``.
    """

    factor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "factor", _frozen_vector(self.factor, "factor"))

    def evaluate(self, samples: int) -> tuple:
        """(phi, P(phi)) on the grid phi_k = 2pi k / samples, k = 0..samples-1.

        P(phi_k) = |FFT(g, samples)_k|^2 / 2pi: the FFT's e^{-i t phi_k} is the
        conjugate of e^{i t phi_k}, which the modulus of a real g ignores. Costs
        O(samples log samples) whatever N. The grid must hold at least four
        points per harmonic, samples >= 4(N+1), which keeps the trapezoid sum of
        P e^{i phi} over it exact; below that ``core._check_phase_samples``, the
        guard ``sweep.sine_density`` calls too, raises a ValueError.
        """
        samples = _check_phase_samples(samples, self.factor.size - 1)
        phi = np.arange(samples) * (TWO_PI / samples)
        return phi, np.abs(np.fft.fft(self.factor, samples)) ** 2 / TWO_PI

    def total_mass(self) -> float:
        """Integral of P over a full turn, sum g^2; below 1 whenever photons are lost."""
        g = self.factor
        return float(np.add.reduce(g * g))

    def fourier_sharpness(self) -> float:
        """First Fourier coefficient int P(phi) e^{i phi} dphi = sum_t g_t g_{t-1}.

        Real by construction: the factor is real and the mean phase of every
        state built here is zero, so no centering is needed. Summed pairwise,
        as every numpy sum here is.
        """
        g = self.factor
        return float(np.add.reduce(g[1:] * g[:-1]))

    def spread(self) -> float:
        """M - S = (g_0^2 + g_N^2 + sum_t (g_t - g_{t-1})^2) / 2, summed from nonnegative terms.

        Not formed as ``total_mass() - fourier_sharpness()``, which cancels
        digits where S is within rounding of M: 1.8e-10 relative for the
        lossless N = 4096 sine state.
        """
        g = self.factor
        step = g[1:] - g[:-1]
        return float(0.5 * (g[0] * g[0] + g[-1] * g[-1] + np.add.reduce(step * step)))


def _loss_factors(n_photons: int, loss: float) -> tuple:
    """(1-L)^(t/2) and 1-(1-L)^t for t = 0..N lossy-arm photons, from t log1p(-L).

    Taken straight from the loss fraction in the log domain: no underflow, no
    digits lost to a round trip through the splitter angle at small L, and
    expm1 keeps the lost fraction exact where it is tiny.
    """
    exponent = math.log1p(-loss) * np.arange(n_photons + 1, dtype=float)
    return np.exp(0.5 * exponent), -np.expm1(exponent)


def distribution(state: AmplitudeVector, loss: float) -> PhaseDistribution:
    """Closed-form phase distribution of the surviving-photon sector.

    The measured sector weights each amplitude psi_t by (1-L)^(t/2), giving
    the factor g = psi * survival.
    """
    return PhaseDistribution(state.psi * _loss_factors(state.n_photons, channel_from_loss(loss))[0])


def distribution_from_density(rho: ReducedDensity) -> PhaseDistribution:
    """Phase distribution read off a reduced density matrix.

    Only the zero-lost-photons block overlaps the full-photon-number phase
    states, so the factor is that block's factor w_0; a density matrix with
    no such block yields the null distribution.
    """
    return PhaseDistribution(rho.factors.get(0, np.zeros(rho.n_photons + 1)))


def sharpness_closed(state: AmplitudeVector, loss: float) -> float:
    """The signed sum S = sum_t psi_t psi_{t-1} (1-L)^(t-1/2), not its modulus.

    The photon rule, then ``fourier_sharpness`` of ``distribution(state,
    loss)``: numpy's pairwise sum, which is negative when neighbouring
    amplitudes differ in sign (-0.4999999999999999 for psi = (1/sqrt2,
    -1/sqrt2) at L = 0). Nothing in the package calls it; it stays because
    ``bench/`` does.
    """
    _check_photon_number(state.n_photons)
    return distribution(state, loss).fourier_sharpness()


@dataclass(frozen=True)
class PhaseEstimate:
    """Sharpness with its Holevo variance and minimum detectable phase."""

    sharpness: float
    holevo_variance: float
    min_detectable_phase: float


def holevo(sharpness: float) -> PhaseEstimate:
    """Holevo variance and spread of a bare sharpness S in [0, 1]: ``_holevo_spread(S, 1 - S)``.

    inf at S = 0, a flat distribution, and 0 at S = 1. Formed from S alone,
    1 - S keeps only its rounding; ``phase_estimate`` sums the defect and keeps
    the digits near S = 1. Nothing in the package calls it; ``bench/`` does.
    """
    sharpness = float(sharpness)
    if not 0.0 <= sharpness <= 1.0:
        raise ValueError(f"sharpness must lie in [0, 1], got {sharpness}")
    return PhaseEstimate(sharpness, *_holevo_spread(sharpness, 1.0 - sharpness))


def phase_estimate(state: AmplitudeVector, loss: float) -> PhaseEstimate:
    """Sharpness, Holevo variance and minimum detectable phase of a state.

    S is ``fourier_sharpness`` of the distribution of g = psi (1-L)^(t/2),
    the same number as ``sharpness_closed``. The variance is
    (1-S)(1+S)/S^2 with 1 - S not formed as such but summed from nonnegative
    terms: with sum psi^2 = 1 it is sum psi_t^2 (1 - (1-L)^t), the lost
    weight, plus the distribution's ``spread`` M - S. So it keeps about 15
    digits where ``holevo``, which forms 1 - S from S alone, cancels them.
    Every sum is numpy's pairwise summation.
    """
    survival, lost = _loss_factors(_check_photon_number(state.n_photons), channel_from_loss(loss))
    dist = PhaseDistribution(state.psi * survival)
    sharp = dist.fourier_sharpness()
    if sharp < 0.0:
        raise ValueError(f"sharpness must lie in [0, 1], got {sharp}")
    defect = float(np.add.reduce(state.psi * state.psi * lost)) + dist.spread()
    return PhaseEstimate(sharp, *_holevo_spread(sharp, defect))


def lossless_reference(n_photons: int) -> float:
    """Analytic Holevo variance tan^2(pi/(N+2)) of the lossless optimal state."""
    return math.tan(math.pi / (_check_photon_number(n_photons) + 2)) ** 2
