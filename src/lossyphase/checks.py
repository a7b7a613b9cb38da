"""The cross-check table behind ``validate`` and the tests, one row per check.

Each row is (name, tolerance, defect(n, loss), photon numbers, losses): the
library's production numbers against the brute-force oracles, the density
path and the lossless analytic anchor. ``worst_defect`` runs one row over its
grid. The table lives beside the oracles rather than in ``oracle`` itself,
whose public functions are each a reference implementation, and out of
``cli``, which loads it (and numpy) only when ``validate`` runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import loss as loss_mod
from . import oracle, povm, sweep
from .core import MAX_PHOTON_NUMBER
from .states import AmplitudeVector, optimal_amplitudes


def _lossy_ket_defect(t: int, loss: float) -> float:
    """Splitter branches of |t photons in the lossy arm> against e^{i theta Jx}, signed."""
    # cos^2(theta/2) = 1 - L, taken by atan2 so theta keeps its digits at small L
    theta = 2.0 * math.atan2(math.sqrt(loss), math.sqrt(1.0 - loss))
    expected = np.conj(oracle.bs_unitary(t, theta)[:, t])
    branch = loss_mod.pure_lossy_state(AmplitudeVector(np.eye(t + 1)[t]), loss).coeffs[t]
    return float(np.max(np.abs(branch - expected)))


def _partial_trace_defect(n: int, loss: float) -> float:
    """Largest entry of rho's blocks minus the explicit trace's, absent blocks as zeros."""
    state = optimal_amplitudes(n)
    rho = loss_mod.reduced_density(state, loss)
    explicit = oracle.trace_out_explicit(loss_mod.pure_lossy_state(state, loss))
    return max(float(np.max(np.abs(rho.block(ell) - explicit.get(ell, 0.0))))
               for ell in set(rho.factors) | set(explicit))


def _dual_path_defect(n: int, loss: float) -> float:
    """Larger relative gap of the closed form's 1 - S, raw and normalized, to rho's.

    Raw, rho's 1 - S is the lost blocks' weight plus block 0's spread M - S;
    normalized, it is that spread over block 0's mass M.
    """
    rho = loss_mod.reduced_density(optimal_amplitudes(n), loss)
    dist = povm.distribution_from_density(rho)
    spread = dist.spread()
    density = sum(np.add.reduce(w * w) for ell, w in rho.factors.items() if ell > 0) + spread
    density_normalized = spread / dist.total_mass()
    raw = sweep._sine_sharpness(loss, False)(n)[1]
    normalized = sweep._sine_sharpness(loss, True)(n)[1]
    return float(max(abs(raw - density) / density,
                     abs(normalized - density_normalized) / density_normalized))


def _curve_defect(n: int, loss: float) -> float:
    """Larger gap of ``sweep._sine_sharpness``'s S, raw and normalized, to rho's zero-loss block."""
    dist = povm.distribution_from_density(loss_mod.reduced_density(optimal_amplitudes(n), loss))
    sharp = dist.fourier_sharpness()
    raw = sweep._sine_sharpness(loss, False)(n)[0]
    normalized = sweep._sine_sharpness(loss, True)(n)[0]
    return max(abs(raw - sharp), abs(normalized - sharp / dist.total_mass()))


def _quadrature_defect(n: int, loss: float) -> float:
    state = optimal_amplitudes(n)
    quad = oracle.quadrature_sharpness(povm.distribution(state, loss), 4096)
    return abs(quad - povm.phase_estimate(state, loss).sharpness)


def _phase_density_defect(n: int, loss: float) -> float:
    """Largest gap of ``dist``'s closed-form P to the FFT on the grid S = 4(N+1), over the peak."""
    samples = 4 * (n + 1)
    closed = np.fromiter(sweep.sine_density(loss, n, samples), float, samples)
    fft = povm.distribution(optimal_amplitudes(n), loss).evaluate(samples)[1]
    return float(np.abs(closed - fft).max() / fft.max())


def _lossless_anchor_defect(n: int, loss: float) -> float:
    variance = povm.phase_estimate(optimal_amplitudes(n), loss).holevo_variance
    reference = povm.lossless_reference(n)
    return abs(variance - reference) / reference


# Every grid is fixed, so validate and the tests run the same cases. "kernel" in a name
# is ``povm.phase_estimate``, which reads S and M - S off ``povm.PhaseDistribution``, as
# the density path does; "closed form" is ``sweep``'s: the S and 1 - S that ``curve`` and
# ``nopt`` publish, and the P(phi) that ``dist`` writes. Rows 3 and 4 check one point's
# 1 - S (relative: delta-phi and N_opt come off it) and S.
CHECKS = (
    ("lossy ket vs matrix exponential, signed", 1e-14, _lossy_ket_defect,
     range(13), (0.0, 1e-8, 0.1, 0.3, 0.5, 0.9)),
    ("partial trace, blocks vs explicit", 1e-15, _partial_trace_defect,
     range(1, 9), (0.1, 0.3, 0.5)),
    ("1 - S, closed form vs density (relative)", 2e-15, _dual_path_defect,
     range(1, 13), (0.0, 1e-8, 0.1, 0.3, 0.5, 0.9)),
    ("curve sharpness, closed form vs density", 1e-15, _curve_defect,
     range(1, 13), (0.0, 1e-8, 0.1, 0.3, 0.5)),
    ("sharpness, kernel vs quadrature", 1e-14, _quadrature_defect,
     range(1, 13), (0.0, 0.1, 0.3, 0.5)),
    ("P(phi), closed form vs FFT (of peak)", 2e-15, _phase_density_defect,
     range(1, 13), (0.0, 1e-8, 0.3)),
    ("lossless variance anchor (relative)", 5e-15, _lossless_anchor_defect,
     (*range(1, 101), MAX_PHOTON_NUMBER), (0.0,)),
)


def worst_defect(check) -> tuple:
    """Largest defect of one ``CHECKS`` row, and the first ``N=… L=…`` that reached it.

    A NaN defect ranks above every number, so a broken check cannot pass.
    """
    _, _, defect, photon_numbers, losses = check
    cases = ((defect(n, loss), f"N={n} L={loss:g}") for n in photon_numbers for loss in losses)
    return max(cases, key=lambda case: math.inf if math.isnan(case[0]) else case[0])
