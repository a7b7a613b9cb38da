"""Brute-force reference implementations backing the cross-check suite.

Everything here recomputes a library quantity by a deliberately dumb,
independent route: generator matrices exponentiated term by term instead of
rotation-element formulas, a materialized partial trace instead of block
bookkeeping, quadrature instead of exact Fourier sums. These exist to catch
convention and bookkeeping errors and are kept off the public API; sizes are
capped accordingly.
"""

from __future__ import annotations

import math

import numpy as np

from .loss import PureLossyState
from .povm import TWO_PI, PhaseDistribution

EXPLICIT_TRACE_MAX_PHOTONS = 12

# largest doubled spin 2j the matrix-exponential oracle takes
ORACLE_MAX_TWICE_SPIN = 24

_EXP_SERIES_TERMS = 18
_EXP_SCALE_LIMIT = 0.5


def _check_oracle_spin(j2: int) -> None:
    if j2 < 0:
        raise ValueError(f"2j must be nonnegative, got {j2}")
    if j2 > ORACLE_MAX_TWICE_SPIN:
        raise ValueError(
            f"2j = {j2} exceeds the oracle cap {ORACLE_MAX_TWICE_SPIN}"
        )


def _m_values(j2: int) -> np.ndarray:
    return np.arange(-j2, j2 + 1, 2) / 2.0


def jx_matrix(j2: int) -> np.ndarray:
    """J_x for spin j = j2/2 in the ascending |j,m> basis, from the ladder elements."""
    _check_oracle_spin(j2)
    m = _m_values(j2)
    jj = j2 / 2.0
    raising = np.sqrt(jj * (jj + 1.0) - m[:-1] * (m[:-1] + 1.0))
    out = np.zeros((len(m), len(m)), dtype=complex)
    idx = np.arange(len(m) - 1)
    out[idx + 1, idx] = 0.5 * raising
    out[idx, idx + 1] = 0.5 * raising
    return out


def _expm(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a fixed Taylor tail."""
    norm = float(np.linalg.norm(matrix, np.inf))
    squarings = 0
    if norm > _EXP_SCALE_LIMIT:
        squarings = int(math.ceil(math.log2(norm / _EXP_SCALE_LIMIT)))
    scaled = matrix / (2.0**squarings)
    dim = matrix.shape[0]
    term = np.eye(dim, dtype=complex)
    total = np.eye(dim, dtype=complex)
    for k in range(1, _EXP_SERIES_TERMS):
        term = term @ scaled / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def bs_unitary(j2: int, theta: float) -> np.ndarray:
    """Beam-splitter unitary e^{i theta J_x} for spin j2/2, a dense matrix exponential."""
    return _expm(1j * theta * jx_matrix(j2))


def trace_out_explicit(state: PureLossyState) -> dict:
    """Partial trace over the scattered mode done the pedestrian way.

    The tripartite amplitudes are laid out as a dense (kept, scattered,
    reference) tensor, the scattered index is summed over the outer product,
    and the result is re-sorted into lost-photon blocks, returned as
    ``{ell: dense block}`` for every nonzero block. Entirely independent of
    the rank-one factors it is meant to check: no block is assumed to be an
    outer product.
    """
    n = state.n_photons
    if n > EXPLICIT_TRACE_MAX_PHOTONS:
        raise ValueError(
            f"photon number {n} exceeds the explicit-trace cap {EXPLICIT_TRACE_MAX_PHOTONS}"
        )
    dim = n + 1
    ket = np.zeros((dim, dim, dim), dtype=complex)
    for t in range(n + 1):
        for s in range(t + 1):
            ket[s, t - s, n - t] = state.coeffs[t][s]
    dense = np.einsum("acb,AcB->abAB", ket, ket.conj())

    blocks = {}
    for ell in range(n + 1):
        size = n + 1 - ell
        block = np.empty((size, size), dtype=complex)
        for i1 in range(size):
            t1 = ell + i1
            for i2 in range(size):
                t2 = ell + i2
                block[i1, i2] = dense[t1 - ell, n - t1, t2 - ell, n - t2]
        if np.max(np.abs(block.imag)) > 1e-15:
            raise AssertionError("reduced matrix acquired an imaginary part")
        block = block.real
        if np.any(block != 0.0):
            blocks[ell] = block
    return blocks


def quadrature_sharpness(dist: PhaseDistribution, n_points: int) -> complex:
    """Trapezoid estimate of int P(phi) e^{i phi} dphi over a full turn.

    On a uniform periodic grid the trapezoid rule integrates band-limited
    integrands exactly, so anything beyond rounding is a real discrepancy;
    ``dist.evaluate`` refuses a grid below its Nyquist guard.
    """
    phi, values = dist.evaluate(n_points)
    return complex(np.sum(values * np.exp(1j * phi)) * (TWO_PI / n_points))
