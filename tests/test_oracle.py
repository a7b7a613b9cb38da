"""Unit tests for the brute-force reference implementations themselves."""

import math

import numpy as np
import pytest

from lossyphase import (
    AmplitudeVector,
    distribution,
    optimal_amplitudes,
    pure_lossy_state,
    reduced_density,
)
from lossyphase.oracle import (
    bs_unitary,
    jx_matrix,
    quadrature_sharpness,
    trace_out_explicit,
)

THETAS = (0.1, 0.7, math.pi / 2, 2.5)


class TestGenerators:
    def test_spin_half_structure(self):
        jx = jx_matrix(1)
        np.testing.assert_allclose(jx, [[0, 0.5], [0.5, 0]], atol=1e-15)

    def test_spin_one_offdiagonal(self):
        jx = jx_matrix(2)
        assert jx[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert jx[1, 2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    @pytest.mark.parametrize("j2", range(0, 13))
    def test_spectrum_is_the_ladder(self, j2):
        eigs = np.sort(np.linalg.eigvalsh(jx_matrix(j2)))
        expected = np.arange(-j2, j2 + 1, 2) / 2
        np.testing.assert_allclose(eigs, expected, atol=1e-10)

    @pytest.mark.parametrize("j2", range(0, 13))
    def test_hermitian(self, j2):
        m = jx_matrix(j2)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            jx_matrix(26)

    @pytest.mark.parametrize("build", [jx_matrix, lambda j2: bs_unitary(j2, 0.1)],
                             ids=["jx_matrix", "bs_unitary"])
    def test_rejects_negative_spin(self, build):
        with pytest.raises(ValueError, match="2j must be nonnegative, got -1"):
            build(-1)


class TestBeamSplitterUnitary:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(bs_unitary(4, 0.0), np.eye(5), atol=1e-15)

    def test_spin_half_balanced(self):
        u = bs_unitary(1, math.pi / 2)
        np.testing.assert_allclose(np.abs(np.diag(u)), math.cos(math.pi / 4), atol=1e-12)

    @pytest.mark.parametrize("j2", range(0, 25))
    @pytest.mark.parametrize("theta", THETAS)
    def test_unitarity(self, j2, theta):
        # undoing the quarter-turn phase i^(a-b) entry by entry leaves a real
        # matrix, the rotation d^j(theta) that wigner.d_element reads; real and
        # unitary, each of its rows has unit norm and each entry |d| <= 1
        u = bs_unitary(j2, theta)
        defect = np.max(np.abs(u @ u.conj().T - np.eye(j2 + 1)))
        assert defect <= 1e-10
        ladder = np.arange(j2 + 1)
        turns = np.array([1, 1j, -1, -1j])[(ladder[:, None] - ladder[None, :]) % 4]
        assert np.max(np.abs((turns * u).imag)) < 1e-10


class TestTraceOutExplicit:
    def test_lossless_matches_block_path_exactly(self):
        state = optimal_amplitudes(4)
        loss = 0.0
        explicit = trace_out_explicit(pure_lossy_state(state, loss))
        direct = reduced_density(state, loss)
        assert tuple(sorted(explicit)) == tuple(direct.factors) == (0,)
        np.testing.assert_allclose(explicit[0], direct.block(0), atol=1e-15)

    def test_random_state_trace_preserved(self):
        rng = np.random.default_rng(7)
        psi = rng.standard_normal(5)
        psi /= math.sqrt(np.sum(psi**2))
        state = AmplitudeVector(psi)
        explicit = trace_out_explicit(pure_lossy_state(state, 0.2))
        assert sum(np.trace(b) for b in explicit.values()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_oversize(self):
        state = optimal_amplitudes(13)
        with pytest.raises(ValueError, match="cap"):
            trace_out_explicit(pure_lossy_state(state, 0.1))


class TestQuadratureSharpness:
    def test_lossless_two_photons(self):
        dist = distribution(optimal_amplitudes(2), 0.0)
        value = quadrature_sharpness(dist, 4096)
        assert value.real == pytest.approx(math.cos(math.pi / 4), abs=1e-10)
        assert abs(value.imag) < 1e-12

    def test_one_photon_with_loss(self):
        dist = distribution(optimal_amplitudes(1), 0.3)
        value = quadrature_sharpness(dist, 4096)
        assert value.real == pytest.approx(0.41833, abs=1e-5)
        assert value.real == pytest.approx(0.5 * math.sqrt(0.7), abs=1e-8)

    def test_flat_distribution_has_no_fringe(self):
        one_hot = AmplitudeVector([0.0, 1.0, 0.0, 0.0])
        dist = distribution(one_hot, 0.1)
        assert abs(quadrature_sharpness(dist, 256)) < 1e-12

    @pytest.mark.parametrize("n", [1, 4, 9, 16])
    @pytest.mark.parametrize("loss", (0.0, 0.2, 0.5))
    def test_trapezoid_exact_above_nyquist(self, n, loss):
        dist = distribution(optimal_amplitudes(n), loss)
        quad = quadrature_sharpness(dist, 4 * (n + 1))
        assert abs(quad - dist.fourier_sharpness()) <= 1e-14

    def test_nyquist_guard(self):
        dist = distribution(optimal_amplitudes(20), 0.0)
        with pytest.raises(ValueError, match="Nyquist"):
            quadrature_sharpness(dist, 64)
