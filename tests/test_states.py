"""Unit tests for amplitude vectors and the optimal sine-profile state."""

import math

import mpmath
import numpy as np
import pytest

from lossyphase import MAX_PHOTON_NUMBER, AmplitudeVector, optimal_amplitudes

SQRT_HALF = 1 / math.sqrt(2)


class TestOptimalAmplitudes:
    def test_single_photon(self):
        state = optimal_amplitudes(1)
        np.testing.assert_allclose(state.psi, [SQRT_HALF, SQRT_HALF], atol=1e-15)

    def test_two_photons(self):
        state = optimal_amplitudes(2)
        np.testing.assert_allclose(state.psi, [0.5, SQRT_HALF, 0.5], atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 201))
    def test_normalized(self, n):
        state = optimal_amplitudes(n)
        assert np.sum(state.psi**2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 201))
    def test_symmetric_and_positive(self, n):
        psi = optimal_amplitudes(n).psi
        np.testing.assert_allclose(psi, psi[::-1], atol=1e-12)
        assert np.all(psi > 0)

    @pytest.mark.parametrize("n", range(1, 201))
    def test_neighbor_sum_equals_cos(self, n):
        # the lossless sharpness identity; the strongest self-test this
        # construction admits
        psi = optimal_amplitudes(n).psi
        assert np.sum(psi[1:] * psi[:-1]) == pytest.approx(
            math.cos(math.pi / (n + 2)), abs=1e-10
        )

    @pytest.mark.parametrize("n", list(range(1, 65)) + [MAX_PHOTON_NUMBER])
    def test_exactly_symmetric(self, n):
        psi = optimal_amplitudes(n).psi
        assert np.array_equal(psi, psi[::-1])

    @pytest.mark.parametrize("n", [10, 101, MAX_PHOTON_NUMBER])
    def test_matches_40_digit_reference(self, n):
        # promises 15 digits in every entry, the small tails included; a sine
        # taken at an argument near pi kept only 12.8 at N = 4096
        psi = optimal_amplitudes(n).psi
        with mpmath.workdps(40):
            norm = mpmath.sqrt(mpmath.mpf(n) / 2 + 1)
            worst = max(
                abs(mpmath.mpf(float(value)) / (mpmath.sin((t + 1) * mpmath.pi / (n + 2)) / norm) - 1)
                for t, value in enumerate(psi)
            )
        assert worst <= 1e-15


class TestAmplitudeVector:
    def test_accepts_external_normalized_vector(self):
        state = AmplitudeVector([SQRT_HALF, 0.0, -SQRT_HALF])
        assert state.n_photons == 2
        assert state.psi[0] == pytest.approx(SQRT_HALF)
        assert state.psi[2] == pytest.approx(-SQRT_HALF)

    def test_rejects_unnormalized_rather_than_fixing(self):
        with pytest.raises(ValueError, match="not normalized"):
            AmplitudeVector([0.8, 0.7])


def all_in_lossy_arm(n):
    """|N, 0>: every photon in the lossy arm, a valid state for any N >= 0."""
    psi = np.zeros(n + 1)
    psi[n] = 1.0
    return psi


class TestPhotonNumber:
    @pytest.mark.parametrize("n,j2", [(0, 0), (1, 1), (2, 2)])
    def test_examples(self, n, j2):
        # N photons carry total spin j = N/2, i.e. the doubled label 2j = N:
        # psi has as many entries as the spin-j ladder has rungs
        state = AmplitudeVector(all_in_lossy_arm(n))
        assert state.n_photons == j2
        assert len(state.psi) == j2 + 1

    @pytest.mark.parametrize("n", range(0, 51))
    def test_round_trip(self, n):
        assert AmplitudeVector(all_in_lossy_arm(n)).n_photons == n
        if n >= 1:
            assert optimal_amplitudes(n).n_photons == n
