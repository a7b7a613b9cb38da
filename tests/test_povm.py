"""Unit tests for the phase distribution, sharpness and Holevo variance."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossyphase import (
    MAX_PHOTON_NUMBER,
    AmplitudeVector,
    PhaseDistribution,
    ReducedDensity,
    channel_from_loss,
    curve,
    distribution,
    distribution_from_density,
    holevo,
    lossless_reference,
    optimal_amplitudes,
    reduced_density,
    sharpness_closed,
)
from lossyphase.povm import EVALUATE_CHUNK_ANGLES, TWO_PI, _loss_factors, _sharpness_kernel

LOSSES = (0.0, 0.1, 0.3, 0.5)
EPS = float(np.finfo(float).eps)

# a fixed example sequence keeps Tier-1 reproducible and its cost bounded
KERNEL_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
PHOTON_NUMBERS = st.integers(1, MAX_PHOTON_NUMBER)
LOSS_FRACTIONS = st.floats(0.0, 1.0, exclude_max=True)


def survival_weights(n, loss):
    return (1 - loss) ** np.arange(n + 1)


@functools.lru_cache(maxsize=None)
def mp_sine(n):
    """sin((t+1) pi / (N+2)) for t = 0..N at 50 digits: psi times sqrt(N/2+1)."""
    with mpmath.workdps(50):
        return tuple(mpmath.sin((t + 1) * mpmath.pi / (n + 2)) for t in range(n + 1))


def mp_sharpness(n, loss, normalized=False):
    """sum_t psi_t psi_{t-1} (1-L)^(t-1/2) of the sine state at 50 digits.

    With ``normalized`` it is divided by the integral sum_t psi_t^2 (1-L)^t.
    """
    with mpmath.workdps(50):
        root = mpmath.sqrt(1 - mpmath.mpf(loss))
        g = [x * root**t for t, x in enumerate(mp_sine(n))]
        total = mpmath.fsum(g[t] * g[t - 1] for t in range(1, n + 1))
        scale = mpmath.fsum(x * x for x in g) if normalized else mpmath.mpf(n) / 2 + 1
        return total / scale


def mp_delta_phi(n, loss, normalized):
    """sqrt(1/S^2 - 1) of the 50-digit sharpness, rounded to a float."""
    with mpmath.workdps(50):
        sharp = mp_sharpness(n, loss, normalized)
        return float(mpmath.sqrt(1 / sharp**2 - 1))


def kernel(n, loss, normalized=False):
    """(S, 1 - S) of the N-photon sine state from the shared sharpness kernel."""
    return _sharpness_kernel(optimal_amplitudes(n).psi, *_loss_factors(n, loss), normalized)


class TestDistribution:
    def test_lossless_peak_at_zero(self):
        dist = distribution(optimal_amplitudes(2), channel_from_loss(0.0))
        phi = np.linspace(-math.pi, math.pi, 401)
        values = dist.evaluate(phi)
        assert np.argmax(values) == 200
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_lossless_matches_squared_sum(self):
        state = optimal_amplitudes(2)
        dist = distribution(state, channel_from_loss(0.0))
        mu = np.arange(3) - 1.0
        # the second grid spans more than one evaluation chunk
        for samples in (64, 2 * EVALUATE_CHUNK_ANGLES + 5):
            phi = np.linspace(0, TWO_PI, samples, endpoint=False)
            direct = np.abs(np.exp(1j * np.outer(phi, mu)) @ state.psi) ** 2 / TWO_PI
            np.testing.assert_allclose(dist.evaluate(phi), direct, atol=1e-14)

    def test_hand_integral_n1_l03(self):
        dist = distribution(optimal_amplitudes(1), channel_from_loss(0.3))
        assert dist.total_mass() == pytest.approx(0.85, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 21))
    @pytest.mark.parametrize("loss", LOSSES + (0.7,))
    def test_subnormalization_identity(self, n, loss):
        state = optimal_amplitudes(n)
        dist = distribution(state, channel_from_loss(loss))
        expected = float(np.sum(state.psi**2 * survival_weights(n, loss)))
        assert dist.total_mass() == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n,loss", [(1, 0.0), (5, 0.3), (12, 0.6)])
    def test_nonnegative_on_dense_grid(self, n, loss):
        dist = distribution(optimal_amplitudes(n), channel_from_loss(loss))
        phi = np.linspace(0, TWO_PI, 4096, endpoint=False)
        assert np.all(dist.evaluate(phi) >= 0.0)

    def test_coefficients_factorize(self):
        state = optimal_amplitudes(3)
        ch = channel_from_loss(0.2)
        dist = distribution(state, ch)
        g = state.psi * (1 - ch.loss) ** (np.arange(4) / 2)
        np.testing.assert_allclose(dist.coeff, np.outer(g, g) / TWO_PI, atol=1e-15)


class TestDistributionFromDensity:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_lossless_matches_closed_form(self, n):
        state = optimal_amplitudes(n)
        ch = channel_from_loss(0.0)
        via_rho = distribution_from_density(reduced_density(state, ch))
        np.testing.assert_allclose(via_rho.coeff, distribution(state, ch).coeff, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("loss", LOSSES)
    def test_lossy_matches_closed_form(self, n, loss):
        state = optimal_amplitudes(n)
        ch = channel_from_loss(loss)
        via_rho = distribution_from_density(reduced_density(state, ch))
        np.testing.assert_allclose(via_rho.coeff, distribution(state, ch).coeff, atol=1e-12)

    def test_density_without_full_sector_gives_null(self):
        rho = reduced_density(optimal_amplitudes(2), channel_from_loss(0.4))
        stripped = ReducedDensity(
            n_photons=rho.n_photons,
            channel=rho.channel,
            blocks={ell: b for ell, b in rho.blocks.items() if ell >= 1},
        )
        dist = distribution_from_density(stripped)
        assert np.all(dist.coeff == 0.0)
        assert dist.total_mass() == 0.0


class TestSharpness:
    def test_one_photon_lossless(self):
        s = sharpness_closed(optimal_amplitudes(1), channel_from_loss(0.0))
        assert s == pytest.approx(0.5, abs=1e-14)
        assert holevo(s).holevo_variance == pytest.approx(3.0, rel=1e-12)
        assert holevo(s).holevo_variance == pytest.approx(math.tan(math.pi / 3) ** 2, rel=1e-12)

    def test_two_photons_lossless(self):
        s = sharpness_closed(optimal_amplitudes(2), channel_from_loss(0.0))
        assert s == pytest.approx(math.cos(math.pi / 4), abs=1e-14)
        assert holevo(s).holevo_variance == pytest.approx(1.0, rel=1e-12)

    def test_one_photon_with_loss(self):
        s = sharpness_closed(optimal_amplitudes(1), channel_from_loss(0.3))
        assert s == pytest.approx(0.5 * math.sqrt(0.7), abs=1e-14)
        est = holevo(s)
        assert est.holevo_variance == pytest.approx(33 / 7, rel=1e-12)
        assert est.min_detectable_phase == pytest.approx(math.sqrt(33 / 7), rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 21))
    @pytest.mark.parametrize("loss", LOSSES)
    def test_equals_first_fourier_coefficient(self, n, loss):
        state = optimal_amplitudes(n)
        ch = channel_from_loss(loss)
        closed = sharpness_closed(state, ch)
        extracted = distribution_from_density(reduced_density(state, ch)).fourier_sharpness()
        assert closed == pytest.approx(extracted, abs=1e-10)

    @pytest.mark.parametrize("n", [100, 2000, 4096])
    @pytest.mark.parametrize("loss", [1e-12, 1e-8, 1e-4, 0.3])
    def test_matches_50_digit_reference(self, n, loss):
        # promises 14.7 digits; the survival factors come from log1p(-L), so
        # small losses lose nothing to a detour through the splitter angle
        closed = sharpness_closed(optimal_amplitudes(n), channel_from_loss(loss))
        reference = mp_sharpness(n, loss)
        assert abs(closed - reference) / reference <= 2e-15

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("loss", [0.0, 1e-8, 1e-5])
    @pytest.mark.parametrize("n", [1000, 4096])
    def test_curve_delta_phi_matches_50_digit_reference(self, n, loss, normalized):
        # promises 13 digits near the Heisenberg line, where S is within 5e-6
        # of 1 and sqrt(1/S^2 - 1) kept only 9 to 10
        value = curve(loss, n, n, normalized=normalized).points[0].delta_phi
        reference = mp_delta_phi(n, loss, normalized)
        assert abs(value - reference) / reference <= 1e-13

    @pytest.mark.parametrize("n", [1, 3, 8, 15])
    def test_strictly_decreasing_in_loss(self, n):
        state = optimal_amplitudes(n)
        values = [
            sharpness_closed(state, channel_from_loss(loss))
            for loss in (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_normalized_variant(self):
        state = optimal_amplitudes(1)
        ch = channel_from_loss(0.3)
        raw = sharpness_closed(state, ch)
        scaled = sharpness_closed(state, ch, normalized=True)
        assert scaled == pytest.approx(raw / 0.85, abs=1e-12)
        assert scaled > raw

    def test_rejects_zero_photons(self):
        vacuum = AmplitudeVector([1.0])
        with pytest.raises(ValueError):
            sharpness_closed(vacuum, channel_from_loss(0.0))


class TestSharpnessKernelProperties:
    @KERNEL_PROPERTY
    @given(n=PHOTON_NUMBERS, loss=LOSS_FRACTIONS, normalized=st.booleans())
    def test_sharpness_and_defect_are_complementary(self, n, loss, normalized):
        sharp, defect = kernel(n, loss, normalized)
        assert 0.0 < sharp <= 1.0
        assert defect >= 0.0
        assert abs(sharp + defect - 1.0) <= 8 * EPS

    @KERNEL_PROPERTY
    @given(n=PHOTON_NUMBERS, a=LOSS_FRACTIONS, b=LOSS_FRACTIONS)
    def test_non_increasing_in_loss(self, n, a, b):
        low, high = sorted((a, b))
        assert kernel(n, high)[0] <= kernel(n, low)[0]

    @KERNEL_PROPERTY
    @given(n=PHOTON_NUMBERS, loss=LOSS_FRACTIONS)
    def test_normalized_at_least_raw(self, n, loss):
        # equal at L = 0 up to the rounding of sum psi^2 = 1
        assert kernel(n, loss, normalized=True)[0] >= kernel(n, loss)[0] * (1 - 4 * EPS)


class TestHolevo:
    def test_perfectly_sharp(self):
        est = holevo(1.0)
        assert est.holevo_variance == 0.0
        assert est.min_detectable_phase == 0.0

    def test_half_sharp(self):
        assert holevo(0.5).holevo_variance == pytest.approx(3.0, rel=1e-12)

    def test_flat_distribution_diverges(self):
        est = holevo(0.0)
        assert math.isinf(est.holevo_variance)
        assert math.isinf(est.min_detectable_phase)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            holevo(bad)

    def test_variance_consistency(self):
        for s in (0.1, 0.35, 0.82, 0.999):
            est = holevo(s)
            assert est.holevo_variance == pytest.approx(-1 + s**-2, abs=1e-12)
            assert est.min_detectable_phase == pytest.approx(math.sqrt(est.holevo_variance), abs=1e-12)


class TestLosslessReference:
    def test_small_photon_numbers(self):
        assert lossless_reference(1) == pytest.approx(3.0, rel=1e-12)
        assert lossless_reference(2) == pytest.approx(1.0, rel=1e-12)

    def test_heisenberg_scaling_at_large_n(self):
        n = 1000
        assert lossless_reference(n) == pytest.approx(math.pi**2 / n**2, rel=0.01)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            lossless_reference(0)


class TestPhaseDistributionType:
    def test_rejects_asymmetric_coeff(self):
        with pytest.raises(ValueError, match="symmetric"):
            PhaseDistribution([[1.0, 0.5], [0.1, 1.0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            PhaseDistribution([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
