"""Unit tests for the phase distribution, sharpness and Holevo variance."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossyphase import (
    MAX_PHOTON_NUMBER,
    AmplitudeVector,
    ReducedDensity,
    curve,
    distribution,
    distribution_from_density,
    lossless_reference,
    optimal_amplitudes,
    phase_estimate,
    povm,
    reduced_density,
)
from lossyphase.core import _holevo_spread
from lossyphase.povm import TWO_PI
from lossyphase.sweep import _sine_sharpness

from conftest import mp_sine_sums, traced_heap

LOSSES = (0.0, 0.1, 0.3, 0.5)
SQRT_HALF = 1 / math.sqrt(2)
EPS = float(np.finfo(float).eps)

# a fixed example sequence keeps Tier-1 reproducible and its cost bounded
KERNEL_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
PHOTON_NUMBERS = st.integers(1, MAX_PHOTON_NUMBER)
LOSS_FRACTIONS = st.floats(0.0, 1.0, exclude_max=True)


def survival_weights(n, loss):
    return (1 - loss) ** np.arange(n + 1)


def mp_sharpness(n, loss):
    """sum_t psi_t psi_{t-1} (1-L)^(t-1/2) of the sine state at 50 digits."""
    with mpmath.workdps(50):
        return mp_sine_sums(n, loss)[0]


def mp_delta_phi(n, loss):
    """sqrt(1/S^2 - 1) of the 50-digit sharpness, rounded to a float."""
    with mpmath.workdps(50):
        sharp = mp_sharpness(n, loss)
        return float(mpmath.sqrt(1 / sharp**2 - 1))


def mp_phase_density(g, k, samples):
    """P(phi) = |sum_t g_t e^{i t phi}|^2 / 2pi at phi = 2pi k / samples, to 40 digits.

    The angle is taken exactly, not as its float: near a peak of width 1/N
    the float's rounding alone would move P by up to 1e-12 of the peak at
    N = 4096. The sum is Horner's rule in e^{i phi}.
    """
    with mpmath.workdps(40):
        z = mpmath.expjpi(mpmath.mpf(2 * k) / samples)
        return abs(mpmath.polyval(g[::-1].tolist(), z)) ** 2 / (2 * mpmath.pi)


class TestDistribution:
    def test_lossless_peak_at_zero(self):
        dist = distribution(optimal_amplitudes(2), 0.0)
        phi, values = dist.evaluate(400)
        assert phi[0] == 0.0
        assert np.argmax(values) == 0
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_lossless_matches_squared_sum(self):
        state = optimal_amplitudes(2)
        dist = distribution(state, 0.0)
        mu = np.arange(3) - 1.0
        # the direct sum at arbitrary angles is the reference the FFT grid is gated against
        for samples in (64, 1000, 12345):
            phi, values = dist.evaluate(samples)
            np.testing.assert_array_equal(phi, np.linspace(0, TWO_PI, samples, endpoint=False))
            direct = np.abs(np.exp(1j * np.outer(phi, mu)) @ state.psi) ** 2 / TWO_PI
            np.testing.assert_allclose(values, direct, atol=1e-14)

    def test_hand_integral_n1_l03(self):
        dist = distribution(optimal_amplitudes(1), 0.3)
        assert dist.total_mass() == pytest.approx(0.85, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 21))
    @pytest.mark.parametrize("loss", LOSSES + (0.7,))
    def test_subnormalization_identity(self, n, loss):
        state = optimal_amplitudes(n)
        dist = distribution(state, loss)
        expected = float(np.sum(state.psi**2 * survival_weights(n, loss)))
        assert dist.total_mass() == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n,loss", [(1, 0.0), (5, 0.3), (12, 0.6)])
    def test_nonnegative_on_dense_grid(self, n, loss):
        dist = distribution(optimal_amplitudes(n), loss)
        assert np.all(dist.evaluate(4096)[1] >= 0.0)

    def test_coefficients_factorize(self):
        state = optimal_amplitudes(3)
        dist = distribution(state, 0.2)
        g = state.psi * (1 - 0.2) ** (np.arange(4) / 2)
        np.testing.assert_allclose(dist.factor, g, atol=1e-15)
        # P is the trigonometric polynomial of the coefficient matrix g g^T / 2pi
        coeff = np.outer(g, g) / TWO_PI
        phi, values = dist.evaluate(64)
        dense = sum(coeff[t, u] * np.cos((u - t) * phi) for t in range(4) for u in range(4))
        np.testing.assert_allclose(values, dense, atol=1e-15)

    def test_distribution_stores_no_dense_matrix(self):
        state = optimal_amplitudes(MAX_PHOTON_NUMBER)
        peak = traced_heap(distribution, state, 0.01)[2]
        assert peak < 1e6

    def test_evaluate_memory_bounded_by_entries(self):
        # a few arrays of 65536 entries (1 MB complex), nothing of size samples x (N+1)
        dist = distribution(optimal_amplitudes(MAX_PHOTON_NUMBER), 0.01)
        peak = traced_heap(dist.evaluate, 65536)[2]
        assert peak < 4e6

    @pytest.mark.parametrize("loss", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("n", [1, 256, MAX_PHOTON_NUMBER])
    def test_matches_40_digit_reference(self, n, loss):
        # promises 5e-15 of the peak at the first and last rows and at seeded ones
        dist = distribution(optimal_amplitudes(n), loss)
        samples = 65536
        values = dist.evaluate(samples)[1]
        rng = np.random.default_rng(n)
        rows = [*range(12), *range(samples - 6, samples), *rng.integers(0, samples, 8).tolist()]
        peak = float(np.max(values))
        for k in rows:
            exact = mp_phase_density(dist.factor, k, samples)
            assert abs(values[k] - exact) <= 5e-15 * peak, k

    @KERNEL_PROPERTY
    @given(n=PHOTON_NUMBERS, loss=LOSS_FRACTIONS, extra=st.integers(0, 500))
    def test_total_mass_matches_40_digit_sum_and_parseval(self, n, loss, extra):
        state = optimal_amplitudes(n)
        dist = distribution(state, loss)
        with mpmath.workdps(40):
            keep, weight, exact = 1 - mpmath.mpf(loss), mpmath.mpf(1), mpmath.mpf(0)
            for x in state.psi:
                exact += mpmath.mpf(x) ** 2 * weight
                weight *= keep
        mass = dist.total_mass()
        assert abs(mass - exact) <= 1e-14 * exact
        # Parseval: the mean of P over the grid is the mass / 2pi, which ties the FFT's scale to g
        values = dist.evaluate(4 * (n + 1) + extra)[1]
        assert abs(TWO_PI * float(np.mean(values)) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("loss", [0.0, 1e-12, 1e-8, 1e-3, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 64, 255, 1024, MAX_PHOTON_NUMBER])
    def test_spread_matches_50_digit_reference(self, n, loss):
        # promises 14.7 digits of M - S; total_mass() - fourier_sharpness()
        # is off by 1.8e-10 relative at N = 4096 without loss
        spread = distribution(optimal_amplitudes(n), loss).spread()
        with mpmath.workdps(50):
            pair, mass = mp_sine_sums(n, loss)
            reference = mass - pair
        assert abs(spread - reference) / reference <= 2e-15


class TestDistributionFromDensity:
    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("loss", LOSSES)
    def test_lossy_matches_closed_form(self, n, loss):
        state = optimal_amplitudes(n)
        via_rho = distribution_from_density(reduced_density(state, loss))
        np.testing.assert_allclose(via_rho.factor, distribution(state, loss).factor, atol=1e-12)

    def test_density_without_full_sector_gives_null(self):
        rho = reduced_density(optimal_amplitudes(2), 0.4)
        stripped = ReducedDensity(
            n_photons=rho.n_photons,
            factors={ell: w for ell, w in rho.factors.items() if ell >= 1},
        )
        dist = distribution_from_density(stripped)
        assert dist.factor.shape == (3,)
        assert np.all(dist.factor == 0.0)
        assert dist.total_mass() == 0.0


class TestSharpness:
    def test_one_photon_lossless(self):
        state = optimal_amplitudes(1)
        assert distribution(state, 0.0).fourier_sharpness() == pytest.approx(0.5, abs=1e-14)
        variance = phase_estimate(state, 0.0).holevo_variance
        assert variance == pytest.approx(3.0, rel=1e-12)
        assert variance == pytest.approx(math.tan(math.pi / 3) ** 2, rel=1e-12)

    def test_two_photons_lossless(self):
        state = optimal_amplitudes(2)
        assert distribution(state, 0.0).fourier_sharpness() == pytest.approx(math.cos(math.pi / 4), abs=1e-14)
        assert phase_estimate(state, 0.0).holevo_variance == pytest.approx(1.0, rel=1e-12)

    def test_one_photon_with_loss(self):
        state = optimal_amplitudes(1)
        assert distribution(state, 0.3).fourier_sharpness() == pytest.approx(0.5 * math.sqrt(0.7), abs=1e-14)
        est = phase_estimate(state, 0.3)
        assert est.holevo_variance == pytest.approx(33 / 7, rel=1e-12)
        assert est.min_detectable_phase == pytest.approx(math.sqrt(33 / 7), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 2000, 4096])
    @pytest.mark.parametrize("loss", [0.0, 1e-12, 1e-8, 1e-4, 0.3, 0.9, 0.999])
    def test_matches_50_digit_reference(self, n, loss):
        # promises 14.7 digits; the survival factors come from log1p(-L), so
        # small losses lose nothing to a detour through the splitter angle
        closed = distribution(optimal_amplitudes(n), loss).fourier_sharpness()
        reference = mp_sharpness(n, loss)
        assert abs(closed - reference) / reference <= 2e-15

    @pytest.mark.parametrize("n", [1, 3, 8, 15])
    def test_strictly_decreasing_in_loss(self, n):
        state = optimal_amplitudes(n)
        values = [
            distribution(state, loss).fourier_sharpness()
            for loss in (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSharpnessKernelProperties:
    @KERNEL_PROPERTY
    @given(n=PHOTON_NUMBERS, loss=LOSS_FRACTIONS, normalized=st.booleans())
    def test_sharpness_and_defect_are_complementary(self, n, loss, normalized):
        # the closed form that curve publishes; numpy's sums return no defect
        sharp, defect, _ = _sine_sharpness(loss, normalized)(n)
        assert 0.0 < sharp <= 1.0
        assert defect >= 0.0
        assert abs(sharp + defect - 1.0) <= 8 * EPS

    @KERNEL_PROPERTY
    @given(n=PHOTON_NUMBERS, a=LOSS_FRACTIONS, b=LOSS_FRACTIONS)
    def test_non_increasing_in_loss(self, n, a, b):
        low, high = sorted((a, b))
        state = optimal_amplitudes(n)
        assert distribution(state, high).fourier_sharpness() <= distribution(state, low).fourier_sharpness()

    @KERNEL_PROPERTY
    @given(n=PHOTON_NUMBERS, loss=LOSS_FRACTIONS)
    def test_normalized_at_least_raw(self, n, loss):
        # S/M against S, equal at L = 0 up to the rounding of sum psi^2 = 1
        dist = distribution(optimal_amplitudes(n), loss)
        sharp = dist.fourier_sharpness()
        assert sharp / dist.total_mass() >= sharp * (1 - 4 * EPS)


class TestHolevo:
    def test_perfectly_sharp(self):
        est = povm.holevo(1.0)
        assert est.holevo_variance == 0.0
        assert est.min_detectable_phase == 0.0

    def test_half_sharp(self):
        assert povm.holevo(0.5).holevo_variance == pytest.approx(3.0, rel=1e-12)

    def test_flat_distribution_diverges(self):
        est = povm.holevo(0.0)
        assert math.isinf(est.holevo_variance)
        assert math.isinf(est.min_detectable_phase)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            povm.holevo(bad)

    def test_variance_consistency(self):
        # the alias is _holevo_spread of (S, 1 - S), bit for bit, from S = 0 to S = 1
        for s in (0.0, 5e-324, 0.1, 0.35, 0.5, math.cos(math.pi / 4), 0.82, 0.999, 1 - 2**-53, 1.0):
            est = povm.holevo(s)
            fields = (est.holevo_variance, est.min_detectable_phase)
            assert [x.hex() for x in fields] == [x.hex() for x in _holevo_spread(s, 1.0 - s)], s


class TestPhaseEstimate:
    @pytest.mark.parametrize("n", [100, MAX_PHOTON_NUMBER])
    def test_lossless_matches_50_digit_reference(self, n):
        # promises 14 digits where S is within 3e-7 of 1; holevo(S) forms
        # 1 - S from S there and is off by 9.9e-11 (delta-phi) at N = 4096
        est = phase_estimate(optimal_amplitudes(n), 0.0)
        reference = mp_delta_phi(n, 0.0)
        assert abs(est.min_detectable_phase - reference) / reference <= 1e-14
        assert abs(est.holevo_variance - reference**2) / reference**2 <= 1e-14

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_agrees_with_holevo_of_closed_sharpness(self, n, loss):
        state = optimal_amplitudes(n)
        est = phase_estimate(state, loss)
        old = povm.holevo(povm.sharpness_closed(state, loss))
        assert est.sharpness == old.sharpness
        assert est.holevo_variance == pytest.approx(old.holevo_variance, rel=1e-13)
        assert est.min_detectable_phase == pytest.approx(old.min_detectable_phase, rel=1e-13)

    def test_agrees_with_curve_point(self):
        # numpy's sums and the curve's closed form are two algorithms: both hold
        # 14.7 digits, and they stay within the 8-ulp gap of tests/test_sweep.py
        est = phase_estimate(optimal_amplitudes(500), 1e-3)
        point = curve(1e-3, 500, 500).delta_phi[0]
        reference = mp_delta_phi(500, 1e-3)
        assert abs(est.min_detectable_phase - reference) / reference <= 2e-15
        assert abs(point - reference) / reference <= 2e-15
        assert abs(point - est.min_detectable_phase) <= 8 * np.spacing(point)

    def test_flat_distribution_diverges(self):
        # a Fock state has no neighbouring amplitudes: S = 0 exactly
        est = phase_estimate(AmplitudeVector([0.0, 1.0, 0.0]), 0.1)
        assert est.sharpness == 0.0
        assert math.isinf(est.holevo_variance)
        assert math.isinf(est.min_detectable_phase)

    def test_rejects_negative_sharpness(self):
        with pytest.raises(ValueError, match="sharpness must lie in"):
            phase_estimate(AmplitudeVector([SQRT_HALF, -SQRT_HALF]), 0.0)


class TestHolevoSpread:
    def test_nonpositive_sharpness_is_inf_without_warning(self):
        # Tier-1 turns any RuntimeWarning into a failure; nothing is divided by S <= 0
        for sharp, defect in ((0.0, 1.0), (-0.0, 1.0), (-0.5, 1.5)):
            assert _holevo_spread(sharp, defect) == (math.inf, math.inf)
        # below about 1.6e-162 S^2 rounds to 0: the variance is inf, not a ZeroDivisionError
        assert _holevo_spread(5e-324, 1.0) == (math.inf, math.inf)
        assert _holevo_spread(1e-170, 1.0) == (math.inf, 1.0 / 1e-170)
        variance, delta_phi = _holevo_spread(0.5, 0.5)
        assert variance == pytest.approx(3.0, rel=1e-15)
        assert delta_phi == pytest.approx(math.sqrt(3.0), rel=1e-15)


class TestLosslessReference:
    def test_small_photon_numbers(self):
        assert lossless_reference(1) == pytest.approx(3.0, rel=1e-12)
        assert lossless_reference(2) == pytest.approx(1.0, rel=1e-12)

    def test_heisenberg_scaling_at_large_n(self):
        n = 1000
        assert lossless_reference(n) == pytest.approx(math.pi**2 / n**2, rel=0.01)
