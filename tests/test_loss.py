"""Unit tests for the loss channel and the block-structured density matrix."""

import functools
import math

import mpmath
import numpy as np
import pytest

from lossyphase import (
    DENSITY_MATRIX_MAX_PHOTONS,
    AmplitudeVector,
    channel_from_loss,
    optimal_amplitudes,
    pure_lossy_state,
    reduced_density,
)
from lossyphase.loss import _loss_column
from lossyphase.oracle import ORACLE_MAX_TWICE_SPIN, bs_unitary

LOSSES = (0.1, 0.3, 0.5, 0.7)


@functools.lru_cache(maxsize=None)
def mp_root_binomials(n):
    """sqrt(C(t, ell)) for 0 <= ell <= t <= N at 50 digits, row by row."""
    with mpmath.workdps(50):
        return tuple(
            tuple(mpmath.sqrt(math.comb(t, ell)) for ell in range(t + 1)) for t in range(n + 1)
        )


def mp_block_factors(n, loss):
    """w_ell(t) = psi_t sqrt(C(t, ell)) (1-L)^((t-ell)/2) L^(ell/2) of the sine state at 50 digits.

    Rounded to doubles, as a dict {ell: array over t = ell..N}; the exact
    block ell is the outer product of its factor with itself.
    """
    with mpmath.workdps(50):
        loss = mpmath.mpf(loss)
        root = mpmath.sqrt(1 - loss)
        scale = mpmath.sqrt(mpmath.mpf(n) / 2 + 1)
        # w_ell(t) = [psi_t (1-L)^(t/2)] [L/(1-L)]^(ell/2) sqrt(C(t, ell))
        survived = [
            mpmath.sin((t + 1) * mpmath.pi / (n + 2)) / scale * root**t for t in range(n + 1)
        ]
        odds = [(mpmath.sqrt(loss) / root) ** ell for ell in range(n + 1)]
        roots = mp_root_binomials(n)
        return {
            ell: np.array([float(survived[t] * odds[ell] * roots[t][ell]) for t in range(ell, n + 1)])
            for ell in range(n + 1)
        }


class TestChannelFromLoss:
    def test_no_loss(self):
        # nothing is scattered: exact ones at ell = 0 and exact zeros elsewhere
        expected = np.zeros((9, 9))
        expected[:, 0] = 1.0
        assert channel_from_loss(0.0).loss == 0.0
        np.testing.assert_array_equal(_loss_column(8, 0.0), expected)

    def test_half_loss(self):
        column = _loss_column(12, channel_from_loss(0.5).loss)
        for t in range(13):
            for ell in range(t + 1):
                assert column[t, ell] ** 2 == pytest.approx(math.comb(t, ell) / 2**t, rel=1e-13)
            assert np.all(column[t, t + 1 :] == 0.0)

    def test_thirty_percent(self):
        column = _loss_column(2, channel_from_loss(0.3).loss)
        np.testing.assert_allclose(column[1, :2], [math.sqrt(0.7), math.sqrt(0.3)], rtol=1e-15)
        np.testing.assert_allclose(column[2], [0.7, math.sqrt(2 * 0.7 * 0.3), 0.3], rtol=1e-15)

    @pytest.mark.parametrize("loss", [0.0, 1e-6, 0.1, 0.3, 0.9, 0.999])
    def test_round_trip(self, loss):
        # each row is a binomial distribution of lost photons with mean t L
        ch = channel_from_loss(loss)
        assert ch.loss == loss
        weights = _loss_column(20, ch.loss) ** 2
        lost = np.arange(21)
        for t in range(1, 21):
            assert np.sum(weights[t]) == pytest.approx(1.0, abs=1e-13)
            assert np.sum(lost * weights[t]) / t == pytest.approx(loss, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("loss", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_out_of_range(self, loss):
        with pytest.raises(ValueError):
            channel_from_loss(loss)

    def test_total_loss_message(self):
        with pytest.raises(ValueError, match="loss must be < 1"):
            channel_from_loss(1.0)


class TestLossColumn:
    @pytest.mark.parametrize("loss", [1e-8, 0.1, 0.3, 0.5, 0.9])
    def test_signed_agreement_with_matrix_exponential(self, loss):
        # the branches of |t> are the conjugated last column of e^{i theta Jx},
        # cos^2(theta/2) = 1 - L, sign and quarter-turn phase included
        theta = 2 * math.atan2(math.sqrt(loss), math.sqrt(1 - loss))
        for t in range(ORACLE_MAX_TWICE_SPIN + 1):
            state = AmplitudeVector(np.eye(t + 1)[t])
            branch = pure_lossy_state(state, channel_from_loss(loss)).coeffs[t]
            expected = np.conj(bs_unitary(t, theta)[:, t])
            np.testing.assert_allclose(branch, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("loss", [1e-8, 1e-6, 1e-3, 0.3, 0.9])
    def test_blocks_match_50_digit_reference(self, n, loss):
        rho = reduced_density(optimal_amplitudes(n), channel_from_loss(loss))
        for ell, w in mp_block_factors(n, loss).items():
            exact = np.outer(w, w)
            resolved = exact > 1e-290
            got = rho.block(ell)[resolved]
            assert np.all(np.abs(got - exact[resolved]) <= 1e-12 * exact[resolved]), ell


class TestPureLossyState:
    def test_identity_channel_keeps_amplitudes(self):
        state = optimal_amplitudes(3)
        lossy = pure_lossy_state(state, channel_from_loss(0.0))
        for t in range(4):
            np.testing.assert_allclose(lossy.coeffs[t][t], state.psi[t], atol=1e-15)
            assert np.all(lossy.coeffs[t][:t] == 0.0)

    def test_single_photon_split(self):
        # the one-photon branch splits into kept/lost with weights 0.7 / 0.3
        state = optimal_amplitudes(1)
        lossy = pure_lossy_state(state, channel_from_loss(0.3))
        kept = lossy.coeffs[1][1]  # t = 1 photon in the lossy arm, s = 1 kept
        lost = lossy.coeffs[1][0]
        assert abs(kept) ** 2 == pytest.approx(0.5 * 0.7, abs=1e-12)
        assert abs(lost) ** 2 == pytest.approx(0.5 * 0.3, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("loss", LOSSES)
    def test_norm_preserved(self, n, loss):
        lossy = pure_lossy_state(optimal_amplitudes(n), channel_from_loss(loss))
        assert lossy.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_quarter_turn_phases(self):
        # branch with ell lost photons carries exactly i^(-ell)
        lossy = pure_lossy_state(optimal_amplitudes(2), channel_from_loss(0.4))
        for t in range(3):
            for s in range(t + 1):
                expected = (1j) ** ((s - t) % 4)
                c = lossy.coeffs[t][s]
                if c != 0:
                    assert c / abs(c) == pytest.approx(expected, abs=1e-12)

    def test_photon_bookkeeping(self):
        # kept + lost always equals the lossy-arm occupation j + mu
        lossy = pure_lossy_state(optimal_amplitudes(4), channel_from_loss(0.2))
        for t, branch in enumerate(lossy.coeffs):
            assert branch.shape == (t + 1,)


class TestReducedDensity:
    def test_lossless_is_rank_one_projector(self):
        state = optimal_amplitudes(4)
        rho = reduced_density(state, channel_from_loss(0.0))
        assert rho.lost_photon_counts() == (0,)
        np.testing.assert_allclose(rho.blocks[0], np.outer(state.psi, state.psi), atol=1e-15)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_single_photon_lost_block(self):
        rho = reduced_density(optimal_amplitudes(1), channel_from_loss(0.3))
        np.testing.assert_allclose(rho.blocks[1], [[0.15]], atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("loss", LOSSES)
    def test_trace_one(self, n, loss):
        rho = reduced_density(optimal_amplitudes(n), channel_from_loss(loss))
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("loss", LOSSES)
    def test_physicality(self, n, loss):
        rho = reduced_density(optimal_amplitudes(n), channel_from_loss(loss))
        assert rho.symmetry_defect() <= 1e-12
        assert rho.min_eigenvalue() >= -1e-10

    @pytest.mark.parametrize("n", range(1, 11))
    def test_purity_strictly_mixed_under_loss(self, n):
        state = optimal_amplitudes(n)
        assert reduced_density(state, channel_from_loss(0.0)).purity() == pytest.approx(1.0, abs=1e-12)
        for loss in LOSSES:
            assert reduced_density(state, channel_from_loss(loss)).purity() < 1.0

    def test_block_shapes_follow_lost_count(self):
        n = 6
        rho = reduced_density(optimal_amplitudes(n), channel_from_loss(0.25))
        assert rho.lost_photon_counts() == tuple(range(n + 1))
        for ell, block in rho.blocks.items():
            assert block.shape == (n + 1 - ell, n + 1 - ell)

    def test_memory_guard(self):
        state = optimal_amplitudes(DENSITY_MATRIX_MAX_PHOTONS + 1)
        with pytest.raises(ValueError, match="cap"):
            reduced_density(state, channel_from_loss(0.1))

    def test_external_state_goes_through(self):
        sq = 1 / math.sqrt(2)
        state = AmplitudeVector([sq, 0.0, -sq])
        rho = reduced_density(state, channel_from_loss(0.2))
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
