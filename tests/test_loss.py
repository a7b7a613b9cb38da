"""Unit tests for the loss channel and the block-structured density matrix."""

import math

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

LOSSES = (0.1, 0.3, 0.5, 0.7)


class TestChannelFromLoss:
    def test_no_loss(self):
        assert channel_from_loss(0.0).theta == 0.0

    def test_half_loss(self):
        assert channel_from_loss(0.5).theta == pytest.approx(math.pi / 2, abs=1e-15)

    def test_thirty_percent(self):
        ch = channel_from_loss(0.3)
        assert ch.theta == pytest.approx(2 * math.acos(math.sqrt(0.7)), abs=1e-15)
        assert ch.theta == pytest.approx(1.15928, abs=5e-6)

    @pytest.mark.parametrize("loss", [0.0, 1e-6, 0.1, 0.3, 0.9, 0.999])
    def test_round_trip(self, loss):
        ch = channel_from_loss(loss)
        assert 0.0 <= ch.theta < math.pi
        assert 1 - math.cos(ch.theta / 2) ** 2 == pytest.approx(loss, abs=1e-12)

    @pytest.mark.parametrize("loss", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_out_of_range(self, loss):
        with pytest.raises(ValueError):
            channel_from_loss(loss)

    def test_total_loss_message(self):
        with pytest.raises(ValueError, match="loss must be < 1"):
            channel_from_loss(1.0)


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
