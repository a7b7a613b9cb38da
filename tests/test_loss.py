"""Unit tests for the loss channel and the block-structured density matrix."""

import functools
import math
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from lossyphase import (
    MAX_PHOTON_NUMBER,
    AmplitudeVector,
    ReducedDensity,
    optimal_amplitudes,
    pure_lossy_state,
    reduced_density,
)
from lossyphase.checks import _lossy_ket_defect
from lossyphase.oracle import ORACLE_MAX_TWICE_SPIN
from lossyphase.povm import distribution_from_density
from lossyphase.sweep import _sine_sharpness

from conftest import child_env, mp_sine_profile

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
        # w_ell(t) = [psi_t (1-L)^(t/2)] [L/(1-L)]^(ell/2) sqrt(C(t, ell))
        survived = mp_sine_profile(n, loss)
        loss = mpmath.mpf(loss)
        odds = [(mpmath.sqrt(loss) / mpmath.sqrt(1 - loss)) ** ell for ell in range(n + 1)]
        roots = mp_root_binomials(n)
        return {
            ell: np.array([float(survived[t] * odds[ell] * roots[t][ell]) for t in range(ell, n + 1)])
            for ell in range(n + 1)
        }


def loss_row(t, loss):
    """K[t, ell] for ell = 0..t: the moduli of the branches of |t>, reversed to run over ell lost.

    Each branch is psi_t = 1 times K[t, ell] times an exact unit i^(-ell), so
    its modulus is K[t, ell] to the bit.
    """
    state = AmplitudeVector(np.eye(t + 1)[t])
    return np.abs(pure_lossy_state(state, loss).coeffs[t])[::-1]


class TestLossRows:
    def test_no_loss(self):
        # nothing is scattered: exact ones at ell = 0 and exact zeros elsewhere
        for t in range(9):
            np.testing.assert_array_equal(loss_row(t, 0.0), np.eye(t + 1)[0])

    def test_half_loss(self):
        for t in range(13):
            row = loss_row(t, 0.5)
            assert row.shape == (t + 1,)  # no more than t of t photons are lost
            for ell in range(t + 1):
                assert row[ell] ** 2 == pytest.approx(math.comb(t, ell) / 2**t, rel=1e-13)

    def test_thirty_percent(self):
        np.testing.assert_allclose(loss_row(1, 0.3), [math.sqrt(0.7), math.sqrt(0.3)], rtol=1e-15)
        np.testing.assert_allclose(loss_row(2, 0.3), [0.7, math.sqrt(2 * 0.7 * 0.3), 0.3], rtol=1e-15)

    @pytest.mark.parametrize("loss", [0.0, 1e-6, 0.1, 0.3, 0.9, 0.999])
    def test_round_trip(self, loss):
        # each row is a binomial distribution of lost photons with mean t L
        for t in range(1, 21):
            weights = loss_row(t, loss) ** 2
            lost = np.arange(t + 1)
            assert np.sum(weights) == pytest.approx(1.0, abs=1e-13)
            assert np.sum(lost * weights) / t == pytest.approx(loss, rel=1e-12, abs=1e-300)


class TestLossColumn:
    @pytest.mark.parametrize("loss", [0.0, 1e-8, 0.1, 0.3, 0.5, 0.9])
    def test_signed_agreement_with_matrix_exponential(self, loss):
        # validate's lossy-ket row, at its losses and tolerance, carried up to the oracle's cap
        for t in range(ORACLE_MAX_TWICE_SPIN + 1):
            assert _lossy_ket_defect(t, loss) <= 1e-14, t

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("loss", [1e-8, 1e-6, 1e-3, 0.3, 0.9])
    def test_blocks_match_50_digit_reference(self, n, loss):
        rho = reduced_density(optimal_amplitudes(n), loss)
        for ell, w in mp_block_factors(n, loss).items():
            exact = np.outer(w, w)
            resolved = exact > 1e-290
            got = rho.block(ell)[resolved]
            assert np.all(np.abs(got - exact[resolved]) <= 1e-12 * exact[resolved]), ell


class TestPureLossyState:
    def test_identity_channel_keeps_amplitudes(self):
        state = optimal_amplitudes(3)
        lossy = pure_lossy_state(state, 0.0)
        for t in range(4):
            np.testing.assert_allclose(lossy.coeffs[t][t], state.psi[t], atol=1e-15)
            assert np.all(lossy.coeffs[t][:t] == 0.0)

    def test_single_photon_split(self):
        # the one-photon branch splits into kept/lost with weights 0.7 / 0.3
        state = optimal_amplitudes(1)
        lossy = pure_lossy_state(state, 0.3)
        kept = lossy.coeffs[1][1]  # t = 1 photon in the lossy arm, s = 1 kept
        lost = lossy.coeffs[1][0]
        assert abs(kept) ** 2 == pytest.approx(0.5 * 0.7, abs=1e-12)
        assert abs(lost) ** 2 == pytest.approx(0.5 * 0.3, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("loss", LOSSES)
    def test_norm_preserved(self, n, loss):
        lossy = pure_lossy_state(optimal_amplitudes(n), loss)
        assert lossy.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_quarter_turn_phases(self):
        # branch with ell lost photons carries exactly i^(-ell)
        lossy = pure_lossy_state(optimal_amplitudes(2), 0.4)
        for t in range(3):
            for s in range(t + 1):
                expected = (1j) ** ((s - t) % 4)
                c = lossy.coeffs[t][s]
                if c != 0:
                    assert c / abs(c) == pytest.approx(expected, abs=1e-12)

    def test_photon_bookkeeping(self):
        # kept + lost always equals the lossy-arm occupation j + mu
        lossy = pure_lossy_state(optimal_amplitudes(4), 0.2)
        for t, branch in enumerate(lossy.coeffs):
            assert branch.shape == (t + 1,)

    def test_builds_little_beyond_its_coefficients(self):
        # the branches are formed row by row: a dense (N+1)^2 table of K would
        # add another 0.97 times the coefficients' bytes at N = 1024
        state = optimal_amplitudes(1024)
        tracemalloc.start()
        try:
            lossy = pure_lossy_state(state, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * sum(c.nbytes for c in lossy.coeffs)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB on Linux only")
    def test_process_grows_by_little_beyond_its_coefficients(self):
        # the branches share one buffer: a separate array per branch, with the
        # row temporaries freed between them, grew the process by 2.0 times
        # the coefficients at N = 2048 (67.0 MB against 33.6)
        run = subprocess.run([sys.executable, "-c", RSS_GROWTH_OF_BRANCHES], capture_output=True, text=True,
                             env=child_env(), timeout=120, check=True)
        growth_kb, coeff_bytes = map(int, run.stdout.split())
        assert growth_kb * 1024 < 1.3 * coeff_bytes

    def test_branches_are_read_only(self):
        lossy = pure_lossy_state(optimal_amplitudes(6), 0.3)
        for branch in lossy.coeffs:
            assert not branch.flags.writeable
            with pytest.raises(ValueError):
                branch[0] = 0.0
            with pytest.raises(ValueError):
                branch.flags.writeable = True


# prints the peak-RSS growth (KB) of one pure_lossy_state call at N = 2048 and
# the bytes of its coefficients
RSS_GROWTH_OF_BRANCHES = (
    "import resource\n"
    "from lossyphase import optimal_amplitudes, pure_lossy_state\n"
    "state, loss = optimal_amplitudes(2048), 1e-6\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "lossy = pure_lossy_state(state, loss)\n"
    "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "print(after - before, sum(c.nbytes for c in lossy.coeffs))\n"
)


class TestReducedDensity:
    def test_lossless_is_rank_one_projector(self):
        state = optimal_amplitudes(4)
        rho = reduced_density(state, 0.0)
        assert tuple(rho.factors) == (0,)
        np.testing.assert_allclose(rho.block(0), np.outer(state.psi, state.psi), atol=1e-15)

    def test_single_photon_lost_block(self):
        rho = reduced_density(optimal_amplitudes(1), 0.3)
        np.testing.assert_allclose(rho.block(1), [[0.15]], atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("loss", LOSSES)
    def test_trace_one(self, n, loss):
        rho = reduced_density(optimal_amplitudes(n), loss)
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("loss", LOSSES)
    def test_physicality(self, n, loss):
        rho = reduced_density(optimal_amplitudes(n), loss)
        for ell in rho.factors:
            block = rho.block(ell)
            assert np.max(np.abs(block - block.T)) <= 1e-12
            assert np.linalg.eigvalsh(block)[0] >= -1e-10

    @pytest.mark.parametrize("n", range(1, 11))
    def test_purity_strictly_mixed_under_loss(self, n):
        # the purity is the sum over blocks of p_ell^2, p_ell = |w_ell|^2: one
        # block of weight 1 is pure, and N + 1 nonzero weights summing to 1
        # give sum p^2 < 1
        state = optimal_amplitudes(n)
        assert tuple(reduced_density(state, 0.0).factors) == (0,)
        for loss in LOSSES:
            rho = reduced_density(state, loss)
            assert tuple(rho.factors) == tuple(range(n + 1))
            assert all(np.any(w != 0.0) for w in rho.factors.values())
            assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_block_shapes_follow_lost_count(self):
        n = 6
        rho = reduced_density(optimal_amplitudes(n), 0.25)
        assert tuple(rho.factors) == tuple(range(n + 1))
        for ell in rho.factors:
            assert rho.factors[ell].shape == (n + 1 - ell,)
            assert rho.block(ell).shape == (n + 1 - ell, n + 1 - ell)

    @pytest.mark.parametrize("loss", (0.0, 1e-8, 0.25))
    def test_blocks_are_outer_products_of_loss_amplitudes(self, loss):
        n = 12
        rho = reduced_density(optimal_amplitudes(n), loss)
        for ell, exact in mp_block_factors(n, loss).items():
            if ell in rho.factors:
                w = rho.factors[ell]
                np.testing.assert_allclose(w, exact, rtol=1e-13, atol=0)
                np.testing.assert_array_equal(rho.block(ell), np.outer(w, w))
                np.testing.assert_array_equal(rho.blocks[ell], np.outer(w, w))
            else:
                assert not np.any(exact)
                np.testing.assert_array_equal(rho.block(ell), np.zeros((n + 1 - ell,) * 2))
        assert set(rho.blocks) == set(rho.factors)
        with pytest.raises(ValueError, match="outside"):
            rho.block(n + 1)

    def test_stores_factors_not_dense_blocks(self):
        state = optimal_amplitudes(256)
        tracemalloc.start()
        try:
            reduced_density(state, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_holds_its_factors_once(self):
        # the factors are frozen once and kept as they are: a second, copied
        # set peaked at 2.09 times the factor bytes
        state = optimal_amplitudes(1024)
        tracemalloc.start()
        try:
            rho = reduced_density(state, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * sum(w.nbytes for w in rho.factors.values())

    def test_factors_are_read_only(self):
        rho = reduced_density(optimal_amplitudes(6), 0.3)
        for w in rho.factors.values():
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 0.0

    def test_block_view_builds_no_block_to_count_or_list(self):
        # every dense block at this size is 43.5 MB under tracemalloc; the
        # view's length, keys and membership read the factors alone (11 KB measured)
        rho = reduced_density(optimal_amplitudes(256), 0.02)
        tracemalloc.start()
        try:
            count, kept = len(rho.blocks), set(rho.blocks)
            member = all(ell in rho.blocks for ell in rho.factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000
        assert member and count == len(kept) and kept == set(rho.factors)

    def test_block_view_is_read_only_and_keyed_by_kept_sectors(self):
        n = 5
        rho = reduced_density(optimal_amplitudes(n), 0.0)
        assert list(rho.blocks) == list(rho.blocks.keys()) == [0]
        np.testing.assert_array_equal(rho.blocks[0], rho.block(0))
        for ell in (1, n, n + 1, -1):
            assert ell not in rho.blocks
            with pytest.raises(KeyError):
                rho.blocks[ell]
        with pytest.raises(TypeError):
            rho.blocks[0] = np.zeros((n + 1, n + 1))
        assert rho.blocks.get(1) is None

    def test_rejects_malformed_factors(self):
        with pytest.raises(ValueError, match="shape"):
            ReducedDensity(n_photons=2, factors={1: np.ones(3)})
        with pytest.raises(ValueError, match="outside"):
            ReducedDensity(n_photons=2, factors={3: np.ones(1)})

    @pytest.mark.parametrize("loss", (1e-6, 0.3))
    def test_runs_to_the_photon_number_cap(self, loss):
        # K is formed a column at a time, so the cap of every path bounds this one too
        rho = reduced_density(optimal_amplitudes(MAX_PHOTON_NUMBER), loss)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        closed = _sine_sharpness(loss, False)(MAX_PHOTON_NUMBER)[0]
        assert distribution_from_density(rho).fourier_sharpness() == pytest.approx(closed, rel=2e-15)

    def test_external_state_goes_through(self):
        sq = 1 / math.sqrt(2)
        state = AmplitudeVector([sq, 0.0, -sq])
        rho = reduced_density(state, 0.2)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
