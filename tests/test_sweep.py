"""Unit tests for the photon-number sweep and its landmarks."""

import functools
import math
import random
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lossyphase import (
    CurvePoint,
    curve,
    distribution,
    lossless_reference,
    nopt_vs_loss,
    optimal_amplitudes,
    phase_estimate,
    sweep,
)
from lossyphase.core import _holevo_spread
from lossyphase.sweep import (
    _first_minimum,
    _locate_subshot_max,
    _sine_sharpness,
    sine_density,
    sine_mass,
)

from conftest import mp_sine_sums, traced_heap

CURVE_COLUMNS = ("n", "delta_phi", "shot_noise", "heisenberg")
ENGINE_N_MAX = 512
# from the Heisenberg line to near-total loss
ENGINE_LOSSES = [0.0] + [float(x) for x in np.logspace(-7, math.log10(0.9), 64)] + [0.999999]
# the closed form and the numpy sums are two algorithms for S and 1 - S; the widest
# delta-phi gap measured over ENGINE_LOSSES x N <= ENGINE_N_MAX is 8 ulp in
# both variants
ORACLE_ULPS = 8
PRECISION_NS = (1, 2, 3, 10, 100, 1000, 2000, 4096)
PRECISION_LOSSES = (0.0, 5e-324, 1e-300, 1e-12, 1e-8, 1e-5, 1e-3, 0.168, 0.5, 0.9, 0.999, 0.999999)
DENSITY_NS = (1, 20, 256, 4096)
DENSITY_LOSSES = (0.0, 1e-8, 0.01, 0.3, 0.999999)
# 2**16 phase samples, the benchmark's dist grid; no N + 2 of DENSITY_NS
# divides it, so no sampled angle is +-a itself, where the reference divides by 0
DENSITY_SAMPLES = 2**16
# the FFT strays up to 4.0e-15 of the peak from 40-digit mpmath (N = 4096,
# L = 0.999999, 16388 samples), where the closed form stays within 3.1e-16
FFT_PEAK_TOLERANCE = 5e-15
BISECTION_N_MAX = (1, 2, 3, 17, 64, 300, 1000, 3318, 4096)
BISECTION_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# uniform over [0, 1), log-uniform over [1e-12, 1), so that small losses, where
# n_opt moves fastest, are drawn as often as large ones, and 1 - 10^u for u in
# [-16, -1], where S falls below 1e-13 and 1 - S rounds to 1
UNIT_LOSSES = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-12.0, 0.0).map(lambda e: 10.0**e).filter(lambda x: x < 1.0),
    st.floats(-16.0, -1.0).map(lambda u: 1.0 - 10.0**u).filter(lambda x: x < 1.0),
)


def oracle_point(n, loss, normalized):
    """Delta-phi of the N-photon sine state from numpy's sums over its amplitudes.

    Raw, ``phase_estimate``; normalized, S/M and (M - S)/M of its ``distribution``.
    """
    state = optimal_amplitudes(n)
    if not normalized:
        return phase_estimate(state, loss).min_detectable_phase
    dist = distribution(state, loss)
    mass = dist.total_mass()
    return _holevo_spread(dist.fourier_sharpness() / mass, dist.spread() / mass)[1]


def oracle_curve(loss, n_max, normalized):
    """Delta-phi for N = 1..n_max, one (N, L) pair at a time through ``oracle_point``."""
    return [oracle_point(n, loss, normalized) for n in range(1, n_max + 1)]


def oracle_landmarks(deltas):
    """(n_opt, n_subshot_max) of a curve from N = 1, by Python's first-minimum min()."""
    top = len(deltas)
    best = min(range(top), key=deltas.__getitem__)
    below = [d < 1.0 / math.sqrt(i + 1) for i, d in enumerate(deltas)]
    if not any(below):
        return (None if best == top - 1 else best + 1), None
    start = min((i for i in range(top) if below[i]), key=deltas.__getitem__)
    end = next((i for i in range(start, top) if not below[i]), top)
    return (None if best == top - 1 else best + 1), (None if end == top else end)


@functools.cache
def engine_oracle_curves(normalized):
    """{loss: oracle curve} over ENGINE_LOSSES at N = 1..ENGINE_N_MAX."""
    return {loss: oracle_curve(loss, ENGINE_N_MAX, normalized) for loss in ENGINE_LOSSES}


@pytest.fixture(params=[False, True], ids=["raw", "normalized"])
def engine_oracle(request):
    """(normalized, {loss: oracle curve}) of either variant."""
    return request.param, engine_oracle_curves(request.param)


def engine_rows(losses, normalized):
    return [np.asarray(curve(loss, 1, ENGINE_N_MAX, normalized).delta_phi) for loss in losses]


def mp_density(n, loss, k, samples):
    """P(2 pi k / samples) of the N-photon sine state at 40 digits, from the complex geometric sums.

    sin((t+1)a) = (e^{i(t+1)a} - e^{-i(t+1)a})/2i turns the amplitude
    sum_t g_t z^t, z = r e^{i phi}, into two finite geometric series; none of
    the real closed form's algebra or angle reduction is used.
    """
    with mpmath.workdps(40):
        m = n + 2
        z = mpmath.sqrt(1 - mpmath.mpf(loss)) * mpmath.expjpi(mpmath.mpf(2 * k) / samples)
        total = mpmath.mpc(0)
        for sign in (1, -1):
            e = mpmath.expjpi(mpmath.mpf(sign) / m)
            u = z * e
            total += sign * e * (1 - u ** (n + 1)) / (1 - u)
        return abs(total / 2) ** 2 / (m * mpmath.pi)


def density_angles(n, samples):
    """About 23 grid indices: both ends, the points either side of +-a and of pi, and 8 drawn ones."""
    below_a = samples // (2 * (n + 2))
    near_a = [below_a - 1, below_a, below_a + 1, below_a + 2]
    ks = {0, 1, 2, samples // 4, samples // 2 - 1, samples // 2, samples // 2 + 1}
    ks.update(near_a + [samples - k for k in near_a])
    rng = random.Random(n)
    ks.update(rng.randrange(samples) for _ in range(8))
    return sorted(k for k in ks if 0 <= k < samples)


def n_opt_at(loss, n_max):
    """``n_opt`` of one loss through the grid entry."""
    [(_, n_opt)] = nopt_vs_loss([loss], n_max)
    return n_opt


def drawn_losses(seed, floor):
    """0, 5e-324, 1 - 2^-53, then 66 losses each uniform, log-uniform down to 10^floor, and near one."""
    rng = random.Random(seed)
    losses = [0.0, 5e-324, 1 - 2.0**-53]
    losses += [rng.random() for _ in range(66)]
    losses += [10.0 ** rng.uniform(floor, 0.0) for _ in range(66)]
    losses += [min(1.0 - 10.0 ** rng.uniform(-16.0, -1.0), 1 - 2.0**-53) for _ in range(66)]
    return losses


def curve_landmarks(losses, normalized):
    """(n_opt, n_subshot_max) of ``curve`` at each loss, N = 1..ENGINE_N_MAX."""
    return [(r.n_opt, r.n_subshot_max) for r in (curve(x, 1, ENGINE_N_MAX, normalized) for x in losses)]


class TestCurve:
    def test_lossless_monotone_and_analytic(self):
        result = curve(0.0, 1, 100)
        assert np.all(np.diff(np.asarray(result.delta_phi)) < 0)
        assert result.n_opt is None
        for n, delta_phi in zip(result.n, result.delta_phi):
            assert delta_phi == pytest.approx(math.sqrt(lossless_reference(n)), rel=1e-9)

    def test_reference_columns(self):
        # heisenberg is math.tan per N; np.tan differs from it in the last bit at some N
        result = curve(0.2, 1, 4096)
        assert result.shot_noise == tuple(1 / math.sqrt(n) for n in result.n)
        assert result.heisenberg == tuple(math.tan(math.pi / (n + 2)) for n in result.n)

    def test_one_point_per_n(self):
        result = curve(0.1, 5, 50)
        assert result.n == tuple(range(5, 51))
        assert all(len(getattr(result, c)) == 46 for c in CURVE_COLUMNS)

    def test_interior_minimum_then_divergence_at_high_loss(self):
        result = curve(0.3, 1, 200)
        deltas = np.asarray(result.delta_phi)
        best = int(np.argmin(deltas))
        assert 0 < best < len(deltas) - 1
        assert np.all(np.diff(deltas[best:]) > 0)
        assert result.n_opt == result.n[best]

    def test_never_beats_lossless_bound(self):
        for loss in (0.0, 1e-3, 0.1, 0.5):
            result = curve(loss, 1, 120)
            assert np.all(np.asarray(result.delta_phi) >= np.asarray(result.heisenberg) - 1e-9)

    def test_deterministic(self):
        first, second = curve(0.17, 1, 60), curve(0.17, 1, 60)
        for column in CURVE_COLUMNS:
            assert getattr(first, column) == getattr(second, column)
        assert (first.loss, first.n_opt, first.n_subshot_max) == (
            second.loss, second.n_opt, second.n_subshot_max)

    def test_points_are_the_columns(self):
        # bench/traced.py counts a curve's points through this view
        result = curve(2e-3, 3, 500)
        assert result.points == tuple(
            CurvePoint(*row) for row in zip(*(getattr(result, c) for c in CURVE_COLUMNS))
        )
        assert all(type(p.n) is int and type(p.delta_phi) is float for p in result.points)

    def test_columns_are_read_only(self):
        result = curve(0.1, 1, 10)
        for column in CURVE_COLUMNS:
            assert type(getattr(result, column)) is tuple
            with pytest.raises(TypeError):
                getattr(result, column)[0] = 0

    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("loss", [0.0, 1e-5, 0.5])
    def test_heap_peak_is_near_the_columns(self, loss, normalized):
        # each point is formed and dropped in turn, so a 4096-point scan
        # allocates a few transient lists beyond the 0.5 MB of columns it keeps
        # and builds no per-N table of terms or list of (S, 1 - S, M)
        curve(loss, 1, 8, normalized)
        result, retained, peak = traced_heap(curve, loss, 1, 4096, normalized)
        assert len(result.n) == 4096
        assert peak - retained < 256 * 1024, (peak, retained)


class TestFindNOpt:
    def test_lossless_has_no_interior_optimum(self):
        assert n_opt_at(0.0, 200) is None

    def test_moderate_loss(self):
        n_opt = n_opt_at(0.3, 200)
        assert n_opt is not None
        assert n_opt_at(0.3, 200) == n_opt  # deterministic

    def test_ordering_between_small_and_moderate_loss(self):
        assert n_opt_at(0.3, 500) < n_opt_at(1e-3, 500)

    def test_boundary_reported_as_none(self):
        # at tiny loss the optimum sits beyond a short scan
        assert n_opt_at(1e-4, 10) is None


class TestNOptVsLoss:
    def test_non_increasing_over_grid(self):
        grid = [0.1, 0.3, 0.5]
        pairs = nopt_vs_loss(grid, 200)
        opts = [n for _, n in pairs]
        assert all(n is not None for n in opts)
        assert all(a >= b for a, b in zip(opts, opts[1:]))

    def test_zero_loss_grid(self):
        assert nopt_vs_loss([0.0], 100) == [(0.0, None)]

    def test_log_grid_full_dataset(self):
        grid = [float(x) for x in np.logspace(-4, math.log10(0.5), 12)]
        pairs = nopt_vs_loss(grid, 1000)
        assert [l for l, _ in pairs] == grid
        opts = [n for _, n in pairs]
        assert all(isinstance(n, int) for n in opts)
        assert all(a >= b for a, b in zip(opts, opts[1:]))

    def test_accepts_integer_types(self):
        assert nopt_vs_loss([0.3], np.int64(10)) == nopt_vs_loss([0.3], 10) == [(0.3, 2)]


def recorded_reads(call):
    """(call's result, [[N of each point read] per ``_sine_sharpness`` built]) of ``call()``."""
    reads = []
    sine_sharpness = sweep._sine_sharpness

    def recording(loss, normalized):
        point, seen = sine_sharpness(loss, normalized), []
        reads.append(seen)

        def read(n):
            seen.append(n)
            return point(n)

        return read

    with mock.patch.object(sweep, "_sine_sharpness", recording):
        return call(), reads


class TestBisection:
    @BISECTION_PROPERTY
    @given(losses=st.lists(UNIT_LOSSES, min_size=1, max_size=6), n_max=st.sampled_from(BISECTION_N_MAX))
    @example(losses=[0.0, 5e-324, 0.999999, 1 - 2.0**-53], n_max=4096)
    # ranking by -S, not 1 - S, gave 3689 here
    @example(losses=[3.9271255443640523e-10], n_max=4096)
    # ranking by 1 - S gave 903: S is below 1e-13, and 1 - S rounds to 1
    @example(losses=[0.9999999999999992], n_max=3318)
    def test_matches_full_scan(self, losses, n_max):
        # nopt reads the points whose delta-phi is bitwise the full scan's at
        # that N, at most 2 ceil(log2(n_max)) of them, and lands on the scan's
        # first minimum, as curve does
        losses.sort()
        pairs, reads = recorded_reads(lambda: nopt_vs_loss(losses, n_max))
        assert [loss for loss, _ in pairs] == losses
        for (loss, n_opt), seen in zip(pairs, reads):
            result = curve(loss, 1, n_max)
            assert n_opt == result.n_opt == oracle_landmarks(result.delta_phi)[0], loss
            assert len(seen) <= 2 * math.ceil(math.log2(n_max))
            point = _sine_sharpness(loss, False)
            assert all(_holevo_spread(*point(n)[:2])[1].hex() == result.delta_phi[n - 1].hex() for n in seen)

    @pytest.mark.parametrize("loss", [0.0, 3.9271255443640523e-10, 1e-3, 0.3, 0.9999999999999992])
    def test_point_reads(self, loss):
        # curve forms each N once and searches its own column; nopt reads at
        # most 24 points of 4096
        result, [seen] = recorded_reads(lambda: curve(loss, 1, 4096))
        assert seen == list(range(1, 4097))
        [(_, n_opt)], [seen] = recorded_reads(lambda: nopt_vs_loss([loss], 4096))
        assert n_opt == result.n_opt and len(seen) <= 24

    @pytest.mark.parametrize("row,n_opt", [
        ((0.9, 0.5, 0.5, 0.7), 2),  # a tie at the minimum goes to the smaller N
        ((0.9, 0.6, 0.4, 0.4, 0.4, 0.8), 3),
        ((0.9, 0.8, 0.7, 0.75), 3),  # the minimum at n_max - 1
        ((0.9, 0.8, 0.7), None),  # still falling at n_max
        ((0.9, 0.8, 0.7, 0.7), 3),  # a tie at n_max is a minimum below it
        ((0.5,), None),
        ((0.5, 0.4), None),
        ((0.4, 0.5), 1),
        ((0.5, 0.5), 1),
        ((0.5, math.inf, math.inf), 1),
    ])
    def test_hand_built_rows(self, monkeypatch, row, n_opt):
        # both entries search the row's values as each N's delta-phi
        assert _first_minimum(lambda n: row[n - 1], 1, len(row)) == n_opt
        monkeypatch.setattr(sweep, "_sine_sharpness", lambda loss, normalized: lambda n: (n, None, None))
        monkeypatch.setattr(sweep, "_holevo_spread", lambda n, _: (None, row[n - 1]))
        assert curve(0.0, 1, len(row)).n_opt == n_opt_at(0.0, len(row)) == n_opt


class TestFindSubshotBound:
    def test_lossless_region_reaches_scan_top(self):
        # sub-shot noise from N = 7 on (tan(pi/(N+2)) exceeds 1/sqrt(N) below
        # that), and the region never closes, so no crossing is in range
        result = curve(0.0, 1, 100)
        n, delta_phi, shot_noise = map(np.asarray, (result.n, result.delta_phi, result.shot_noise))
        assert n[delta_phi < shot_noise].tolist() == list(range(7, 101))
        assert result.n_subshot_max is None

    def test_small_loss_has_finite_bound(self):
        bound = curve(1e-3, 1, 500).n_subshot_max
        assert bound is not None
        assert 1 < bound < 500

    def test_bound_grows_as_loss_shrinks(self):
        low = curve(5e-4, 1, 500).n_subshot_max
        high = curve(2e-3, 1, 500).n_subshot_max
        assert low is not None and high is not None
        assert low >= high

    def test_window_is_one_interval(self):
        # {N : delta-phi < 1/sqrt(N)} is contiguous, and n_subshot_max is its
        # right end, None when the window is empty or reaches n_max; 55 of the
        # 201 losses have a window, and 30 close it inside the scan
        closed = 0
        for loss in drawn_losses(3, -12.0):
            result = curve(loss, 1, 4096)
            window = [n for n, d, s in zip(result.n, result.delta_phi, result.shot_noise) if d < s]
            if window:
                assert window == list(range(window[0], window[-1] + 1)), loss
            end = window[-1] if window and window[-1] < 4096 else None
            assert result.n_subshot_max == end, loss
            closed += end is not None
        assert closed == 30

    def test_none_when_nothing_subshot(self):
        result = curve(0.3, 1, 500)
        assert np.all(np.asarray(result.delta_phi) >= np.asarray(result.shot_noise))
        assert result.n_subshot_max is None


class TestLandmarkSearch:
    def test_tie_goes_to_smaller_n(self):
        # on the longer row the halving lands inside the flat bottom and still
        # walks to its left end
        for deltas in ((0.9, 0.5, 0.5, 0.7), (0.9, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.7)):
            assert _first_minimum(lambda n: deltas[n - 1], 1, len(deltas)) == 2

    def test_subshot_stretch_starts_at_lowest_subshot_point(self):
        # the global minimum (N = 5) is above shot noise, so the stretch runs
        # right from N = 2, the lowest point below it, and ends at N = 3. The
        # row is not unimodal: n_opt is the local minimum the halving brackets
        # (N = 2), where a full scan would put it at the top (None)
        deltas, shots = (0.8, 0.4, 0.5, 0.6, 0.3), (0.9, 0.5, 0.6, 0.5, 0.2)
        assert _first_minimum(lambda n: deltas[n - 1], 1, len(deltas)) == 2
        assert _locate_subshot_max(deltas, shots, 1) == 3

    def test_subshot_stretch_reaching_scan_top_is_none(self):
        deltas, shots = (0.8, 0.4, 0.5), (0.9, 0.5, 0.6)
        assert _locate_subshot_max(deltas, shots, 1) is None


class TestScanEngine:
    def test_delta_phi_within_8_ulp_of_kernel_oracle(self, engine_oracle):
        normalized, oracle = engine_oracle
        for loss, row in zip(ENGINE_LOSSES, engine_rows(ENGINE_LOSSES, normalized)):
            expected = np.array(oracle[loss])
            assert np.all(np.abs(row - expected) <= ORACLE_ULPS * np.spacing(expected)), loss

    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("loss", PRECISION_LOSSES)
    def test_closed_form_matches_50_digit_reference(self, loss, normalized):
        # promises 14.7 digits of S, 1 - S and delta-phi; 1 - S stays
        # nonnegative down to the smallest subnormal loss
        triples = list(map(_sine_sharpness(loss, normalized), PRECISION_NS))
        assert all(defect >= 0.0 for _, defect, _ in triples)
        with mpmath.workdps(50):
            for count, (sharp, defect, _) in zip(PRECISION_NS, triples):
                delta_phi = _holevo_spread(sharp, defect)[1]
                pair, mass = mp_sine_sums(count, loss)
                exact = pair / mass if normalized else pair
                reference = (exact, 1 - exact, mpmath.sqrt((1 - exact) * (1 + exact)) / exact)
                for value, ref in zip((sharp, defect, delta_phi), reference):
                    assert abs(value - ref) / ref <= 2e-15, (count, value, ref)

    def test_landmarks_match_oracle(self, engine_oracle):
        normalized, oracle = engine_oracle
        expected = [oracle_landmarks(oracle[loss]) for loss in ENGINE_LOSSES]
        assert curve_landmarks(ENGINE_LOSSES, normalized) == expected

    def test_shuffled_grid_rows_match_single_loss(self):
        # every loss's n_opt is the raw oracle's; a loss gets the n_opt it gets
        # on its own, wherever it sits in the grid, and a grid that repeats
        # values, as a parsed grid may, gets it on every row
        oracle = engine_oracle_curves(False)
        grid = list(ENGINE_LOSSES)
        random.Random(5).shuffle(grid)
        repeated = sorted(grid + grid[:20])
        expected = [(loss, oracle_landmarks(oracle[loss])[0]) for loss in repeated]
        assert nopt_vs_loss(repeated, ENGINE_N_MAX) == expected
        assert [pair for loss in repeated for pair in nopt_vs_loss([loss], ENGINE_N_MAX)] == expected

    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
    def test_public_finders_match_oracle(self, normalized):
        for loss in (1e-5, 2e-3, 0.3):
            n_opt, n_subshot_max = oracle_landmarks(oracle_curve(loss, ENGINE_N_MAX, normalized))
            result = curve(loss, 1, ENGINE_N_MAX, normalized)
            assert (result.n_opt, result.n_subshot_max) == (n_opt, n_subshot_max)

    @pytest.mark.parametrize("normalized,n_opt", [(False, 1), (True, None)])
    def test_losses_near_one_without_warning(self, normalized, n_opt):
        # S keeps its first term psi_0 psi_1 (1-L)^(1/2) > 0 for every L < 1, so
        # delta-phi reaches 3e14 (raw) but stays finite and far above shot
        # noise; any RuntimeWarning on the way fails here, as Tier-1 runs with
        # warnings as errors. Normalized, the curve still falls at the top.
        grid = [0.999999, 1 - 2.0**-53]
        rows = engine_rows(grid, normalized)
        assert all(np.all(np.isfinite(row)) and row.min() > 100.0 for row in rows)
        assert curve_landmarks(grid, normalized) == [(n_opt, None)] * 2

    def test_normalized_delta_phi_never_rises(self):
        # S/M = 2 sqrt(q) cos(pi/m)/(2 - L) rises strictly with m, so the
        # normalized curve has no n_opt to search for; its floats may tie
        for loss in drawn_losses(32, -16.0):
            row = curve(loss, 1, 4096, True).delta_phi
            assert all(b <= a for a, b in zip(row, row[1:])), loss

    def test_checks_every_loss_before_any_point(self, monkeypatch):
        def no_point(*_):
            raise AssertionError("a point was computed before every loss was checked")

        monkeypatch.setattr(sweep, "_sine_sharpness", no_point)
        with pytest.raises(ValueError, match="loss must be < 1"):
            nopt_vs_loss([0.1] * 100 + [1.0], 10)


class TestSineDensity:
    """``dist``'s P(phi) in closed form, over the whole turn it hands back."""

    @staticmethod
    def published(loss, n, samples):
        # the P column dist writes
        return list(sine_density(loss, n, samples))

    @pytest.mark.parametrize("loss", DENSITY_LOSSES)
    @pytest.mark.parametrize("n", DENSITY_NS)
    def test_matches_40_digit_reference(self, n, loss):
        # 14.7 digits relative at every sampled angle, the tails and the points
        # next to +-a included; the absolute floor only meets the exact zeros
        # of P at L = 0, where the 40-digit sums leave a residue
        values = self.published(loss, n, DENSITY_SAMPLES)
        peak = max(values)
        for k in density_angles(n, DENSITY_SAMPLES):
            value = values[k]
            exact = mp_density(n, loss, k, DENSITY_SAMPLES)
            assert abs(value - exact) <= 2e-15 * exact + 1e-30 * peak, (k, value, float(exact))

    # the Nyquist grid, 2**16, and a grid with +-a at k = 8 and samples - 8
    @pytest.mark.parametrize("samples_of", [lambda n: 4 * (n + 1), lambda n: DENSITY_SAMPLES,
                                            lambda n: 16 * (n + 2)], ids=["nyquist", "2**16", "pole"])
    @pytest.mark.parametrize("loss", DENSITY_LOSSES)
    @pytest.mark.parametrize("n", DENSITY_NS)
    def test_matches_fft(self, n, loss, samples_of):
        samples = samples_of(n)
        _, fft = distribution(optimal_amplitudes(n), loss).evaluate(samples)
        closed = np.array(self.published(loss, n, samples))
        assert np.max(np.abs(closed - fft)) <= FFT_PEAK_TOLERANCE * np.max(fft)

    @pytest.mark.parametrize("loss", [0.0, 1e-300, 1e-8, 0.3, 0.999999])
    @pytest.mark.parametrize("n,samples", [(1, 64), (2, 64), (20, 336), (20, 1001), (256, 65536), (4096, 16388)])
    def test_mirror_image_is_bitwise(self, n, samples, loss):
        full = self.published(loss, n, samples)
        assert len(full) == samples
        assert all(full[k] == full[samples - k] for k in range(1, samples))

    @pytest.mark.parametrize("n,samples", [(1, 66), (2, 64), (20, 264), (4094, 16384)])
    def test_removable_point_at_plus_minus_a(self, n, samples):
        # samples = 2mj puts phi = +-a on the grid at k = j and samples - j;
        # there D- (or D+) is (1 - r)^2 alone, 0 at L = 0 and underflowing at
        # 1e-300, and the value is the limit m/(4 pi) of the lossless case
        m = n + 2
        k = samples // (2 * m)
        assert 2 * k * m == samples
        values = []
        for loss in (0.0, 5e-324, 1e-300):
            full = self.published(loss, n, samples)
            assert math.isfinite(full[k]) and full[k] == full[samples - k]
            values.append(full[k])
        assert values[0] == pytest.approx(m / (4 * math.pi), rel=1e-15)
        assert values[1] == values[0]
        assert values[2] == pytest.approx(values[0], rel=1e-15)

    @pytest.mark.parametrize("loss", PRECISION_LOSSES)
    def test_mass_matches_50_digit_sum(self, loss):
        for n in PRECISION_NS:
            exact = mp_sine_sums(n, loss)[1]
            assert abs(sine_mass(loss, n) - exact) <= 2e-15 * exact, n
