"""Unit tests for the photon-number sweep and its landmark finders."""

import math

import numpy as np
import pytest

from lossyphase import (
    CurvePoint,
    curve,
    find_n_opt,
    find_subshot_bound,
    lossless_reference,
    nopt_vs_loss,
)
from lossyphase.sweep import _locate_n_opt, _locate_subshot_max


def hand_points(deltas, shots):
    return tuple(
        CurvePoint(n=i + 1, delta_phi=d, shot_noise=s, heisenberg=0.0)
        for i, (d, s) in enumerate(zip(deltas, shots))
    )


class TestCurve:
    def test_lossless_monotone_and_analytic(self):
        result = curve(0.0, 1, 100)
        deltas = [p.delta_phi for p in result.points]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert result.n_opt is None
        for p in result.points:
            assert p.delta_phi == pytest.approx(math.sqrt(lossless_reference(p.n)), rel=1e-9)

    def test_reference_columns(self):
        result = curve(0.2, 3, 7)
        for p in result.points:
            assert p.shot_noise == 1 / math.sqrt(p.n)
            assert p.heisenberg == math.tan(math.pi / (p.n + 2))

    def test_one_point_per_n(self):
        result = curve(0.1, 5, 50)
        assert [p.n for p in result.points] == list(range(5, 51))

    def test_interior_minimum_then_divergence_at_high_loss(self):
        result = curve(0.3, 1, 200)
        deltas = [p.delta_phi for p in result.points]
        best = int(np.argmin(deltas))
        assert 0 < best < len(deltas) - 1
        assert all(a < b for a, b in zip(deltas[best:], deltas[best + 1 :]))
        assert result.n_opt == result.points[best].n

    def test_never_beats_lossless_bound(self):
        for loss in (0.0, 1e-3, 0.1, 0.5):
            for p in curve(loss, 1, 120).points:
                assert p.delta_phi >= p.heisenberg - 1e-9

    def test_deterministic(self):
        assert curve(0.17, 1, 60) == curve(0.17, 1, 60)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            curve(0.1, 0, 10)
        with pytest.raises(ValueError):
            curve(0.1, 20, 10)

    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            curve(1.0, 1, 10)


class TestFindNOpt:
    def test_lossless_has_no_interior_optimum(self):
        assert find_n_opt(0.0, 200) is None

    def test_moderate_loss(self):
        n_opt = find_n_opt(0.3, 200)
        assert n_opt is not None
        assert find_n_opt(0.3, 200) == n_opt  # deterministic

    def test_ordering_between_small_and_moderate_loss(self):
        assert find_n_opt(0.3, 500) < find_n_opt(1e-3, 500)

    def test_boundary_reported_as_none(self):
        # at tiny loss the optimum sits beyond a short scan
        assert find_n_opt(1e-4, 10) is None


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

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            nopt_vs_loss([0.3, 0.1], 100)


class TestFindSubshotBound:
    def test_lossless_region_reaches_scan_top(self):
        # sub-shot noise from N = 7 on (tan(pi/(N+2)) exceeds 1/sqrt(N) below
        # that), and the region never closes, so no crossing is in range
        result = curve(0.0, 1, 100)
        sub = [p.n for p in result.points if p.delta_phi < p.shot_noise]
        assert sub == list(range(7, 101))
        assert result.n_subshot_max is None

    def test_small_loss_has_finite_bound(self):
        bound = find_subshot_bound(1e-3, 500)
        assert bound is not None
        assert 1 < bound < 500

    def test_bound_grows_as_loss_shrinks(self):
        low = find_subshot_bound(5e-4, 500)
        high = find_subshot_bound(2e-3, 500)
        assert low is not None and high is not None
        assert low >= high

    def test_none_when_nothing_subshot(self):
        result = curve(0.3, 1, 500)
        assert all(p.delta_phi >= p.shot_noise for p in result.points)
        assert result.n_subshot_max is None


class TestLandmarkSearch:
    def test_tie_goes_to_smaller_n(self):
        points = hand_points([0.9, 0.5, 0.7, 0.5, 0.8], [1.0] * 5)
        assert _locate_n_opt(points, 5) == 2

    def test_subshot_stretch_starts_at_lowest_subshot_point(self):
        # the global minimum (N = 5) is above shot noise, so the stretch runs
        # right from N = 2, the lowest point below it, and ends at N = 3
        points = hand_points([0.8, 0.4, 0.5, 0.6, 0.3], [0.9, 0.5, 0.6, 0.5, 0.2])
        assert _locate_n_opt(points, 5) is None
        assert _locate_subshot_max(points, 5) == 3

    def test_subshot_stretch_reaching_scan_top_is_none(self):
        points = hand_points([0.8, 0.4, 0.5], [0.9, 0.5, 0.6])
        assert _locate_subshot_max(points, 3) is None
