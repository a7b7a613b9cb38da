"""Acceptance gate: every shipped-behavior criterion at its pinned tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure) and enforces its runtime budget.
"""

import contextlib
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lossyphase import (
    AmplitudeVector,
    curve,
    distribution,
    distribution_from_density,
    lossless_reference,
    nopt_vs_loss,
    optimal_amplitudes,
    phase_estimate,
    pure_lossy_state,
    reduced_density,
)
from lossyphase.oracle import bs_unitary, trace_out_explicit
from lossyphase.sweep import _sine_sharpness

from conftest import child_env


@contextlib.contextmanager
def criterion(num, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        print(
            f"[acceptance] criterion {num} FAIL: {description} "
            f"(runtime {elapsed:.2f}s over budget {budget}s)"
        )
        raise AssertionError(f"criterion {num} runtime {elapsed:.2f}s exceeds {budget}s")
    print(f"[acceptance] criterion {num} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_lossless_analytic_anchor():
    with criterion(1, "lossless pipeline reproduces tan^2(pi/(N+2)), N=1..100", budget=1.0):
        for n in range(1, 101):
            variance = phase_estimate(optimal_amplitudes(n), 0.0).holevo_variance
            assert variance == pytest.approx(lossless_reference(n), rel=1e-9)


def test_criterion_2_dual_path_equivalence():
    # the density path against the sharpness curve and nopt publish, which
    # shares no code with it
    with criterion(2, "published closed-form sharpness equals density-matrix path, N<=20",
                   budget=30.0):
        for n in range(1, 21):
            state = optimal_amplitudes(n)
            for loss in (0.0, 0.1, 0.3, 0.5):
                closed = _sine_sharpness(loss, False)(n)[0]
                extracted = distribution_from_density(reduced_density(state, loss)).fourier_sharpness()
                assert abs(closed - extracted) <= 1e-10


def test_criterion_3_loss_column_oracle():
    # the production loss column, signed, against the matrix-exponential
    # splitter: the branches of |t> are the conjugated last column of
    # e^{i theta Jx}, with 1 - L = cos^2(theta/2)
    with criterion(3, "lossy branches match matrix-exponential splitter, t<=12", budget=10.0):
        for t in range(0, 13):
            state = AmplitudeVector(np.eye(t + 1)[t])
            for theta in (0.1, 0.7, math.pi / 2, 2.5):
                branch = pure_lossy_state(state, math.sin(theta / 2) ** 2).coeffs[t]
                assert np.max(np.abs(branch - np.conj(bs_unitary(t, theta)[:, t]))) <= 1e-14
                assert abs(np.sum(np.abs(branch) ** 2) - 1.0) <= 1e-10


def test_criterion_4_density_matrix_physicality():
    with criterion(4, "reduced density is a physical state matching explicit trace, N<=10"):
        for n in range(1, 11):
            state = optimal_amplitudes(n)
            for loss in (0.1, 0.3, 0.7):
                rho = reduced_density(state, loss)
                assert abs(rho.trace() - 1.0) <= 1e-10
                explicit = trace_out_explicit(pure_lossy_state(state, loss))
                assert tuple(sorted(explicit)) == tuple(rho.factors)
                for ell in rho.factors:
                    block = rho.block(ell)
                    assert np.max(np.abs(block - block.T)) <= 1e-12
                    assert np.linalg.eigvalsh(block)[0] >= -1e-10
                    assert np.max(np.abs(block - explicit[ell])) <= 1e-12


def test_criterion_5_subnormalization_identity():
    with criterion(5, "integral of P equals sum psi^2 (1-L)^(j+mu), N<=20"):
        for n in range(1, 21):
            state = optimal_amplitudes(n)
            for loss in (0.0, 0.1, 0.3, 0.5, 0.7):
                mass = distribution(state, loss).total_mass()
                expected = float(np.sum(state.psi**2 * (1 - loss) ** np.arange(n + 1)))
                assert abs(mass - expected) <= 1e-10
        hand = distribution(optimal_amplitudes(1), 0.3).total_mass()
        assert abs(hand - 0.85) <= 1e-10


def test_criterion_6_curve_shape_properties():
    with criterion(6, "interior minimum at L=0.3; sub-shot-noise window at L=1e-3", budget=10.0):
        high = curve(0.3, 1, 500)
        deltas = np.asarray(high.delta_phi)
        best = int(np.argmin(deltas))
        assert 0 < best < len(deltas) - 1
        assert np.all(np.diff(deltas[best:]) > 0)

        def subshot(result):
            n, delta_phi, shot_noise = map(np.asarray, (result.n, result.delta_phi, result.shot_noise))
            return n[delta_phi < shot_noise].tolist()

        low = curve(1e-3, 1, 500)
        sub = subshot(low)
        assert sub
        assert sub == list(range(sub[0], sub[-1] + 1))  # contiguous
        assert low.n_subshot_max is not None

        # the sub-shot-noise bound shrinks with loss; at L=0.3 the curve
        # never dips below 1/sqrt(N) at all, which is strictly smaller
        # capability than the finite bound at L=1e-3
        high_sub = subshot(high)
        if high.n_subshot_max is None:
            assert not high_sub
        else:
            assert high.n_subshot_max < low.n_subshot_max


def test_criterion_7_n_opt_monotone_in_loss():
    with criterion(7, "N_opt non-increasing over 20 log-spaced losses in [1e-4, 0.5]", budget=60.0):
        grid = [float(x) for x in np.logspace(-4, math.log10(0.5), 20)]
        pairs = nopt_vs_loss(grid, 1000)
        opts = [n for _, n in pairs]
        assert all(n is not None for n in opts)
        assert all(a >= b for a, b in zip(opts, opts[1:]))


def test_criterion_8_cli_determinism_and_validation(tmp_path):
    with criterion(8, "CLI output byte-stable and analytic; validate exits 0"):
        cmd = [
            sys.executable, "-m", "lossyphase", "curve",
            "--loss", "0", "--n-range", "1:100",
        ]
        env = child_env()
        for name in ("first.csv", "second.csv"):
            run = subprocess.run(
                cmd + ["--out", str(tmp_path / name)],
                capture_output=True, text=True, cwd=tmp_path, env=env,
            )
            assert run.returncode == 0, run.stderr
        first = (tmp_path / "first.csv").read_bytes()
        second = (tmp_path / "second.csv").read_bytes()
        assert first == second

        rows = [
            line.split(",")
            for line in first.decode().splitlines()
            if line and not line.startswith("#") and not line.startswith("n,")
        ]
        assert len(rows) == 100
        for row in rows:
            n = int(row[0])
            expected = math.sqrt(lossless_reference(n))
            assert float(row[1]) == pytest.approx(expected, rel=1e-9)

        validate = subprocess.run(
            [sys.executable, "-m", "lossyphase", "validate"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert validate.returncode == 0, validate.stdout + validate.stderr
