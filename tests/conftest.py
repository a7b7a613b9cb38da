"""Helpers shared by the test modules."""

import functools
import os
import tracemalloc
from pathlib import Path

import mpmath

import lossyphase


def child_env() -> dict:
    """``os.environ`` with the directory of the package under test first on PYTHONPATH.

    The entry is an absolute path, so a child interpreter started in any
    working directory imports the same code as the tests (a relative
    ``PYTHONPATH=src`` would not resolve).
    """
    env = dict(os.environ)
    package_root = str(Path(lossyphase.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def traced_heap(call, *args):
    """(result, retained bytes, peak bytes) of ``call(*args)`` under tracemalloc, the result still held."""
    tracemalloc.start()
    try:
        result = call(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


@functools.lru_cache(maxsize=None)
def mp_sines(n):
    """sin((t+1) pi / (N+2)) for t = 0..N at 50 digits: psi times sqrt(N/2 + 1)."""
    with mpmath.workdps(50):
        return tuple(mpmath.sin((t + 1) * mpmath.pi / (n + 2)) for t in range(n + 1))


def mp_sine_profile(n, loss):
    """g_t = psi_t (1-L)^(t/2), t = 0..N, of the N-photon sine state at 50 digits."""
    with mpmath.workdps(50):
        root = mpmath.sqrt(1 - mpmath.mpf(loss))
        scale = mpmath.sqrt(mpmath.mpf(n) / 2 + 1)
        return tuple(x / scale * root**t for t, x in enumerate(mp_sines(n)))


@functools.lru_cache(maxsize=None)
def mp_sine_sums(n, loss):
    """(sum_t g_t g_{t-1}, sum_t g_t^2) of ``mp_sine_profile`` at 50 digits: the sharpness and the mass."""
    with mpmath.workdps(50):
        g = mp_sine_profile(n, loss)
        return mpmath.fsum(g[t] * g[t - 1] for t in range(1, n + 1)), mpmath.fsum(x * x for x in g)
