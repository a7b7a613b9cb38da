"""Minimum-detectable-phase curves over photon number and their landmarks.

Every curve point is the sharpness S and its defect 1 - S of the sine state
in closed form, a few dozen floating-point operations with ``math`` over
Python floats: no amplitudes, no sum over the photon split. ``curve``
evaluates delta-phi = sqrt((1-S)(1+S))/S at every N of its range, in memory
O(n_max); ``nopt_vs_loss`` reads only the at most 2 ceil(log2(n_max)) points
per loss that its bisection for ``n_opt`` needs (below). ``_sine_sharpness``
treats every point on its own, so a point has the same bits either way.
``povm._sharpness_kernel`` reads the same S, M and M - S off the
``PhaseDistribution`` of any amplitudes and stays the reference the tests
hold this form to. ``curve`` returns its scan column by
column, one tuple each for N, delta-phi and the two reference lines, in a
named tuple (``SweepResult``), so no object is built per point.
``sine_density`` and ``sine_mass`` give the ``dist`` command the phase
distribution P(phi) of one sine state, an iterator over the whole turn that
holds only the half turn, and its integral M in closed form too. The module
imports no numpy: ``curve``, ``nopt`` and ``dist`` run on the standard library
alone, and their values do not depend on the CPU features numpy's SIMD
kernels would pick.

With m = N + 2, a = pi/m and q = 1 - L, the sine state has
g_t = sqrt(2/m) sin((t+1)a) q^(t/2). Since sin((t+1)a) vanishes at t = -1 and
t = N + 1 and flips sign under t -> t + m, the terms of the infinite sums
sum_t g_t g_{t-1} and sum_t g_t^2 past t = N are the whole sums' terms again,
times q^m; each finite sum is the geometric infinite sum times 1 - q^m. With
R = (1 - q^m)/(1 - q) and D = L^2 + 4q sin^2 a (both positive):

    S = (4/m) sqrt(q) cos(a) sin^2(a) R / D
    M = sum g^2 = (2/m) (1 + q) sin^2(a) R / D
    M - S = (2/m) sin^2(a) R [(1 - sqrt q)^2 + 4 sqrt(q) sin^2(a/2)] / D

Raw, 1 - S = (1 - M) + (M - S), a sum of nonnegative parts. Normalized, R/D
cancels: S/M = 2 sqrt(q) cos(a) / (1 + q) and 1 - S/M = (M - S)/M. Every
quantity keeps about 15 digits (within 2e-15 of 50-digit mpmath); see
``_sine_sharpness`` for 1 - M. The results are deterministic for identical
inputs.

``curve`` and ``nopt_vs_loss`` locate ``n_opt`` by one search,
``_first_minimum``: ``curve`` on the delta-phi column it publishes,
``nopt_vs_loss`` on the raw delta-phi of only the points it reads, bitwise the
column's. It finds the row's first minimum (None at n_max) whenever the row
falls strictly and then never falls again. Ranking by 1 - S instead fails near
total loss: once S drops below about 1e-13 the rounding of 1 - S outranks S
(903 for 1 at L = 0.9999999999999992, n_max 3318). Normalized,
S/M = 2 sqrt(q) cos(pi/m) / (2 - L) rises strictly with m, so delta-phi =
sqrt(1 - (S/M)^2)/(S/M) falls strictly and ``n_opt`` is None at every loss,
short of ties between neighbouring floats; a test holds the normalized column
to never rising. Raw, delta-phi^2 ~ pi^2/m^2 + L N to first order in L, which
has a single minimum, but that the closed form turns exactly once is not
derived: it rests on the tests that hold the search to an independent full
scan over hypothesis-drawn losses in [0, 1), near one included, and n_max up
to 4096.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import namedtuple

from .core import (_check_cap, _check_integer, _check_loss_grid, _check_phase_samples,
                   _check_photon_number, _holevo_spread, channel_from_loss)

DEFAULT_MAX_PHOTONS = 1000

# Taylor coefficients 1/(k+2)! of (e^{-u} - 1 + u)/u^2 in powers of -u; 17
# terms leave a remainder below 1/19! < 1e-17 of the sum for u < 1.
_PHI_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(17))


class CurvePoint(namedtuple("CurvePoint", "n delta_phi shot_noise heisenberg")):
    """One photon number (an int) with its phase uncertainty and the two reference lines."""

    __slots__ = ()


class SweepResult(namedtuple("SweepResult",
                             "loss n delta_phi shot_noise heisenberg n_opt n_subshot_max")):
    """A scanned curve, column by column, plus the located optimum and sub-shot-noise edge.

    ``n`` (ints), ``delta_phi``, ``shot_noise`` and ``heisenberg`` are
    tuples with one entry per scanned photon number, in ascending order;
    ``np.asarray`` turns any of them into an array. ``n_opt`` and
    ``n_subshot_max`` are None when the feature is not pinned down inside the
    scanned range (minimum still falling at the top of the scan, or no
    sub-shot-noise point at all). A named tuple, so the fields are read-only.
    """

    __slots__ = ()

    @property
    def points(self) -> tuple:
        """The columns as one ``CurvePoint`` per photon number, built at each read.

        Nothing in the package reads it; the benchmark's traced run counts a
        curve's points through it.
        """
        return tuple(map(CurvePoint, self.n, self.delta_phi, self.shot_noise, self.heisenberg))


def _phi_over_square(x: float, lost: float) -> float:
    """(e^{-u} - 1 + u)/u^2 at u = -x >= 0, given lost = expm1(x).

    Its series below u = 1, where e^{-u} - 1 + u would cancel, by Horner's
    rule written out (a loop over the coefficients takes twice as long); above,
    the closed form loses nothing.
    """
    if x <= -1.0:
        return (lost - x) / (x * x)
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15, c16 = _PHI_SERIES
    acc = ((((c16 * x + c15) * x + c14) * x + c13) * x + c12) * x + c11
    acc = ((((acc * x + c10) * x + c9) * x + c8) * x + c7) * x + c6
    acc = ((((acc * x + c5) * x + c4) * x + c3) * x + c2) * x + c1
    return acc * x + c0


def _sine_sharpness(loss: float, normalized: bool):
    """``point(n) -> (S, 1 - S, M)`` of the sine state at one loss, for any photon number.

    M = sum g^2 is the integral of P(phi); normalized, S is S/M and M is 1.
    The constants of the loss are formed once, here; ``point`` forms m = N + 2,
    a = pi/m and the sines and cosine of its own N, so a point has the same
    bits whichever other points are read.

    The closed form of the module docstring, in lambda = -log1p(-L) so that
    1 - q^m = -expm1(-m lambda) and 1 - sqrt(q) = -expm1(-lambda/2) keep their
    digits at small L. Where M >= 2/3 the difference 1 - M would cancel, so it
    is formed as [L^2 + sin^2(a) lambda B] / D with phi(u) = e^{-u} - 1 + u and

        lambda B = (4/m)(phi(m lambda) - m phi(lambda))/L - 4L + (2/m)(1 - q^m),

    where phi(u) = u^2 (phi(u)/u^2) lets lambda factor out of B, so nothing
    underflows down to L = 5e-324 and 1 - M stays nonnegative. Below 2/3 the
    subtraction 1 - M at most doubles M's rounding and is used as it is.
    Every product and sum is taken in the order the formulas are written; a
    negation moved onto a factor (x = m * -lambda for -(m lambda)) is exact.
    Each square of ``point`` is a product, as ``x ** 2`` calls pow, which
    differs from ``x * x`` in the last bit at some N. ``near_0`` keeps the pow
    the published bits were made with: at the 1 loss in 1300 where the two
    differ, neither is the nearer to 40-digit mpmath on every row.
    """
    rate = -math.log1p(-loss)
    root_q = math.sqrt(1.0 - loss)
    near_0 = math.expm1(-0.5 * rate) ** 2
    near_1 = 4.0 * root_q
    cos_scale = 2.0 * root_q
    mass_scale = 2.0 - loss
    pi, sin, cos = math.pi, math.sin, math.cos
    if normalized:
        def point(n):
            a = pi / (n + 2.0)
            half = sin(0.5 * a)
            defect = (near_0 + near_1 * half * half) / mass_scale
            return cos_scale * cos(a) / mass_scale, defect, 1.0
        return point
    # R = kept * ratio with kept = (1 - q^m)/lambda and ratio = lambda/L, whose
    # limits at L = 0 are m and 1
    lossless = loss == 0.0
    ratio = 1.0 if lossless else rate / loss
    square = loss * loss
    sin2_scale = 4.0 * (1.0 - loss)
    phi_rate = _phi_over_square(-rate, math.expm1(-rate))
    bracket_1 = 4.0 * ratio
    bracket_2 = 4.0 / ratio
    expm1, phi_over_square, neg_rate = math.expm1, _phi_over_square, -rate

    def point(n):
        m = n + 2.0
        a = pi / m
        s = sin(a)
        sin2 = s * s
        two_m = 2.0 / m
        x = m * neg_rate
        lost = expm1(x)
        kept = m if lossless else lost / neg_rate
        denom = square + sin2_scale * sin2
        base = two_m * sin2 * (kept * ratio) / denom
        mass = mass_scale * base
        if mass < 2.0 / 3.0:
            unkept = 1.0 - mass
        else:
            bracket = bracket_1 * (m * phi_over_square(x, lost) - phi_rate) - bracket_2 + two_m * kept
            unkept = (square + sin2 * (rate * bracket)) / denom
        half = sin(0.5 * a)
        return cos_scale * cos(a) * base, unkept + (near_0 + near_1 * half * half) * base, mass
    return point


def sine_mass(loss: float, n: int) -> float:
    """M = sum g^2 of the N-photon sine state, the integral of its P(phi) over a turn.

    The closed form of the module docstring, as ``_sine_sharpness`` forms it.
    """
    n = _check_photon_number(n)
    return _sine_sharpness(channel_from_loss(loss), False)(n)[2]


def sine_density(loss: float, n: int, samples: int):
    """P(phi_k) of the N-photon sine state at phi_k = 2 pi k / samples, k = 0..samples - 1.

    An iterator over the whole turn: the half turn k <= samples/2 is computed
    into an ``array('d')``, and the rest is read back as its mirror image,
    P(phi_{samples - k}) = P(phi_k). With r = sqrt(q) the two geometric sums
    of the amplitude give

        P = sin^2(a) [(1 - r^m)^2 + 4 r^m cos^2(m phi/2)] / (pi m D+ D-),
        D+- = (1 - r)^2 + 4r sin^2((phi +- a)/2),

    every part a sum of nonnegative terms, with r, 1 - r, r^m and 1 - r^m from
    exp and expm1 of log r = log1p(-L)/2. Each angle is reduced over the
    integers before ``math.sin`` sees it: (phi_k +- a)/2 = pi u/(2 S m) with
    u = 2km +- S taken mod 2Sm and folded into [0, pi/2], and cos^2(m phi_k/2)
    = sin^2(pi |S - 2j|/(2S)) with j = km mod S. So every value keeps about
    15 digits (within 2e-15 relative of 40-digit mpmath), tails included. On
    the half turn only phi = +a can meet a pole (u = 2km + S lies in [S, S(m+1)],
    never 0 mod 2Sm): there cos(m phi/2) is 0 and D- is (1 - r)^2 alone, so P
    holds (1 - r^m)^2/(1 - r)^2: 0/0 at L = 0, and both squares underflow
    below about L = 1e-161. There P is taken as sin^2(a) R^2 / (pi m D+) with
    R = (1 - r^m)/(1 - r) (m where 1 - r is 0), m/(4 pi) at L = 0.

    The photon number passes the rule of ``core`` that ``optimal_amplitudes``
    calls, and ``samples`` the Nyquist guard 4(N+1) that
    ``PhaseDistribution.evaluate`` calls, so ``dist`` refuses what the FFT
    refuses; the closed form itself needs no guard.
    """
    n = _check_photon_number(n)
    samples = _check_phase_samples(samples, n)
    m = n + 2
    log_r = 0.5 * math.log1p(-channel_from_loss(loss))
    one_minus_r = -math.expm1(log_r)
    one_minus_rm = -math.expm1(m * log_r)
    near = one_minus_r * one_minus_r
    four_r = 4.0 * math.exp(log_r)
    top = one_minus_rm * one_minus_rm
    four_rm = 4.0 * math.exp(m * log_r)
    sin_a = math.sin(math.pi / m)
    scale = sin_a * sin_a / (math.pi * m)
    ratio = m if one_minus_r == 0.0 else one_minus_rm / one_minus_r
    pole = scale * (ratio * ratio)
    # the integers 2km +- S, km mod S and their folds are held as floats, which
    # is exact below 2**53 (here below 2**34); float arithmetic allocates no
    # Python ints, a third of the loop's time
    size = float(samples)
    turn = 2.0 * size * m
    half_turn = size * m
    side_step = math.pi / turn
    node_step = math.pi / (2.0 * size)
    sin = math.sin
    half = array("d")
    append = half.append
    km = 0.0
    for _ in range(samples // 2 + 1):
        plus = (2.0 * km + size) % turn
        minus = (2.0 * km - size) % turn
        if plus > half_turn:
            plus = turn - plus
        if minus > half_turn:
            minus = turn - minus
        s_plus = sin(plus * side_step)
        s_minus = sin(minus * side_step)
        d_plus = near + four_r * (s_plus * s_plus)
        d_minus = near + four_r * (s_minus * s_minus)
        if minus == 0.0:
            append(pole / d_plus)
        else:
            c = sin(abs(size - 2.0 * (km % size)) * node_step)
            append(scale * (top + four_rm * (c * c)) / (d_plus * d_minus))
        km += m
    return itertools.chain(half, (half[k] for k in range((samples - 1) // 2, 0, -1)))


def curve(
    loss: float,
    n_min: int = 1,
    n_max: int = DEFAULT_MAX_PHOTONS,
    normalized: bool = False,
) -> SweepResult:
    """Scan delta-phi over every integer photon number in [n_min, n_max].

    Divergent points are carried through as explicit infinities; no photon
    number is ever dropped from the scan. Both bounds' integer type, then the
    range, then the cap on n_max, and the loss are checked before any point. The
    result holds one tuple per column; ``heisenberg`` is ``math.tan(pi/(N+2))``.
    ``n_opt`` is ``_first_minimum`` of the delta-phi column: its first minimum
    wherever the row falls and then never falls again, which is tested, not
    derived (module docstring). ``n_subshot_max`` is read off the whole columns.
    """
    n_min, n_max = _check_integer(n_min, "n_min"), _check_integer(n_max, "photon number")
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}:{n_max}")
    _check_cap(n_max)
    loss = channel_from_loss(loss)
    n = tuple(range(n_min, n_max + 1))
    delta_phi = tuple([_holevo_spread(sharp, defect)[1]
                       for sharp, defect, _ in map(_sine_sharpness(loss, normalized), n)])
    shot_noise = tuple([1.0 / math.sqrt(k) for k in n])
    return SweepResult(
        loss=loss,
        n=n,
        delta_phi=delta_phi,
        shot_noise=shot_noise,
        heisenberg=tuple([math.tan(math.pi / (k + 2.0)) for k in n]),
        n_opt=_first_minimum(lambda k: delta_phi[k - n_min], n_min, n_max),
        n_subshot_max=_locate_subshot_max(delta_phi, shot_noise, n_min),
    )


def _first_minimum(value, n_min: int, n_max: int) -> int | None:
    """The first N in n_min..n_max with value(N) <= value(N + 1), by bisection; None when it is n_max.

    It reads at most 2 ceil(log2(n_max - n_min + 1)) values. On a row that
    falls strictly and then never falls again, N is the first minimum; on any
    other row, the local minimum the halving brackets.
    """
    lo, hi = n_min, n_max
    while lo < hi:
        mid = (lo + hi) // 2
        if value(mid) <= value(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    return None if lo == n_max else lo


def _locate_subshot_max(delta_phi, shot_noise, n_min: int) -> int | None:
    # Reads the columns whole, assuming no unimodality. The stretch runs right
    # from the lowest sub-shot-noise point, which is the curve's minimum
    # whenever that minimum beats shot noise.
    below = [i for i, (d, s) in enumerate(zip(delta_phi, shot_noise)) if d < s]
    if not below:
        return None
    start = min(below, key=delta_phi.__getitem__)
    for i in range(start + 1, len(delta_phi)):
        if not delta_phi[i] < shot_noise[i]:
            return n_min + i - 1
    return None


def nopt_vs_loss(loss_grid, n_max: int = DEFAULT_MAX_PHOTONS) -> list:
    """(loss, n_opt) pairs over a non-descending grid of loss values, one per grid value.

    A repeated value gets its row each time. ``n_opt`` is ``curve(loss, 1,
    n_max).n_opt``, by the same search over the points it reads (module
    docstring); the sub-shot-noise edge is not located.
    ``n_max`` passes the photon-number rule, then the grid's order and every
    loss are checked, all before any point.
    """
    n_max = _check_photon_number(n_max, "n-max")
    pairs = []
    for loss in _check_loss_grid(loss_grid):
        point = _sine_sharpness(loss, False)
        pairs.append((loss, _first_minimum(lambda n: _holevo_spread(*point(n)[:2])[1], 1, n_max)))
    return pairs
