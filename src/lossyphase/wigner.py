"""Rotation (Wigner small-d) matrix elements, stable at large spin.

No production path calls it (the loss channel builds its binomial column
directly in the loss module), and acceptance criterion 3 checks against
``oracle.bs_unitary``; it stays because ``bench/`` traces ``d_element``.

Elements d^j_{a,b}(theta) are evaluated through the Jacobi-polynomial form,
with the four index symmetries used to push the polynomial parameters into
the nonnegative range and the factorial prefactor taken in the log domain.
The convention is the standard one, d^j_{a,b}(theta) = <j,a| e^{-i theta Jy} |j,b>,
and is pinned, sign included, to the oracle module's matrix exponential.

Spin labels are passed doubled (2j, 2a, 2b) as plain ints, so half-integer
spins stay exact and no label ever touches floating point. All functions are
stateless and safe to call concurrently.
"""

from __future__ import annotations

import math

# exp() of the half log-prefactor overflows only past this point; switch the
# whole magnitude into the log domain there.
_LOG_PREFACTOR_DIRECT_LIMIT = 700.0


def jacobi_poly(n: int, alpha: int, beta: int, x: float) -> float:
    """Jacobi polynomial P_n^{(alpha,beta)}(x) by the three-term recurrence in n.

    The recurrence is used instead of the explicit sum because the sum
    cancels catastrophically at large degree. Parameters produced by the
    symmetry reduction in :func:`d_element` are always nonnegative integers,
    which is the domain this routine is meant for.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n == 0:
        return 1.0
    p_prev = 1.0
    p = (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2
    for m in range(2, n + 1):
        q = 2 * m + alpha + beta
        c_lead = 2 * m * (m + alpha + beta) * (q - 2)
        c_mid = (q - 1) * (q * (q - 2) * x + alpha * alpha - beta * beta)
        c_trail = 2 * (m + alpha - 1) * (m + beta - 1) * q
        p, p_prev = (c_mid * p - c_trail * p_prev) / c_lead, p
    return p


def d_element(j2: int, a2: int, b2: int, theta: float) -> float:
    """Rotation matrix element d^j_{a,b}(theta) from doubled labels 2j, 2a, 2b.

    a and b must lie in the ladder -j, -j+1, ..., j. The result satisfies
    |d| <= 1; at theta = 0 the identity d = delta_{a,b} holds exactly
    because the sin(theta/2) power and the degree-n polynomial at x = 1
    are both evaluated without rounding.
    """
    if j2 < 0:
        raise ValueError(f"2j must be nonnegative, got {j2}")
    if not (-j2 <= a2 <= j2) or (j2 - a2) % 2 != 0:
        raise ValueError(f"2a = {a2} outside the 2j = {j2} ladder")
    if not (-j2 <= b2 <= j2) or (j2 - b2) % 2 != 0:
        raise ValueError(f"2b = {b2} outside the 2j = {j2} ladder")

    # Map (a, b) onto the representative with A >= |B| using
    #   d_{a,b} = (-1)^{a-b} d_{b,a}  and  d_{a,b} = d_{-b,-a},
    # so the Jacobi parameters below come out nonnegative and the degree
    # j - A is the smallest of the four equivalent choices.
    if a2 >= abs(b2):
        big2, small2, sign = a2, b2, 1
    elif b2 >= abs(a2):
        big2, small2, sign = b2, a2, (-1) ** ((a2 - b2) // 2)
    elif -b2 >= abs(a2):
        big2, small2, sign = -b2, -a2, 1
    else:
        big2, small2, sign = -a2, -b2, (-1) ** ((a2 - b2) // 2)

    alpha = (big2 - small2) // 2
    beta = (big2 + small2) // 2
    degree = (j2 - big2) // 2
    if alpha % 2 == 1:
        sign = -sign

    half = 0.5 * theta
    s = math.sin(half)
    c = math.cos(half)
    x = max(-1.0, min(1.0, math.cos(theta)))

    # paired differences cancel exactly when big == small, keeping the
    # theta = 0 identity free of rounding
    log_pref = 0.5 * (
        (math.lgamma((j2 + big2) // 2 + 1) - math.lgamma((j2 + small2) // 2 + 1))
        + (math.lgamma((j2 - big2) // 2 + 1) - math.lgamma((j2 - small2) // 2 + 1))
    )
    if log_pref <= _LOG_PREFACTOR_DIRECT_LIMIT:
        magnitude = math.exp(log_pref) * s**alpha * c**beta
    elif (alpha > 0 and s == 0.0) or (beta > 0 and c == 0.0):
        magnitude = 0.0
    else:
        log_mag = log_pref
        if alpha > 0:
            log_mag += alpha * math.log(s)
        if beta > 0:
            log_mag += beta * math.log(abs(c))
        magnitude = math.exp(log_mag)
        if c < 0.0 and beta % 2 == 1:
            magnitude = -magnitude

    return sign * magnitude * jacobi_poly(degree, alpha, beta, x)
