"""Rotation (Wigner small-d) elements, read off the oracle's splitter unitary.

d^j_{a,b}(theta) = <j,a| e^{-i theta Jy} |j,b> is the entry of e^{i theta Jx}
(``oracle.bs_unitary``) times the exact unit i^{a-b}. No package path calls it
(the loss module builds its own binomial column); ``bench/`` traces it by name.
Labels are doubled ints (2j, 2a, 2b), so half-integer spins stay exact; 2j <= 24.
"""

import functools

from .loss import _QUARTER_TURNS
from .oracle import bs_unitary

_unitary = functools.lru_cache(maxsize=64)(bs_unitary)


def d_element(j2: int, a2: int, b2: int, theta: float) -> float:
    """Rotation matrix element d^j_{a,b}(theta) from doubled labels 2j, 2a, 2b.

    a and b must lie in the ladder -j, -j+1, ..., j; 2j above 24 raises the
    oracle's ``ValueError``. The exponentials of the last 64 (2j, theta) are kept.
    """
    if j2 < 0:
        raise ValueError(f"2j must be nonnegative, got {j2}")
    if not (-j2 <= a2 <= j2) or (j2 - a2) % 2 != 0:
        raise ValueError(f"2a = {a2} outside the 2j = {j2} ladder")
    if not (-j2 <= b2 <= j2) or (j2 - b2) % 2 != 0:
        raise ValueError(f"2b = {b2} outside the 2j = {j2} ladder")
    entry = _unitary(j2, theta)[(j2 + a2) // 2, (j2 + b2) // 2]
    return float((_QUARTER_TURNS[(a2 - b2) // 2 % 4] * entry).real)
