"""Rotation elements read off the oracle, against the Jacobi form and the exponential.

``d_element`` reads e^{i theta Jx} from ``oracle.bs_unitary``; the Jacobi
recurrence below is an independent textbook route to the same elements, and
is itself checked against the explicit finite sum.
"""

import math

import numpy as np
import pytest

from lossyphase.oracle import bs_unitary
from lossyphase.wigner import d_element

THETAS = (0.1, 0.7, math.pi / 2, 2.5)


def jacobi_poly(n, alpha, beta, x):
    """Jacobi polynomial P_n^{(alpha,beta)}(x) by the three-term recurrence in n."""
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


def explicit_jacobi(n, alpha, beta, x):
    """Finite-sum expansion of the Jacobi polynomial, exact for small degree."""
    total = 0.0
    for s in range(n + 1):
        total += (
            math.comb(n + alpha, n - s)
            * math.comb(n + beta, s)
            * ((x - 1) / 2) ** s
            * ((x + 1) / 2) ** (n - s)
        )
    return total


def jacobi_d(j2, a2, b2, theta):
    """d^j_{a,b}(theta) for a >= |b| by the Jacobi form, with (-1)^(a-b) for this convention."""
    j_plus_a, j_minus_a = (j2 + a2) // 2, (j2 - a2) // 2
    j_plus_b, j_minus_b = (j2 + b2) // 2, (j2 - b2) // 2
    alpha, beta = (a2 - b2) // 2, (a2 + b2) // 2
    prefactor = math.sqrt(
        math.factorial(j_plus_a) * math.factorial(j_minus_a)
        / (math.factorial(j_plus_b) * math.factorial(j_minus_b))
    )
    return (
        (-1) ** alpha * prefactor
        * math.sin(theta / 2) ** alpha * math.cos(theta / 2) ** beta
        * jacobi_poly(j_minus_a, alpha, beta, math.cos(theta))
    )


class TestJacobiPoly:
    @pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 2), (3, 1)])
    def test_degree_zero_is_one(self, alpha, beta):
        assert jacobi_poly(0, alpha, beta, 0.3) == 1.0

    @pytest.mark.parametrize("x", np.linspace(-1, 1, 7))
    def test_degree_one_legendre(self, x):
        assert jacobi_poly(1, 0, 0, float(x)) == pytest.approx(float(x), abs=1e-15)

    def test_degree_two_at_zero(self):
        # explicit expansion of P_2^{(1,1)} gives -3/4 at x = 0
        assert jacobi_poly(2, 1, 1, 0.0) == pytest.approx(-0.75, abs=1e-15)
        assert explicit_jacobi(2, 1, 1, 0.0) == pytest.approx(-0.75, abs=1e-15)

    @pytest.mark.parametrize("n", range(0, 9))
    @pytest.mark.parametrize("alpha,beta", [(0, 0), (0, 3), (2, 1), (4, 4)])
    def test_matches_explicit_sum(self, n, alpha, beta):
        for x in np.linspace(-1, 1, 9):
            assert jacobi_poly(n, alpha, beta, float(x)) == pytest.approx(
                explicit_jacobi(n, alpha, beta, float(x)), abs=1e-10
            )

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            jacobi_poly(-1, 0, 0, 0.0)


class TestDElement:
    def test_half_spin_diagonal(self):
        value = d_element(1, 1, 1, math.pi / 2)
        assert value == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
        # the signed off-diagonal pins the convention <j,a| e^{-i theta Jy} |j,b>
        assert d_element(1, 1, -1, math.pi / 2) == pytest.approx(-math.sin(math.pi / 4), abs=1e-15)

    @pytest.mark.parametrize("j2", range(0, 13))
    def test_identity_at_zero_is_exact(self, j2):
        for a2 in range(-j2, j2 + 1, 2):
            for b2 in range(-j2, j2 + 1, 2):
                expected = 1.0 if a2 == b2 else 0.0
                assert d_element(j2, a2, b2, 0.0) == expected

    def test_corner_identity_at_cos2_07(self):
        # at cos^2(theta/2) = 0.7 the k = 1 corner element equals 0.7
        theta = 2 * math.acos(math.sqrt(0.7))
        assert d_element(2, 2, 2, theta) == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("k2", range(0, 25))
    @pytest.mark.parametrize("theta", THETAS)
    def test_corner_identity(self, k2, theta):
        assert d_element(k2, k2, k2, theta) == pytest.approx(
            math.cos(theta / 2) ** k2, abs=1e-12
        )

    @pytest.mark.parametrize("j2", range(0, 25))
    @pytest.mark.parametrize("theta", THETAS)
    def test_row_normalization(self, j2, theta):
        for a2 in range(-j2, j2 + 1, 2):
            total = sum(
                d_element(j2, a2, b2, theta) ** 2
                for b2 in range(-j2, j2 + 1, 2)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("j2", range(0, 25))
    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_jacobi_form(self, j2, theta):
        # the wedge a >= |b|; transpose symmetry and d_{a,b} = d_{-b,-a} give the rest
        for a2 in range(-j2, j2 + 1, 2):
            for b2 in range(-a2, a2 + 1, 2):
                assert d_element(j2, a2, b2, theta) == pytest.approx(
                    jacobi_d(j2, a2, b2, theta), abs=1e-12
                )
                assert d_element(j2, -b2, -a2, theta) == pytest.approx(
                    d_element(j2, a2, b2, theta), abs=1e-12
                )

    @pytest.mark.parametrize("j2", range(0, 13))
    @pytest.mark.parametrize("theta", THETAS)
    def test_transpose_symmetry(self, j2, theta):
        # each unordered pair once; the diagonal holds trivially
        for a2 in range(-j2, j2 + 1, 2):
            for b2 in range(a2 + 2, j2 + 1, 2):
                sign = (-1) ** ((a2 - b2) // 2)
                assert d_element(j2, a2, b2, theta) == pytest.approx(
                    sign * d_element(j2, b2, a2, theta),
                    abs=1e-10,
                )

    @pytest.mark.parametrize("j2", range(0, 13))
    @pytest.mark.parametrize("theta", THETAS)
    def test_signed_agreement_with_matrix_exponential(self, j2, theta):
        # undoing the quarter-turn phase of e^{i theta Jx} entry-by-entry
        # must land on the real rotation element, sign included
        u = bs_unitary(j2, theta)
        for ia, a2 in enumerate(range(-j2, j2 + 1, 2)):
            for ib, b2 in enumerate(range(-j2, j2 + 1, 2)):
                recovered = (1j) ** ((a2 - b2) // 2 % 4) * u[ia, ib]
                assert abs(recovered.imag) < 1e-10
                assert d_element(j2, a2, b2, theta) == pytest.approx(
                    recovered.real, abs=1e-8
                )

    def test_magnitude_bounded_by_one(self):
        for j2 in range(0, 17):
            for theta in THETAS:
                for a2 in range(-j2, j2 + 1, 2):
                    for b2 in range(-j2, j2 + 1, 2):
                        assert abs(d_element(j2, a2, b2, theta)) <= 1 + 1e-12

    def test_rejects_negative_spin(self):
        # refused by d_element itself, before the oracle sees 2j
        with pytest.raises(ValueError, match="2j must be nonnegative, got -1"):
            d_element(-1, 1, 1, 0.1)

    def test_rejects_out_of_range_projection(self):
        with pytest.raises(ValueError):
            d_element(2, 4, 0, 0.3)
        with pytest.raises(ValueError):
            d_element(2, 0, -4, 0.3)

    def test_rejects_wrong_parity(self):
        with pytest.raises(ValueError):
            d_element(2, 1, 0, 0.3)
