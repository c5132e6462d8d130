import random
from fractions import Fraction

import pytest

from conftest import mat_identity, mat_inverse_T, mat_mul, rf_q_expand
from reglinked.qalgebra import (
    BiPoly, Q as q, QSeries, RationalFunction, RfMatrix, X as x,
    ExpressionSyntaxError, bipoly_div_exact, bipoly_gcd, parse_rational,
    poch_finite, poch_inf, pochhammer_inverse, product_series,
)


def rf(v):
    return RationalFunction._coerce(v)


# ---------------------------------------------------------------------------
# polynomials and rational functions
# ---------------------------------------------------------------------------

def test_bipoly_basics():
    p = (x + q) * (x - q)
    assert p == x**2 - q**2
    assert p.degree_x() == 2 and p.degree_q() == 2
    assert (x * 0).is_zero()
    assert BiPoly.const(3).constant_value() == 3


def test_rational_add_zero_identity():
    a = (x**2 + q) / (1 + q)
    assert a + RationalFunction.zero() == a


def test_difference_of_squares_reduces():
    assert (x**2 - q**2) / (x - q) == rf(x + q)


def test_prop_table_factor_expansion():
    lhs = x**3 * q**17 * (1 - x * q**6) * (1 - x * q**8)
    rhs = (x**3 * q**17 - x**4 * q**23 - x**4 * q**25 + x**5 * q**31)
    assert lhs == rhs


def test_reduction_canonical():
    # same function from different representations reduces identically
    a = ((x + q) * (1 + q**2)) / ((x - q) * (1 + q**2))
    b = (x + q) / (x - q)
    assert a == b
    # denominator sign is normalized
    c = (x + q) / rf(-1 * (x - q))
    assert c == -b


def test_gcd_and_exact_division():
    a = (x + q)**2 * (x - 1) * 6
    b = (x + q) * (x - 1)**2 * 4
    g = bipoly_gcd(a, b)
    assert g == 2 * (x + q) * (x - 1)
    assert bipoly_div_exact(a, g) == 3 * (x + q)
    with pytest.raises(ArithmeticError):
        bipoly_div_exact(x**2 + q, x + 1)


def test_shift_x_examples():
    assert rf(x).shift_x(2) == rf(x * q**2)
    a = (x**2 + x * q) / (1 + q**3)
    assert a.shift_x(3).shift_x(-3) == a
    assert (x**3 / q**7).shift_x(-2) == x**3 / q**13


def test_shift_x_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        a = _random_rf(rng)
        b = _random_rf(rng)
        k = rng.randint(-3, 3)
        assert (a * b).shift_x(k) == a.shift_x(k) * b.shift_x(k)
        assert (a + b).shift_x(k) == a.shift_x(k) + b.shift_x(k)


def _random_bipoly(rng, max_deg=2, max_coef=3):
    t = {}
    for _ in range(rng.randint(1, 4)):
        t[(rng.randint(0, max_deg), rng.randint(0, max_deg))] = \
            rng.randint(-max_coef, max_coef)
    return BiPoly(t)


def _random_rf(rng):
    num = _random_bipoly(rng)
    den = BiPoly()
    while den.is_zero():
        den = _random_bipoly(rng)
    return num / den


def test_ring_axioms_random():
    rng = random.Random(12345)
    for _ in range(40):
        a, b, c = (_random_rf(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rf(1) / RationalFunction.zero()
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x, BiPoly())


# ---------------------------------------------------------------------------
# matrices (the test-only product primitives in conftest)
# ---------------------------------------------------------------------------

def test_matrix_identities():
    p = RfMatrix([[x, 1 + q], [q**2, x * q]])
    eye = mat_identity(2)
    assert mat_mul(eye, p) == p
    t = RfMatrix([[1, 0, 0], [0, x, q + 1], [0, 0, 1]])
    assert mat_mul(t, mat_inverse_T(t)) == mat_identity(3)


def test_inverse_T_singular_pivot():
    t = RfMatrix([[1, 0], [0, 0]])
    with pytest.raises(ZeroDivisionError):
        mat_inverse_T(t)


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

def test_qseries_arithmetic_and_orders():
    a = QSeries([1, 2, 3], 2)
    b = QSeries([1, 1, 1, 1], 3)
    assert (a + b).order == 2
    assert (a * b).coeffs == [1, 3, 6]
    assert a.invert() * a == QSeries.one(2)
    with pytest.raises(ZeroDivisionError):
        QSeries([0, 1], 1).invert()


def test_empty_pochhammer_is_one():
    assert poch_finite(-1, 1, 1, 0, 8) == QSeries.one(8)


def test_pochhammer_inverse_mod14_class1():
    # oracle: brute-force count of partitions into parts = 2,3,4 mod 14
    allowed = {2, 3, 4, 10, 11, 12}

    def count(n, maxpart):
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(min(n, maxpart), 0, -1)
                   if k % 14 in allowed)

    got = pochhammer_inverse((2, 3, 4, 10, 11, 12), 14, 6)
    assert got.coeffs == [count(n, n) for n in range(7)]
    assert got.coeffs == [1, 0, 1, 1, 2, 1, 3]


@pytest.mark.parametrize("c0", [1, -1])
def test_invert_unit_constant_term_stays_int(c0):
    s = QSeries([c0, 3, -2, 0, 5, 1, 0, -7], 12)
    inv = s.invert()
    assert all(type(c) is int for c in inv.coeffs)
    assert s * inv == QSeries.one(12)


@pytest.mark.parametrize("coeffs", [
    [2, 1, 0, -1, 4],
    [-3, 0, 2, 1],
    [Fraction(2, 3), 1, -1],
    [1, Fraction(1, 2), 0, Fraction(-5, 7)],
    [-1, 2, Fraction(3, 4), 0, 1],
])
def test_invert_non_unit_or_fraction_coefficients(coeffs):
    s = QSeries(coeffs, 10)
    assert s * s.invert() == QSeries.one(10)


def test_invert_sparse_divisor():
    # 1/(1 - q^7) = 1 + q^7 + q^14 + ...
    got = (QSeries.one(30) - QSeries.monomial(1, 7, 30)).invert()
    assert got.coeffs == [1 if n % 7 == 0 else 0 for n in range(31)]


def test_invert_zero_constant_term():
    with pytest.raises(ZeroDivisionError):
        QSeries([0, 1, 1], 5).invert()


def test_euler_sum_equals_inverse_product_at_q():
    # sum_n x^n/(q;q)_n = 1/(x;q)_inf at x = q, through q^10
    t = 10
    lhs = QSeries.zero(t)
    for n in range(t + 1):
        lhs = lhs + QSeries.monomial(1, n, t) * poch_finite(-1, 1, 1, n, t).invert()
    rhs = poch_inf(-1, 1, 1, t).invert()
    assert lhs == rhs


def test_rf_expand_commutes_with_arithmetic():
    rng = random.Random(99)
    t = 12
    for _ in range(20):
        a = _random_q_only_rf(rng)
        b = _random_q_only_rf(rng)
        assert rf_q_expand(a, t) * rf_q_expand(b, t) == rf_q_expand(a * b, t)
        assert rf_q_expand(a, t) + rf_q_expand(b, t) == rf_q_expand(a + b, t)


def _random_q_only_rf(rng):
    num = BiPoly({(0, rng.randint(0, 3)): rng.randint(-3, 3) for _ in range(3)})
    den = BiPoly({(0, 0): rng.choice([1, 2, -1])})
    for _ in range(2):
        den = den + BiPoly({(0, rng.randint(1, 3)): rng.randint(-2, 2)})
    return num / den


def test_product_series_drops_high_factors():
    # factors beyond the truncation are 1 + O(q^(T+1))
    a = product_series([(1, 3), (1, 99)], 8)
    b = product_series([(1, 3)], 8)
    assert a == b


def test_series_rendering():
    s = QSeries([1, 0, 1, 1, 2], 4)
    assert str(s) == "1 + q^2 + q^3 + 2*q^4"
    assert str(QSeries.zero(3)) == "0"
    assert str(QSeries([-3, 0, 1], 2)) == "-3 + q^2"
    assert str(QSeries([0, -1, 0, -2], 3)) == "-q - 2*q^3"
    assert str(QSeries([0, 1], 1)) == "q"
    assert str(QSeries([0, 2], 1)) == "2*q"
    assert str(QSeries([0, -1], 1)) == "-q"
    assert str(QSeries([0, -2], 1)) == "-2*q"
    assert str(QSeries([1, Fraction(-1, 2)], 1)) == "1 - 1/2*q"
    # the x-free polynomial with the same coefficients renders the same
    rng = random.Random(233)
    for _ in range(60):
        coeffs = [rng.choice([0, 0, 1, -1, 2, -7]) for _ in range(rng.randint(1, 8))]
        poly = BiPoly({(0, j): c for j, c in enumerate(coeffs) if c})
        assert str(QSeries(coeffs, len(coeffs) - 1)) == str(poly), coeffs


# ---------------------------------------------------------------------------
# parser round-trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [
    rf(1),
    -1 - x * (q**2 + q**3 + q**4),
    x**2 * q**6 * (-1 + x * q**4 * (1 + q + q**2 - q**5)),
    (x**2 - x**3) / q**2,
    q**3 / (x - BiPoly.const(1)),
    RationalFunction(1, q),
])
def test_parse_rational_round_trip(value):
    assert parse_rational(str(value)) == rf(value)


def test_parse_rational_errors():
    with pytest.raises(ExpressionSyntaxError):
        parse_rational("x +")
    with pytest.raises(ExpressionSyntaxError):
        parse_rational("y + 1")
