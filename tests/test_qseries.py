import random
from fractions import Fraction

import pytest

from conftest import GOLDEN_EQUATION
from reglinked.linked import series_from_system
from reglinked.murraymiller import QDifferenceEquation
from reglinked.partitions import count_all_class_series
from reglinked.qalgebra import (Q as q, QSeries, RationalFunction, X as x,
                                poch_finite)
from reglinked.qseries import (
    CLASS_ST, XSeries, closed_form_i, double_sum, equation_residual,
    euler_check, evaluate_x1, g_closed_form, g_equation, g_limit_check,
    h_equation, nandi_class_state, nandi_equation, nandi_product,
    remark_single_sum_check, slater_check, solve_equation, transform_chain,
    x_poch_even,
)


def rf(v):
    return RationalFunction._coerce(v)


def eq_of(coeffs, step=2):
    return QDifferenceEquation(step, tuple(rf(c) for c in coeffs))


# ---------------------------------------------------------------------------
# XSeries basics
# ---------------------------------------------------------------------------

def test_xseries_mul_div_round_trip():
    t = 15
    poch = x_poch_even(8, t)
    f = XSeries([poch_finite(-1, 1, 1, M, t) for M in range(9)])
    assert (f * poch) / poch == f
    assert (f / poch) * poch == f


def test_xseries_eval_x1():
    f = XSeries([QSeries([1, 1], 6), QSeries([0, 2], 6)])
    assert evaluate_x1(f, 6) == QSeries([1, 3, 0, 0, 0, 0, 0], 6)
    one = XSeries.one(4, 8)
    assert evaluate_x1(one, 8) == QSeries.one(8)


# ---------------------------------------------------------------------------
# the pipeline equations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [1, 2, 3])
def test_nandi_equation_matches_table(a):
    assert nandi_equation(a) == eq_of(GOLDEN_EQUATION[a])


def test_nandi_class_states():
    assert [nandi_class_state(a) for a in (1, 2, 3)] == [7, 3, 4]


# ---------------------------------------------------------------------------
# solving equations
# ---------------------------------------------------------------------------

def test_solve_constant_equation():
    F = solve_equation(eq_of([1, -1], step=1), 8, 12)
    assert F.coeffs[0] == QSeries.one(12)
    assert all(c.is_zero() for c in F.coeffs[1:])


def test_solve_distinct_parts_equation():
    # F(x) = (1 + x q) F(x q): f_M = q^(M(M+1)/2) / (q;q)_M
    F = solve_equation(eq_of([1, -(1 + x * q)], step=1), 5, 25)
    for M in range(6):
        want = (QSeries.monomial(1, M * (M + 1) // 2, 25)
                * poch_finite(-1, 1, 1, M, 25).invert())
        assert F.coeffs[M] == want


def test_solve_matches_system_series(nandi_system):
    F = solve_equation(nandi_equation(1), 10, 30)
    sym = series_from_system(nandi_system, 7, 30, x_value="symbolic")
    for M in range(11):
        want = sym[M] if M < len(sym) else QSeries.zero(30)
        assert F.coeffs[M] == want


def test_solve_residual_is_zero():
    for a in (1, 2, 3):
        F = solve_equation(nandi_equation(a), 12, 25)
        assert equation_residual(nandi_equation(a), F).is_zero()


def test_solve_rejects_inconsistent_leading_coefficient():
    with pytest.raises(ValueError):
        solve_equation(eq_of([1, -2], step=1), 4, 6)  # forces F(0) = 0
    with pytest.raises(ZeroDivisionError):
        # recurrence coefficient q(1 - q^M) is never a unit
        solve_equation(eq_of([rf(q), rf(-q)], step=1), 3, 5)


def test_evaluate_x1_examples():
    F = solve_equation(nandi_equation(1), 6, 6)
    assert evaluate_x1(F, 6).coeffs == [1, 0, 1, 1, 2, 1, 3]
    F2 = solve_equation(nandi_equation(2), 4, 4)
    assert evaluate_x1(F2, 4).coeffs == count_all_class_series(4)[2]


# ---------------------------------------------------------------------------
# transform chain
# ---------------------------------------------------------------------------

def test_transform_chain_closed_form():
    for a in (1, 2, 3):
        chain = transform_chain(a, 8, 30)
        assert chain.I.coeff(0) == QSeries.one(30)
        for M in range(7):
            assert chain.I.coeff(M) == closed_form_i(a, M, 30), (a, M)


def test_transform_chain_inverts():
    t, L = 30, 15
    for a in (1, 2, 3):
        s, _ = CLASS_ST[a]
        chain = transform_chain(a, L, t)
        poch = x_poch_even(L, t)
        H_back = chain.I / poch
        assert H_back == chain.H
        G_back = XSeries([H_back.coeffs[M] * poch_finite(1, 1 + s, 1, 2 * M, t)
                          for M in range(L + 1)])
        assert G_back == chain.G
        assert G_back * poch == chain.F


def test_g_equation_matches_worked_example():
    # the equation for G_1 after dividing out the infinite product
    r = g_equation(nandi_equation(1))
    want = [
        (1 - x) * (1 - x * q**2) * (1 - x * q**4),
        -(1 - x * q**2) * (1 - x * q**4) * (1 + x * q**2 + x * q**3 + x * q**4),
        x * q**4 * (1 - x * q**4) * (1 - x + x * q**3 + x * q**4 + x * q**5),
        -x**2 * q**6 * (1 - x * q**4 - x * q**5 - x * q**6 + x * q**9),
        x**3 * q**13 * (1 + q + q**2),
        x**3 * q**17,
    ]
    assert r == [rf(w) for w in want]


def test_worked_h_equation_residual():
    # the four-term equation for H_1
    chain = transform_chain(1, 12, 30)
    coeffs = [
        q * (1 - x) * (1 - x * q**2) * (1 - x * q**4),
        (1 - x * q**2) * (1 - x * q**4) * (1 + x * q**2),
        -q * (1 - x * q**4),
        rf(-1),
    ]
    heq = eq_of(coeffs)
    assert equation_residual(heq, chain.H).is_zero()


def test_worked_i_recurrences():
    # x-form: 0 = q I(x) + (1+x q^2) I(x q^2) - q I(x q^4) - I(x q^6)
    chain = transform_chain(1, 12, 30)
    ieq = eq_of([rf(q), 1 + x * q**2, rf(-q), rf(-1)])
    assert equation_residual(ieq, chain.I).is_zero()
    # coefficient recurrence: q(1-q^2M)(1+q^2M)(1+q^(2M-1)) i_M = -q^2M i_(M-1)
    t = 30
    for M in range(1, 9):
        lhs = (chain.I.coeff(M)
               * poch_finite(-1, 2 * M, 1, 1, t)          # (1 - q^2M)
               * poch_finite(1, 2 * M, 1, 1, t)           # (1 + q^2M)
               * poch_finite(1, 2 * M - 1, 1, 1, t)).shift(1)
        rhs = -chain.I.coeff(M - 1).shift(2 * M)
        assert lhs == rhs, M


def test_h_equation_general_construction():
    # the mechanical construction must hold for the other two classes too
    for a in (2, 3):
        s, _ = CLASS_ST[a]
        chain = transform_chain(a, 10, 25)
        coeffs = h_equation(g_equation(nandi_equation(a)), s, 2)
        heq = QDifferenceEquation(2, tuple(coeffs))
        assert equation_residual(heq, chain.H).is_zero()


# ---------------------------------------------------------------------------
# closed-form g and the limit
# ---------------------------------------------------------------------------

def test_g_closed_form_matches_chain():
    for a in (1, 2, 3):
        chain = transform_chain(a, 10, 20)
        for L in range(8):
            assert g_closed_form(a, L, 20) == chain.G.coeff(L), (a, L)


def test_g_limit_examples():
    got = g_limit_check(1, 30, 30)
    F = solve_equation(nandi_equation(1), 30, 30)
    assert got == evaluate_x1(F, 30)
    got2 = g_limit_check(2, 30, 30)
    assert got2 == nandi_product(2, 30)
    assert g_limit_check(3, 1, 0) == QSeries.one(0)


# ---------------------------------------------------------------------------
# double sum and classical identities
# ---------------------------------------------------------------------------

def test_double_sum_examples():
    assert double_sum(1, 4).coeffs == [1, 0, 1, 1, 2]
    assert double_sum(2, 0) == QSeries.one(0)
    assert double_sum(3, 30) == nandi_product(3, 30)


def test_euler_checks():
    assert euler_check("A", (1, 1), 20)
    assert euler_check("B", (0, 0), 10)
    assert euler_check("B", (1, 2), 25)
    assert euler_check("A", (-1, 2), 18)
    with pytest.raises(ValueError):
        euler_check("A", (1, 0), 10)


@pytest.mark.parametrize("bst", [(3, 0, 0), (1, 0, 1), (5, 1, 1)])
def test_slater_checks(bst):
    assert slater_check(bst, 40)
    assert slater_check(bst, 0)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_remark_single_sum(a):
    assert remark_single_sum_check(a, 30)
    assert remark_single_sum_check(a, 0)


def test_comparison_identity_on_random_polynomials():
    # B(x) = A(x)/(1-x) has partial sums of A as coefficients
    rng = random.Random(4)
    for _ in range(20):
        deg = rng.randint(0, 6)
        a = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for _ in range(deg + 1)]
        b = []
        for M in range(deg + 5):
            prev = b[M - 1] if M else 0
            b.append(prev + (a[M] if M <= deg else 0))
        for M in range(deg, deg + 5):
            assert sum(a[: M + 1]) == b[M]
        assert b[-1] == sum(a)


def test_product_equals_transfer_matrix_at_q100(nandi_system):
    for a in (1, 2, 3):
        assert (nandi_product(a, 100)
                == series_from_system(nandi_system, nandi_class_state(a), 100)), a


def test_grand_equality_small_order():
    t = 25
    counts = count_all_class_series(t)
    for a in (1, 2, 3):
        brute = QSeries(counts[a], t)
        prod = nandi_product(a, t)
        dsum = double_sum(a, t)
        solved = evaluate_x1(solve_equation(nandi_equation(a), t, t), t)
        assert brute == prod == dsum == solved
