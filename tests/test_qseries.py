import random
from fractions import Fraction

import pytest

from conftest import (GOLDEN_EQUATION, div_poch_full,
                      double_sum_by_whole_terms,
                      equation_residual_over_every_f,
                      euler_series_by_whole_terms, g_closed_form,
                      g_limit_check, h_equation_by_z_form,
                      mul_poch_full, quotient_from_the_bottom,
                      remark_single_sum_series_by_whole_terms,
                      slater_series_by_whole_terms, solve_equation_by_inverse,
                      solve_equation_over_every_f, x_poch_even, xseries_div,
                      xseries_mul)
from reglinked import qalgebra
from reglinked.linked import parse_spec_text, series_from_system
from reglinked.murraymiller import QDifferenceEquation, derive_equation
from reglinked.partitions import count_all_class_series
from reglinked.qalgebra import (BiPoly, Q as q, QSeries, RationalFunction,
                                X as x)
from reglinked.qseries import (
    CLASS_ST, XSeries, closed_form_i, double_sum, equation_residual,
    euler_check, euler_series, evaluate_x1, g_equation, h_equation,
    nandi_class_state, nandi_equation, nandi_product,
    remark_single_sum_check, remark_single_sum_series, slater_check,
    slater_series, solve_equation, transform_chain,
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
    f = XSeries([QSeries.one(t).mul_poch(-1, 1, 1, M) for M in range(9)])
    assert xseries_div(xseries_mul(f, poch), poch) == f
    assert xseries_mul(xseries_div(f, poch), poch) == f


def test_xseries_one_plus_x_factors_match_reference():
    # (x;q^2)_inf one factor at a time against the general product and
    # long division, on integer and Fraction coefficients
    rng = random.Random(14)
    for _ in range(30):
        L, t = rng.randint(0, 8), rng.randint(0, 20)
        f = XSeries([QSeries([rng.choice([0, 1, -2, 3, Fraction(1, 3)])
                              for _ in range(t + 1)], t) for _ in range(L + 1)])
        poch = x_poch_even(L, t)
        by_mul, by_div = f, f
        for e in range(0, t + 1, 2):
            by_mul = by_mul.mul_one_plus_x(-1, e)
            by_div = by_div.div_one_plus_x(-1, e)
        assert by_mul == xseries_mul(f, poch)
        assert by_div == xseries_div(f, poch)


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
                * QSeries.one(25).mul_poch(-1, 1, 1, M).invert())
        assert F.coeffs[M] == want


def test_solve_with_a_non_unit_lead_matches_the_inverse_route():
    # 3 F(x) = (3 + x q) F(x q): each lead 3 - 3 q^M has constant term 3,
    # so f_M = q^M f_(M-1) / (3 (1 - q^M)) divides in Fractions
    eq = eq_of([3, -(3 + x * q)], step=1)
    got = solve_equation(eq, 6, 20)
    assert got == solve_equation_by_inverse(eq, 6, 20)
    assert got.coeffs[2][3] == Fraction(1, 9)
    assert equation_residual(eq, got).is_zero()


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


M2_SPEC = """m: 2
alphabet: [0, 1, 2, 3, 4]
pi:
  0: []
  1: [1]
  2: [0, 1]
  3: [1, 1]
  4: [2]
forbidden_patterns: "{}"
"""


# two m = 2 specs, with 5 and 9 live states, whose triangularization runs
# long chains of gcds with large contents over Z[q]
@pytest.mark.parametrize("patterns", ["434U31U312U034U14",
                                      "423U323U410U441U421U132"])
def test_long_gcd_chain_specs_have_zero_residual(patterns):
    spec = parse_spec_text(M2_SPEC.format(patterns))
    state, system, _, _, eq = derive_equation(spec, spec.forbidden_prefixes)
    F = XSeries(series_from_system(system, state, 20, x_value="symbolic"))
    assert equation_residual(eq, F).is_zero()


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
        H_back = xseries_div(chain.I, poch)
        assert H_back == chain.H
        G_back = XSeries([H_back.coeffs[M]
                          * QSeries.one(t).mul_poch(1, 1 + s, 1, 2 * M)
                          for M in range(L + 1)])
        assert G_back == chain.G
        assert xseries_mul(G_back, poch) == chain.F


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
               * QSeries.one(t).mul_poch(-1, 2 * M, 1, 1)      # (1 - q^2M)
               * QSeries.one(t).mul_poch(1, 2 * M, 1, 1)       # (1 + q^2M)
               * QSeries.one(t).mul_poch(1, 2 * M - 1, 1, 1)).shift(1)
        rhs = -chain.I.coeff(M - 1).shift(2 * M)
        assert lhs == rhs, M


def _random_g_equation(rng):
    return [RationalFunction(BiPoly({(rng.randint(0, 3), rng.randint(0, 6)):
                                     rng.randint(-3, 3)
                                     for _ in range(rng.randint(0, 5))}))
            for _ in range(rng.randint(1, 5))]


def test_h_equation_matches_z_form_reference():
    cases = [(g_equation(nandi_equation(a)), CLASS_ST[a][0], 2) for a in (1, 2, 3)]
    rng = random.Random(2026)
    cases += [(_random_g_equation(rng), rng.randint(0, 1), rng.randint(1, 3))
              for _ in range(300)]
    for r_coeffs, s, step in cases:
        # equality of reduced rational functions compares every term
        assert h_equation(r_coeffs, s, step) == h_equation_by_z_form(
            r_coeffs, s, step)


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


# ---------------------------------------------------------------------------
# the term-ratio sums, the passes from the first nonzero coefficient and
# the recurrence from each f_M's first nonzero coefficient, against their
# from-scratch routes: equal coefficients of equal types
# ---------------------------------------------------------------------------

ORDERS = (0, 1, 2, 3, 5, 13, 40, 100)
SLATER = ((3, 0, 0), (1, 0, 1), (5, 1, 1))


def _typed(*series):
    return [[(type(c), c) for c in s.coeffs] for s in series]


def _typed_x(F):
    return _typed(*F.coeffs)


def _outcome(f, *args):
    try:
        return _typed(f(*args))
    except (ArithmeticError, ValueError) as e:
        return type(e)


@pytest.mark.parametrize("order", ORDERS)
def test_summed_routes_match_whole_term_references(order):
    for a in (1, 2, 3):
        assert _typed(double_sum(a, order)) == _typed(
            double_sum_by_whole_terms(a, order))
        assert _typed(*remark_single_sum_series(a, order)) == _typed(
            *remark_single_sum_series_by_whole_terms(a, order))
    for bst in SLATER:
        assert _typed(*slater_series(bst, order)) == _typed(
            *slater_series_by_whole_terms(bst, order))
    for which in "AB":
        for c in (0, 1, -1, 2, 3):
            for k in (1, 2, 3):
                assert _typed(*euler_series(which, (c, k), order)) == _typed(
                    *euler_series_by_whole_terms(which, (c, k), order)), (which, c, k)


def _random_leading_zeros(rng, order):
    lead = rng.randint(0, order + 1)
    zero = rng.choice((0, Fraction(0)))
    return QSeries([zero] * lead + [rng.choice((0, 1, -2, 3, Fraction(1, 3)))
                                    for _ in range(order + 1 - lead)], order)


def test_poch_passes_match_full_length_passes():
    rng = random.Random(20)
    cases = [(QSeries([0, 0, 1, 2], 3), -2, 0, 1, 1),        # 1 - 2 = -1
             (QSeries([0, 0, 1, 2], 3), Fraction(1, 2), 0, 1, 2),
             (QSeries([0, 0, 0, 5], 3), Fraction(-3, 2), 1, 1, 3),
             (QSeries([0, Fraction(0), 4], 2), 2, 1, 1, None),
             (QSeries.zero(6), 3, 2, 2, 3)]
    for _ in range(600):
        order = rng.choice(ORDERS[:7])
        start = rng.randint(0, 4)
        cases.append((_random_leading_zeros(rng, order),
                      rng.choice((1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2))),
                      start, rng.randint(1, 3),
                      rng.choice((0, 1, 2, 4, None if start else 3))))
    for s, c, start, step, n in cases:
        for method, full in (("mul_poch", mul_poch_full), ("div_poch", div_poch_full)):
            got = _outcome(getattr(s, method), c, start, step, n)
            assert got == _outcome(full, s, c, start, step, n), (s, method, c, start, step, n)


def test_quotient_from_the_first_nonzero_coefficient_matches_every_coefficient():
    # unit and other constant terms, int and Fraction divisor terms, and
    # dividends with int or Fraction leading zeros
    rng = random.Random(22)
    for _ in range(600):
        order = rng.choice(ORDERS[:7])
        a = _random_leading_zeros(rng, order)
        b = QSeries([rng.choice((1, -1, 2, -3, Fraction(1), Fraction(1, 2)))]
                    + [rng.choice((0, 0, 1, -2, Fraction(3, 2)))
                       for _ in range(rng.randint(0, order))], order)
        assert _outcome(a.__truediv__, b) == _outcome(quotient_from_the_bottom, a, b), (a, b)


def _random_equation(rng):
    """p_i = (a_i(q) + x-terms) / d(q) with sum_i a_i = 0, so that f_0 = 1
    is free, and a_0(0) != 0, so that every lead is invertible; a
    denominator d(0) = 2 makes the coefficients Fractions."""
    def q_poly(low):
        return BiPoly({(0, j): rng.randint(-2, 2) for j in range(low, rng.randint(low, 3))})

    shifts = rng.randint(1, 3)
    a = [q_poly(0) for _ in range(shifts)]
    if sum(p.terms.get((0, 0), 0) for p in a) == 0:
        a[0] = a[0] + BiPoly.const(1)
    a.insert(0, -sum(a, BiPoly()))
    den = rng.choice((BiPoly.const(1), BiPoly.const(1) - q, BiPoly.const(2) + q))
    coeffs = []
    for i, ai in enumerate(a):
        xs = BiPoly({(rng.randint(1, 2), rng.randint(0, 3)): rng.randint(-2, 2)
                     for _ in range(rng.randint(0, 2))})
        if i == shifts and (ai + xs).is_zero():
            xs = BiPoly.monomial(1, 1, 1)
        coeffs.append(RationalFunction(ai + xs, den))
    return QDifferenceEquation(rng.randint(1, 3), tuple(coeffs))


def test_recurrences_match_the_route_over_every_f():
    rng = random.Random(21)
    cases = [(nandi_equation(a), order) for a in (1, 2, 3) for order in ORDERS]
    cases += [(_random_equation(rng), rng.choice(ORDERS[:7])) for _ in range(20)]
    fractions = False
    for eq, order in cases:
        x_order = min(order, 40)
        F = solve_equation(eq, x_order, order)
        assert _typed_x(F) == _typed_x(solve_equation_over_every_f(eq, x_order, order))
        fractions |= any(type(c) is Fraction for f in F.coeffs for c in f.coeffs)
        # a series the equation does not solve, with int and Fraction zeros
        # before its first nonzero coefficients
        G = XSeries([_random_leading_zeros(rng, order) for _ in range(x_order + 1)])
        for H in (F, G):
            assert _typed_x(equation_residual(eq, H)) == _typed_x(
                equation_residual_over_every_f(eq, H))
    assert fractions


def test_summed_routes_make_a_linear_number_of_factor_passes(monkeypatch):
    # one pass per factor (1 + c q^e); a route that rebuilds each term's
    # whole denominator makes O(terms * order) of them
    passes = []
    inner = qalgebra._poch_exponents

    def counting(*args):
        exponents = inner(*args)
        passes.append(len(exponents))
        return exponents

    monkeypatch.setattr(qalgebra, "_poch_exponents", counting)

    def count(f, *args):
        passes.clear()
        f(*args)
        return sum(passes)

    order = 100
    for a in (1, 2, 3):
        s, t = CLASS_ST[a]
        terms = sum(1 for i in range(order + 1) for j in range(order + 1)
                    if i * (i - 1) // 2 + j * (j - 1) + 2 * i * j
                    + (1 + s) * i + (1 + 2 * t) * j <= order)
        assert count(double_sum, a, order) <= 2 * terms
    # the product side: one factor per exponent through q^order
    assert count(euler_series, "A", (1, 1), order) <= (order + 1) + 2 * order
    for b, s, t in SLATER:
        terms = sum(1 for n in range(order + 1) if n * (n + 2 * t) <= order)
        product = sum(len(range(e, order + 1, step)) for e, step in (
            (1, 2), (2, 2), (2 * b, 14), (14 - 2 * b, 14), (14, 14), (b, 14),
            (14 - b, 14)))
        assert count(slater_series, (b, s, t), order) <= product + 3 * terms + s
