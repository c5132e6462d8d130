"""Solving q-difference equations as coefficient recurrences, the
G/H/I transform chain with its closed form, evaluation at x = 1, double
sums, infinite products, and the classical single-sum identity checks —
all as exact truncated series.  Every quotient by a Pochhammer product,
in q or in x, divides by it one factor at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linked as _linked
from . import murraymiller as _mm
from .automata import parse_regex
from .murraymiller import QDifferenceEquation
from .qalgebra import (
    BiPoly, Q, QSeries, RationalFunction, X, _leading_int_zeros,
    rf_x_coefficient_series,
)


# ---------------------------------------------------------------------------
# series with an x-direction
# ---------------------------------------------------------------------------

class XSeries:
    """Formal series sum_M f_M(q) x^M truncated at x-order L; every f_M is a
    QSeries of one common q-order (shared, not copied: no QSeries changes
    once built).  Coefficients below M = 0 are zero by convention."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least the x^0 coefficient")
        t = min(c.order for c in coeffs)
        self.coeffs = [c if c.order == t else c.truncate(t) for c in coeffs]

    @classmethod
    def one(cls, x_order, q_order):
        return cls([QSeries.one(q_order)] + [QSeries.zero(q_order)] * x_order)

    @property
    def x_order(self):
        return len(self.coeffs) - 1

    @property
    def q_order(self):
        return self.coeffs[0].order

    def coeff(self, M):
        if M < 0 or M > self.x_order:
            return QSeries.zero(self.q_order)
        return self.coeffs[M]

    def mul_one_plus_x(self, c, e):
        """Multiply by (1 + c * x * q^e), e >= 0: one list pass per f_M."""
        if e < 0:
            raise ValueError("negative q-shift on a series")
        out = [self.coeffs[0]]
        for M in range(1, self.x_order + 1):
            f, low = self.coeffs[M].coeffs, self.coeffs[M - 1].coeffs
            out.append(QSeries(f[:e] + [u + c * d for u, d in zip(f[e:], low)]))
        return XSeries(out)

    def div_one_plus_x(self, c, e):
        """Divide by (1 + c * x * q^e), e >= 0: one list pass per f_M."""
        if e < 0:
            raise ValueError("negative q-shift on a series")
        out = [self.coeffs[0]]
        for M in range(1, self.x_order + 1):
            f, low = self.coeffs[M].coeffs, out[M - 1].coeffs
            out.append(QSeries(f[:e] + [u - c * d for u, d in zip(f[e:], low)]))
        return XSeries(out)

    def __eq__(self, other):
        return isinstance(other, XSeries) and self.coeffs == other.coeffs

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)


# ---------------------------------------------------------------------------
# equations as recurrences
# ---------------------------------------------------------------------------

def _equation_profile(eq: QDifferenceEquation, order):
    """Per shift index i, {j: the nonzero terms (n, c) of [x^j]p_i} through
    q^order; the expansions' zeros are int 0s, which add nothing."""
    return [{j: [(n, c) for n, c in enumerate(series.coeffs) if c]
             for j, series in rf_x_coefficient_series(p, order).items()}
            for p in eq.coeffs]


def _recurrence_sum(prof, step, fs, lows, M, j_min, order):
    """sum_i sum_{j_min <= j <= M} [x^j]p_i * q^(step*i*(M-j)) * f_(M-j):
    the x^M coefficient of sum_i p_i(x, q) F(x q^(step*i)), from the
    terms j >= j_min.  Each nonzero coefficient of a [x^j]p_i adds a
    shifted f_(M-j) into one coefficient list, an int one from f's
    leading int zeros lows[M - j] on; the f carry the order."""
    acc = [0] * (order + 1)
    for i, cols in enumerate(prof):
        for j, terms in cols.items():
            if j_min <= j <= M:
                f, low = fs[M - j].coeffs, lows[M - j]
                for n, c in terms:
                    z = low if type(c) is int else 0
                    k = n + step * i * (M - j) + z
                    if k <= order:
                        acc[k:] = [u + c * d for u, d in zip(acc[k:], f[z:])]
    return QSeries(acc, order)


def solve_equation(eq: QDifferenceEquation, x_order: int, q_order: int) -> XSeries:
    """Unique solution with f_0 = 1 (the value of the generating function at
    x = 0), computed coefficient by coefficient.

    The recurrence coefficient of f_M is sum_i [x^0]p_i * q^(step*i*M);
    it must be invertible (nonzero constant term) for every M >= 1.
    """
    prof = _equation_profile(eq, q_order)
    m = eq.step
    # the M = 0 instance must not constrain f_0
    if not _lead_coefficient(prof, m, 0, q_order).is_zero():
        raise ValueError("equation forces F(0) = 0; no solution with f_0 = 1")
    fs, lows = [QSeries.one(q_order)], [0]
    for M in range(1, x_order + 1):
        lead = _lead_coefficient(prof, m, M, q_order)
        if lead.coeffs[0] == 0:
            raise ZeroDivisionError(
                f"non-invertible leading recurrence coefficient at M = {M}")
        rhs = _recurrence_sum(prof, m, fs, lows, M, 1, q_order)
        fs.append(-rhs / lead)
        lows.append(_leading_int_zeros(fs[-1].coeffs))
    return XSeries(fs)


def _lead_coefficient(prof, m, M, order):
    """sum_i [x^0]p_i * q^(m*i*M): the coefficient of f_M in the x^M
    recurrence, added into one coefficient list."""
    acc = [0] * (order + 1)
    for i, cols in enumerate(prof):
        for n, c in cols.get(0, ()):
            if n + m * i * M <= order:
                acc[n + m * i * M] += c
    return QSeries(acc, order)


def evaluate_x1(F: XSeries, order: int) -> QSeries:
    """sum_M f_M truncated at q^order; the x-order must be large enough that
    discarded coefficients cannot reach q^order (L >= T suffices when every
    counted part is >= 1)."""
    return sum((c.truncate(order) for c in F.coeffs), QSeries.zero(order))


def equation_residual(eq: QDifferenceEquation, F: XSeries) -> XSeries:
    """sum_i p_i(x, q) F(x q^(step*i)) as an XSeries; identically zero when
    F solves the equation through the carried orders."""
    t = F.q_order
    prof = _equation_profile(eq, t)
    lows = [_leading_int_zeros(f.coeffs) for f in F.coeffs]
    return XSeries([_recurrence_sum(prof, eq.step, F.coeffs, lows, M, 0, t)
                    for M in range(F.x_order + 1)])


# ---------------------------------------------------------------------------
# the pipeline equations for the three classes
# ---------------------------------------------------------------------------

CLASS_PREFIX_REGEX = {1: "3U4", 2: "2U4U04", 3: "2U3U4U04U1*03"}

# (s, t) exponent parameters of the closed form, per class
CLASS_ST = {1: (0, 0), 2: (0, 1), 3: (1, 1)}

PRODUCT_RESIDUES = {
    1: (2, 3, 4, 10, 11, 12),
    2: (1, 4, 6, 8, 10, 13),
    3: (2, 5, 6, 8, 9, 12),
}


def _class_target(spec, a):
    return parse_regex(CLASS_PREFIX_REGEX[a], spec.alphabet)


@lru_cache(maxsize=None)
def nandi_class_state(a: int) -> int:
    spec = _linked.nandi_spec()
    return _linked.state_for_class(spec, _class_target(spec, a))


def class_equation(spec, a: int) -> QDifferenceEquation:
    """Single q-difference equation for the class-a generating function of
    the given block specification, derived end to end: forbidden DFA ->
    coupled system -> reorder -> triangularize -> eliminate -> normalize."""
    return _mm.derive_equation(spec, _class_target(spec, a))[-1]


@lru_cache(maxsize=None)
def nandi_equation(a: int) -> QDifferenceEquation:
    """class_equation for the shipped mod-14 specification (cached)."""
    return class_equation(_linked.nandi_spec(), a)


def nandi_product(a: int, order: int) -> QSeries:
    """Truncation of the mod-14 infinite product for class a."""
    out = QSeries.one(order)
    for r in PRODUCT_RESIDUES[a]:
        out = out.div_poch(-1, r, 14)
    return out


# ---------------------------------------------------------------------------
# transform chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformChain:
    F: XSeries
    G: XSeries
    H: XSeries
    I: XSeries


def transform_chain(a: int, x_order: int, q_order: int) -> TransformChain:
    """F -> G = F/(x;q^2)_inf -> h_M = g_M/(-q^(1+s);q)_(2M) -> I = H*(x;q^2)_inf.

    Verifies on the way that G satisfies the equation obtained from the
    F-equation by the exact product division, and that H satisfies the
    mechanically transformed recurrence; raises on any residual.
    """
    s, _t = CLASS_ST[a]
    eq = nandi_equation(a)
    F = solve_equation(eq, x_order, q_order)
    # the factors (1 - x q^e) of (x;q^2)_inf with e > q_order are 1 here
    evens = range(0, q_order + 1, 2)
    G = F
    for e in evens:
        G = G.div_one_plus_x(-1, e)
    g_eq = g_equation(eq)
    if not equation_residual(QDifferenceEquation(eq.step, tuple(g_eq)), G).is_zero():
        raise ArithmeticError("transformed G-series does not satisfy its recurrence")
    H = XSeries([G.coeffs[M].div_poch(1, 1 + s, 1, 2 * M)
                 for M in range(G.x_order + 1)])
    h_eq = h_equation(g_eq, s, eq.step)
    if not equation_residual(QDifferenceEquation(eq.step, tuple(h_eq)), H).is_zero():
        raise ArithmeticError("transformed H-series does not satisfy its recurrence")
    I = H
    for e in evens:
        I = I.mul_one_plus_x(-1, e)
    return TransformChain(F, G, H, I)


def closed_form_i(a: int, M: int, order: int) -> QSeries:
    """(-1)^M q^(M(M+2t)) / ((-q^(1+s);q)_(2M) (q^2;q^2)_M), truncated."""
    s, t = CLASS_ST[a]
    num = QSeries.monomial((-1) ** M, M * (M + 2 * t), order)
    return num.div_poch(1, 1 + s, 1, 2 * M).div_poch(-1, 2, 2, M)


def g_equation(eq: QDifferenceEquation):
    """Coefficients r_i of the equation satisfied by G = F/(x;q^step)_inf.

    Obtained, with pivot = max(0, order - 2), by multiplying p_i with
    prod_{j=i}^{pivot-1} (1 - x q^(step*j)) below the pivot and dividing by
    prod_{j=pivot}^{i-1} (1 - x q^(step*j)) above it; the divisions must be
    exact, which the shapes of the derived equations guarantee.
    """
    pivot = max(0, eq.order - 2)
    m = eq.step
    out = []
    for i, p in enumerate(eq.coeffs):
        r = p
        for j in range(i, pivot):
            r = r * RationalFunction(BiPoly.const(1) - X * Q ** (m * j))
        for j in range(pivot, i):
            r = r / RationalFunction(BiPoly.const(1) - X * Q ** (m * j))
        if not r.is_polynomial():
            raise ArithmeticError(
                "product division is not exact; the equation does not have "
                "the expected divisible tail coefficients")
        out.append(r)
    return out


def h_equation(r_coeffs, s: int, step: int):
    """x-form of the recurrence satisfied by h_M = g_M / (-q^(1+s);q)_(step*M).

    The x^d part of the G-recurrence is a tap on g_(M-d), and D is the
    deepest tap.  Turning g_(M-d) into h_(M-d) relative to h_(M-D)
    multiplies that part by the step*(D-d) factors
    (1 + q^(1+s+t-step*(D-d)) q^(step*M)), t = 0, 1, ...; in x-form each
    factor copies the part from shift i to shift i + 1, raising its
    q-power by 1+s+t-step*(D-d).  The overall q-power is scaled to clear
    negative exponents.
    """
    if not all(r.is_polynomial() for r in r_coeffs):
        raise ValueError("G-equation coefficients must be polynomial")
    D = max(r.num.degree_x() for r in r_coeffs)
    parts = [{} for _ in range(D + 1)]  # per d: (shift, q-power) -> coefficient
    for i, r in enumerate(r_coeffs):
        for (d, j), c in r.num.terms.items():
            parts[d][(i, j)] = c
    raw = {}  # (shift, d, q-power) -> coefficient; q-powers may be negative
    for d, part in enumerate(parts):
        n = step * (D - d)
        for t in range(n):
            nxt = dict(part)
            for (i, j), c in part.items():
                key = (i + 1, j + 1 + s + t - n)
                nxt[key] = nxt.get(key, 0) + c
            part = nxt
        raw.update(((i, d, j), c) for (i, j), c in part.items() if c)
    shift = max(0, -min((j for (_, _, j) in raw), default=0))
    coeffs = [{} for _ in range(max((i for (i, _, _) in raw), default=0) + 1)]
    for (i, d, j), c in raw.items():
        coeffs[i][(d, j + shift)] = c
    return [RationalFunction(BiPoly(terms)) for terms in coeffs]


# ---------------------------------------------------------------------------
# double sum, classical identities
# ---------------------------------------------------------------------------

def _terms(first, ratio):
    """first, then term n = ratio(term n-1, n) for n = 1, 2, ..., up to the
    first term that is zero through its order.  Each term of the sums here
    is +-c^n q^e over a product with constant term 1, so it is zero exactly
    when e is past the order (or c = 0), and every later term is too."""
    term, n = first, 0
    while not term.is_zero():
        yield term
        n += 1
        term = ratio(term, n)


def double_sum(a: int, order: int) -> QSeries:
    """sum_{i,j>=0} (-1)^j q^(C(i,2) + 2C(j,2) + 2ij + A_a(i,j))
    / ((q;q)_i (q^2;q^2)_j) with A_a(i,j) = (1+s)i + (1+2t)j for the
    class's (s, t) in CLASS_ST, truncated exactly."""
    if a not in CLASS_ST:
        raise ValueError("class index must be 1, 2 or 3")
    s, t = CLASS_ST[a]
    # term (i, 0) is term (i-1, 0) times q^(i+s) / (1 - q^i), and term
    # (i, j) is term (i, j-1) times -q^(2i+2j+2t-1) / (1 - q^(2j))
    rows = _terms(QSeries.one(order),
                  lambda row, i: row.shift(i + s).div_poch(-1, i, 1, 1))
    return sum((term for i, row in enumerate(rows) for term in _terms(
        row, lambda u, j: -u.shift(2 * (i + j + t) - 1).div_poch(-1, 2 * j, 2, 1))),
        QSeries.zero(order))


def euler_series(which: str, x_value, order: int):
    """(sum side, product side) of one of the two classical series-product
    identities at a monomial x = c*q^k (k >= 1, or c = 0)."""
    c, k = x_value
    if c and k < 1:
        raise ValueError("the substituted monomial needs a positive q-power")
    # term n is term n-1 times c q^d / (1 - q^n), d = k (+ n-1 for B)
    lhs = sum(_terms(QSeries.one(order), lambda u, n: (u * c).shift(
        k + (n - 1 if which == "B" else 0)).div_poch(-1, n, 1, 1)),
        QSeries.zero(order))
    if which == "A":
        rhs = QSeries.one(order).div_poch(-c, k, 1, order + 1)
    elif which == "B":
        rhs = QSeries.one(order).mul_poch(c, k, 1, order + 1)
    else:
        raise ValueError("which must be 'A' or 'B'")
    return lhs, rhs


def euler_check(which: str, x_value, order: int) -> bool:
    """Whether the two series of `euler_series` agree."""
    lhs, rhs = euler_series(which, x_value, order)
    return lhs == rhs


def _slater_sum(s: int, t: int, order: int) -> QSeries:
    """sum_n (-1)^n q^(n(n+2t)) / ((-q;q)_(2n+s) (q^2;q^2)_n), truncated: the
    closed-form terms over (-q;q)_s, as (-q;q)_(2n+s) = (-q;q)_s (-q^(1+s);q)_(2n).
    Term n is term n-1 times
    -q^(2n+2t-1) / ((1+q^(s+2n-1)) (1+q^(s+2n)) (1-q^(2n)))."""
    acc = sum(_terms(QSeries.one(order), lambda u, n: -(
        u.shift(2 * (n + t) - 1).div_poch(1, s + 2 * n - 1, 1, 2)
        .div_poch(-1, 2 * n, 2, 1))), QSeries.zero(order))
    return acc.div_poch(1, 1, 1, s)


def slater_series(bst, order: int):
    """(single sum, mod-28/mod-14 product) for (b, s, t) in
    {(3,0,0), (1,0,1), (5,1,1)}."""
    b, s, t = bst
    lhs = _slater_sum(s, t, order)
    rhs = (QSeries.one(order).mul_poch(-1, 1, 2).div_poch(-1, 2, 2)
           .mul_poch(-1, 2 * b, 14).mul_poch(-1, 14 - 2 * b, 14)
           .mul_poch(-1, 14, 14)
           .div_poch(-1, b, 14).div_poch(-1, 14 - b, 14))
    return lhs, rhs


def slater_check(bst, order: int) -> bool:
    """Whether the two series of `slater_series` agree."""
    lhs, rhs = slater_series(bst, order)
    return lhs == rhs


def remark_single_sum_series(a: int, order: int):
    """The alternate route: the double sum collapses to a single sum with a
    (q;q^2)_inf prefactor, which in turn equals a mod-7/mod-14 product.
    Returns the two series of the first of these two steps that disagree,
    or of the second when both agree."""
    s, t = CLASS_ST[a]
    # the single sum sum_i q^(C(i,2)+(1+s)i) / ((q;q)_i (q;q^2)_(i+t)): term
    # i is term i-1 times q^(i+s) / ((1 - q^i) (1 - q^(2i+2t-1)))
    single = sum(_terms(QSeries.one(order).div_poch(-1, 1, 2, t), lambda u, i: (
        u.shift(i + s).div_poch(-1, i, 1, 1).div_poch(-1, 2 * (i + t) - 1, 1, 1))),
        QSeries.zero(order))
    lhs, rhs = double_sum(a, order), single.mul_poch(-1, 1, 2)
    if lhs != rhs:
        return lhs, rhs
    prod = (QSeries.one(order).mul_poch(-1, a, 7).mul_poch(-1, 7 - a, 7)
            .mul_poch(-1, 7, 7).mul_poch(-1, 7 - 2 * a, 14)
            .mul_poch(-1, 7 + 2 * a, 14)
            .div_poch(-1, 1, 1).div_poch(-1, 1, 2))
    return single, prod


def remark_single_sum_check(a: int, order: int) -> bool:
    """Whether the two series of `remark_single_sum_series` agree."""
    lhs, rhs = remark_single_sum_series(a, order)
    return lhs == rhs
