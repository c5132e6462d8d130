"""Solving q-difference equations as coefficient recurrences, the
G/H/I transform chain with its closed form, evaluation at x = 1, double
sums, infinite products, and the classical single-sum identity checks —
all as exact truncated series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linked as _linked
from . import murraymiller as _mm
from .automata import parse_regex
from .murraymiller import QDifferenceEquation
from .qalgebra import (
    BiPoly, QSeries, RationalFunction, poch_finite, poch_inf,
    pochhammer_inverse, product_series, rf_x_coefficient_series,
)


class StabilizationError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# series with an x-direction
# ---------------------------------------------------------------------------

class XSeries:
    """Formal series sum_M f_M(q) x^M truncated at x-order L; every f_M is a
    QSeries of one common q-order.  Coefficients below M = 0 are zero by
    convention."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least the x^0 coefficient")
        t = min(c.order for c in coeffs)
        self.coeffs = [c.truncate(t) for c in coeffs]

    @classmethod
    def zero(cls, x_order, q_order):
        return cls([QSeries.zero(q_order) for _ in range(x_order + 1)])

    @classmethod
    def one(cls, x_order, q_order):
        out = cls.zero(x_order, q_order)
        out.coeffs[0] = QSeries.one(q_order)
        return out

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

    def __mul__(self, other):
        L = min(self.x_order, other.x_order)
        t = min(self.q_order, other.q_order)
        out = []
        for M in range(L + 1):
            acc = QSeries.zero(t)
            for k in range(M + 1):
                a = self.coeffs[k]
                b = other.coeffs[M - k]
                if a.is_zero() or b.is_zero():
                    continue
                acc = acc + a * b
            out.append(acc)
        return XSeries(out)

    def __truediv__(self, other):
        """Long division; the divisor's x^0 coefficient must be invertible."""
        L = min(self.x_order, other.x_order)
        t = min(self.q_order, other.q_order)
        inv0 = other.coeffs[0].truncate(t).invert()
        out = []
        for M in range(L + 1):
            acc = self.coeffs[M].truncate(t)
            for k in range(M):
                if out[k].is_zero():
                    continue
                acc = acc - out[k] * other.coeffs[M - k]
            out.append(acc * inv0)
        return XSeries(out)

    def mul_one_plus_x(self, c, e):
        """Multiply by (1 + c * x * q^e)."""
        out = [self.coeffs[0]]
        for M in range(1, self.x_order + 1):
            out.append(self.coeffs[M] + self.coeffs[M - 1].shift(e) * c)
        return XSeries(out)

    def __eq__(self, other):
        return isinstance(other, XSeries) and self.coeffs == other.coeffs

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)


def x_poch_even(x_order, q_order):
    """(1 - x)(1 - x q^2)(1 - x q^4) * ... as an XSeries.

    Factors whose q-exponent exceeds the q-order only touch coefficients
    beyond the truncation and are dropped.
    """
    out = XSeries.one(x_order, q_order)
    for e in range(0, q_order + 1, 2):
        out = out.mul_one_plus_x(-1, e)
    return out


# ---------------------------------------------------------------------------
# equations as recurrences
# ---------------------------------------------------------------------------

def _equation_profile(eq: QDifferenceEquation, order):
    """Per shift index i, the x-coefficients of p_i as QSeries."""
    return [rf_x_coefficient_series(c, order) for c in eq.coeffs]


def _recurrence_sum(prof, step, fs, M, j_min, order):
    """sum_i sum_{j_min <= j <= M} [x^j]p_i * q^(step*i*(M-j)) * f_(M-j):
    the x^M coefficient of sum_i p_i(x, q) F(x q^(step*i)), from the
    terms j >= j_min."""
    acc = QSeries.zero(order)
    for i, cols in enumerate(prof):
        for j, series in cols.items():
            if j < j_min or j > M:
                continue
            f = fs[M - j]
            if f.is_zero():
                continue
            acc = acc + series.shift(step * i * (M - j)) * f
    return acc


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
    fs = [QSeries.one(q_order)]
    for M in range(1, x_order + 1):
        lead = _lead_coefficient(prof, m, M, q_order)
        if lead.coeffs[0] == 0:
            raise ZeroDivisionError(
                f"non-invertible leading recurrence coefficient at M = {M}")
        rhs = _recurrence_sum(prof, m, fs, M, 1, q_order)
        fs.append(-(rhs * lead.invert()))
    return XSeries(fs)


def _lead_coefficient(prof, m, M, order):
    acc = QSeries.zero(order)
    for i, cols in enumerate(prof):
        if 0 in cols:
            acc = acc + cols[0].shift(m * i * M)
    return acc


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
    return XSeries([_recurrence_sum(prof, eq.step, F.coeffs, M, 0, t)
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
    return _mm.target_state(spec, _class_target(spec, a))


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
    return pochhammer_inverse(PRODUCT_RESIDUES[a], 14, order)


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
    poch = x_poch_even(x_order, q_order)
    G = F / poch
    g_eq = g_equation(eq)
    if not equation_residual(QDifferenceEquation(eq.step, tuple(g_eq)), G).is_zero():
        raise ArithmeticError("transformed G-series does not satisfy its recurrence")
    H = XSeries([G.coeffs[M] / poch_finite(1, 1 + s, 1, 2 * M, q_order)
                 for M in range(G.x_order + 1)])
    h_eq = h_equation(g_eq, s, eq.step)
    if not equation_residual(QDifferenceEquation(eq.step, tuple(h_eq)), H).is_zero():
        raise ArithmeticError("transformed H-series does not satisfy its recurrence")
    I = H * poch
    return TransformChain(F, G, H, I)


def closed_form_i(a: int, M: int, order: int) -> QSeries:
    """(-1)^M q^(M(M+2t)) / ((-q^(1+s);q)_(2M) (q^2;q^2)_M), truncated."""
    s, t = CLASS_ST[a]
    e = M * (M + 2 * t)
    num = QSeries.monomial((-1) ** M, e, order)
    den = poch_finite(1, 1 + s, 1, 2 * M, order) * poch_finite(-1, 2, 2, M, order)
    return num * den.invert()


def g_equation(eq: QDifferenceEquation):
    """Coefficients r_i of the equation satisfied by G = F/(x;q^step)_inf.

    Obtained, with pivot = max(0, order - 2), by multiplying p_i with
    prod_{j=i}^{pivot-1} (1 - x q^(step*j)) below the pivot and dividing by
    prod_{j=pivot}^{i-1} (1 - x q^(step*j)) above it; the divisions must be
    exact, which the shapes of the derived equations guarantee.
    """
    pivot = max(0, eq.order - 2)
    m = eq.step
    x = BiPoly.var_x()
    q = BiPoly.var_q()
    out = []
    for i, p in enumerate(eq.coeffs):
        r = p
        for j in range(i, pivot):
            r = r * RationalFunction(BiPoly.const(1) - x * q ** (m * j))
        for j in range(pivot, i):
            r = r / RationalFunction(BiPoly.const(1) - x * q ** (m * j))
        if not r.is_polynomial():
            raise ArithmeticError(
                "product division is not exact; the equation does not have "
                "the expected divisible tail coefficients")
        out.append(r)
    return out


def h_equation(r_coeffs, s: int, step: int):
    """x-form of the recurrence satisfied by h_M = g_M / (-q^(1+s);q)_(2M).

    Writes the G-recurrence in the variable z = q^M, multiplies the d-th
    tap by the finite product turning the g-values into h-values relative
    to the deepest tap, and converts back to an x-form; the overall q-power
    is scaled to clear negative exponents.
    """
    D = max(c.num.degree_x() for c in r_coeffs)
    taps = []  # per d: dict (z_exp, q_exp) -> int, q_exp may be negative
    for d in range(D + 1):
        acc = {}
        for i, r in enumerate(r_coeffs):
            if not r.is_polynomial():
                raise ValueError("G-equation coefficients must be polynomial")
            for j, c in enumerate(r.num.coefficient_in_x(d)):
                key = (step * i, j - step * i * d)
                acc[key] = acc.get(key, 0) + c
        # multiply by prod_{t=0}^{step*(D-d)-1} (1 + q^(1+s-step*D+t) z^step)
        for t in range(step * (D - d)):
            e = 1 + s - step * D + t
            nxt = {}
            for (ze, qe), c in acc.items():
                nxt[(ze, qe)] = nxt.get((ze, qe), 0) + c
                k2 = (ze + step, qe + e)
                nxt[k2] = nxt.get(k2, 0) + c
            acc = nxt
        taps.append({k: v for k, v in acc.items() if v})
    # assemble x-form: a term q^c z^(step*i) on tap d contributes
    # x^d q^(c + step*i*d) to the coefficient of H(x q^(step*i))
    raw = {}
    for d, acc in enumerate(taps):
        for (ze, qe), c in acc.items():
            if ze % step:
                raise ValueError("unexpected z-power in the transformed recurrence")
            i = ze // step
            key = (i, d, qe + step * i * d)
            raw[key] = raw.get(key, 0) + c
    low = min((qe for (_, _, qe) in raw), default=0)
    shift = -low if low < 0 else 0
    n_shifts = max((i for (i, _, _) in raw), default=0)
    coeffs = []
    for i in range(n_shifts + 1):
        terms = {}
        for (ii, d, qe), c in raw.items():
            if ii == i:
                terms[(d, qe + shift)] = terms.get((d, qe + shift), 0) + c
        coeffs.append(RationalFunction(BiPoly(terms)))
    return coeffs


# ---------------------------------------------------------------------------
# closed-form g, stabilization, and the x = 1 value
# ---------------------------------------------------------------------------

def g_closed_form(a: int, L: int, order: int) -> QSeries:
    """g_L from the closed double-quotient form, truncated at q^order."""
    s, t = CLASS_ST[a]
    acc = QSeries.zero(order)
    for M in range(L + 1):
        if M * (M + 2 * t) > order:
            break
        inv = poch_finite(-1, 2, 2, L - M, order).invert()
        acc = acc + closed_form_i(a, M, order) * inv
    return acc * poch_finite(1, 1 + s, 1, 2 * L, order)


def g_limit_check(a: int, L_max: int, order: int) -> QSeries:
    """Witness the formal limit of g_L by stabilization at two consecutive
    L, cross-check the single-sum expression for the x = 1 value, and
    return that value (through the stabilized order)."""
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    s, t = CLASS_ST[a]
    t_stab = max(0, min(order, 2 * L_max - 2))
    g_prev = g_closed_form(a, L_max - 1, order)
    g_last = g_closed_form(a, L_max, order)
    if g_prev.truncate(t_stab) != g_last.truncate(t_stab):
        raise StabilizationError(
            f"g_L not stabilized through q^{t_stab} at L = {L_max}")
    value = (poch_inf(-1, 2, 2, order) * g_last).truncate(t_stab)
    rhs = poch_inf(1, 1, 1, t_stab) * _slater_sum(s, t, t_stab)
    if value != rhs:
        raise StabilizationError("limit value disagrees with the single-sum form")
    return value


# ---------------------------------------------------------------------------
# double sum, classical identities
# ---------------------------------------------------------------------------

def double_sum(a: int, order: int) -> QSeries:
    """sum_{i,j>=0} (-1)^j q^(C(i,2) + 2C(j,2) + 2ij + A_a(i,j))
    / ((q;q)_i (q^2;q^2)_j) with A_a(i,j) = (1+s)i + (1+2t)j for the
    class's (s, t) in CLASS_ST, truncated exactly."""
    if a not in CLASS_ST:
        raise ValueError("class index must be 1, 2 or 3")
    s, t = CLASS_ST[a]
    acc = QSeries.zero(order)
    i = 0
    while True:
        if i * (i - 1) // 2 + (1 + s) * i > order:
            break
        inv_i = poch_finite(-1, 1, 1, i, order).invert()
        j = 0
        while True:
            e = (i * (i - 1) // 2 + j * (j - 1) + 2 * i * j
                 + (1 + s) * i + (1 + 2 * t) * j)
            if e > order:
                break
            inv_j = poch_finite(-1, 2, 2, j, order).invert()
            acc = acc + QSeries.monomial((-1) ** j, e, order) * inv_i * inv_j
            j += 1
        i += 1
    return acc


def euler_check(which: str, x_value, order: int) -> bool:
    """Check one of the two classical series-product identities at a
    monomial x = c*q^k (k >= 1, or c = 0)."""
    c, k = x_value
    if c and k < 1:
        raise ValueError("the substituted monomial needs a positive q-power")
    lhs = QSeries.zero(order)
    n = 0
    while True:
        e = n * k + (n * (n - 1) // 2 if which == "B" else 0)
        if n and (c == 0 or e > order):
            break
        term = QSeries.monomial(c ** n, e, order) * poch_finite(-1, 1, 1, n, order).invert()
        lhs = lhs + term
        n += 1
    if which == "A":
        rhs = product_series(((-c, k + j) for j in range(order + 1)), order).invert()
    elif which == "B":
        rhs = product_series(((c, k + j) for j in range(order + 1)), order)
    else:
        raise ValueError("which must be 'A' or 'B'")
    return lhs == rhs


def _slater_sum(s: int, t: int, order: int) -> QSeries:
    """sum_n (-1)^n q^(n(n+2t)) / ((q;q)_(2n+s) (q^2;q^2)_n), truncated."""
    acc = QSeries.zero(order)
    n = 0
    while n * (n + 2 * t) <= order:
        den = poch_finite(1, 1, 1, 2 * n + s, order) * poch_finite(-1, 2, 2, n, order)
        acc = acc + QSeries.monomial((-1) ** n, n * (n + 2 * t), order) * den.invert()
        n += 1
    return acc


def slater_check(bst, order: int) -> bool:
    """Single sum against the mod-28/mod-14 product, for (b, s, t) in
    {(3,0,0), (1,0,1), (5,1,1)}."""
    b, s, t = bst
    lhs = _slater_sum(s, t, order)
    rhs = (poch_inf(-1, 1, 2, order)
           * poch_inf(-1, 2, 2, order).invert()
           * poch_inf(-1, 2 * b, 14, order)
           * poch_inf(-1, 14 - 2 * b, 14, order)
           * poch_inf(-1, 14, 14, order)
           * (poch_inf(-1, b, 14, order) * poch_inf(-1, 14 - b, 14, order)).invert())
    return lhs == rhs


def remark_single_sum_check(a: int, order: int) -> bool:
    """The alternate route: the double sum collapses to a single sum with a
    (q;q^2)_inf prefactor, which in turn equals a mod-7/mod-14 product."""
    s, t = CLASS_ST[a]
    single = QSeries.zero(order)
    for i in range(order + 2):
        e = i * (i - 1) // 2 + (1 + s) * i
        if e > order:
            break
        den = poch_finite(-1, 1, 1, i, order) * poch_finite(-1, 1, 2, i + t, order)
        single = single + QSeries.monomial(1, e, order) * den.invert()
    lhs1 = double_sum(a, order)
    rhs1 = poch_inf(-1, 1, 2, order) * single
    if lhs1 != rhs1:
        return False
    prod = (poch_inf(-1, a, 7, order)
            * poch_inf(-1, 7 - a, 7, order)
            * poch_inf(-1, 7, 7, order)
            * poch_inf(-1, 7 - 2 * a, 14, order)
            * poch_inf(-1, 7 + 2 * a, 14, order)
            * (poch_inf(-1, 1, 1, order) * poch_inf(-1, 1, 2, order)).invert())
    return single == prod
