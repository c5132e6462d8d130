"""Exact arithmetic kernel: bivariate integer polynomials in (x, q), their
gcd and exact division (one primitive pseudo-remainder sequence and one
long division, each written once over a coefficient ring: Z for
polynomials in q, Z[q] for polynomials in x; the sequence divides each
pseudo-remainder by the powers of the dividend's leading coefficient it
holds before taking its content, a gcd splits off the monomial content
x^i q^j of each argument and runs no sequence when either rest is a
constant, and a quotient by a single term is in closed form), reduced
rational functions, and truncated q-series with exact
rational coefficients, which multiply and divide by a Pochhammer product
one linear pass per factor, and divide by another series through one
exact recurrence over the divisor's nonzero terms (inversion is 1 divided
by the series).

Rational arithmetic works on reduced operands, so it takes gcds only of
the factors that can cancel (Henrici's method, Knuth TAOCP vol. 2,
4.5.1): (a/b)*(c/d) cancels a against d and c against b; a/b + c/d takes
g = gcd(b, d) and then only gcd(a*(d/g) + c*(b/g), g); x -> x*q^k takes no
gcd at all, since it can only make both parts share a power of q.

No floating point anywhere: a rational function's parts are BiPoly, int
or Fraction, and anything else raises TypeError.  Rational functions are
kept in a canonical reduced form (gcd 1, denominator with positive leading
coefficient in the lexicographic (deg_x, deg_q) term order), so structural
equality decides equality of functions.
"""

from __future__ import annotations

import ast
import operator
from collections import namedtuple
from fractions import Fraction
from itertools import groupby
from math import gcd as _int_gcd


# ---------------------------------------------------------------------------
# dense polynomials, lowest degree first, over a coefficient ring: Z for
# polynomials in q, Z[q] for x-profiles (used internally for gcds)
# ---------------------------------------------------------------------------

def _u_trim(a):
    # trims lists over either ring: 0 and [] are falsy
    while a and not a[-1]:
        a.pop()
    return a


def _u_neg(a):
    return [-c for c in a]


def _u_sub(a, b):
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _u_trim(out)


def _u_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
    return _u_trim(out)


def _z_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


# The coefficient ring's operations; ``last`` gives the integer that decides
# an element's sign (over Z[q], its coefficient of the highest q-power).
_Ring = namedtuple("_Ring", "zero one neg sub mul div gcd last")


def _pseudo_rem(a, b, ring):
    # premultiplied remainder of a by b; only used inside the primitive PRS
    mul, sub = ring.mul, ring.sub
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) > db:
        lr = r[-1]
        dr = len(r) - 1
        r = [mul(c, lb) for c in r]
        for i, c in enumerate(b):
            r[dr - db + i] = sub(r[dr - db + i], mul(c, lr))
        _u_trim(r)
    return r


def _content_split(a, ring):
    """(content, primitive part) of a; the zero polynomial has content zero."""
    gcd, one = ring.gcd, ring.one
    g = ring.zero
    for c in a:
        g = gcd(g, c)
        if g == one:
            return g, a
    if not g:
        return g, a
    div = ring.div
    return g, [div(c, g) for c in a]


def _strip_lc_powers(r, lc, ring):
    """r divided by lc for as long as every coefficient divides exactly; r
    as it is when lc is a unit, whose powers never stop dividing."""
    if lc == ring.one or lc == ring.neg(ring.one):
        return r
    try:
        while r:
            r = [ring.div(c, lc) for c in r]
    except ArithmeticError:
        pass
    return r


def _prs_gcd(a, b, ring):
    """gcd of two polynomials over ring by the primitive pseudo-remainder
    sequence (Brown, J. ACM 18, 1971), with the last integer of its leading
    coefficient positive.  Either input may be zero.

    Each pseudo-remainder of pa by pb is first divided by the powers of
    lc(pa) it holds, the divisor of Collins' reduced sequence (J. ACM 14,
    1967), which is most of its content; what is left of the content is
    smaller to find, and the primitive part is the same up to sign."""
    ca, pa = _content_split(_u_trim(list(a)), ring)
    cb, pb = _content_split(_u_trim(list(b)), ring)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        r = _strip_lc_powers(_pseudo_rem(pa, pb, ring), pa[-1], ring)
        pa, pb = pb, _content_split(r, ring)[1]
    c = ring.gcd(ca, cb)
    g = [ring.mul(e, c) for e in pa]
    if g and ring.last(g[-1]) < 0:
        g = [ring.neg(e) for e in g]
    return g


def _long_div(a, b, ring):
    """Quotient a/b over ring when the division is exact; raises
    ArithmeticError otherwise and ZeroDivisionError when b is zero."""
    r = _u_trim(list(a))
    b = _u_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    mul, sub, div = ring.mul, ring.sub, ring.div
    q = [ring.zero] * (len(r) - len(b) + 1)
    lb = b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = div(r[k + len(b) - 1], lb)
        q[k] = c
        if c:
            for i, d in enumerate(b):
                r[k + i] = sub(r[k + i], mul(d, c))
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _u_trim(q)


def _u_gcd(a, b):
    return _prs_gcd(a, b, _Z)


def _u_div_exact(a, b):
    return _long_div(a, b, _Z)


_Z = _Ring(0, 1, operator.neg, operator.sub, operator.mul, _z_div, _int_gcd,
           lambda c: c)
_ZQ = _Ring([], [1], _u_neg, _u_sub, _u_mul, _u_div_exact, _u_gcd,
            operator.itemgetter(-1))


# ---------------------------------------------------------------------------
# bivariate polynomials
# ---------------------------------------------------------------------------

class BiPoly:
    """Sparse polynomial in Z[x, q]; keys are (deg_x, deg_q), no zero terms."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (i, j), c in terms.items():
                if c:
                    if i < 0 or j < 0:
                        raise ValueError("negative exponent in BiPoly")
                    t[(i, j)] = t.get((i, j), 0) + c
        self.terms = {k: v for k, v in t.items() if v}

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, n):
        if not isinstance(n, int):
            raise TypeError(f"BiPoly coefficient must be an int, got {type(n).__name__}")
        return cls({(0, 0): n})

    @classmethod
    def monomial(cls, c, i, j):
        if not isinstance(c, int):
            raise TypeError(f"BiPoly coefficient must be an int, got {type(c).__name__}")
        return cls({(i, j): c})

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0, 0): 1}

    def is_constant(self):
        return not self.terms or set(self.terms) == {(0, 0)}

    def constant_value(self):
        return self.terms.get((0, 0), 0)

    def degree_x(self):
        return max((i for i, _ in self.terms), default=0)

    def degree_q(self):
        return max((j for _, j in self.terms), default=0)

    def leading_coefficient(self):
        """Coefficient of the lexicographically largest (deg_x, deg_q) term."""
        if not self.terms:
            return 0
        return self.terms[max(self.terms)]

    def x_profile(self):
        """List of dense q-coefficient lists indexed by x-degree, built in
        one pass over the terms; each list ends in a nonzero coefficient."""
        prof = [[] for _ in range(self.degree_x() + 1)]
        for (i, j), c in self.terms.items():
            ql = prof[i]
            if j >= len(ql):
                ql.extend([0] * (j + 1 - len(ql)))
            ql[j] = c
        return prof

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, int):
            return BiPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, 0) + c
        return BiPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                t[k] = t.get(k, 0) + c1 * c2
        return BiPoly(t)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (BiPoly, int)):
            return RationalFunction(self, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- rendering ----------------------------------------------------------

    @staticmethod
    def _q_piece(j):
        return "q" if j == 1 else f"q^{j}"

    @staticmethod
    def _x_piece(i):
        return "x" if i == 1 else f"x^{i}"

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        # one sorted pass over the terms, one chunk per x-degree present
        for i, group in groupby(sorted(self.terms.items()), lambda t: t[0][0]):
            pairs = [(j, c) for (_, j), c in group]
            if i == 0:
                body = _render_q_poly(pairs)
            elif len(pairs) == 1:
                j, c = pairs[0]
                parts = [] if abs(c) == 1 else [str(abs(c))]
                parts.append(self._x_piece(i))
                if j:
                    parts.append(self._q_piece(j))
                body = ("-" if c < 0 else "") + "*".join(parts)
            else:
                neg = all(c < 0 for _, c in pairs)
                if neg:
                    pairs = [(j, -c) for j, c in pairs]
                body = ("-" if neg else "") + f"{self._x_piece(i)}*({_render_q_poly(pairs)})"
            if chunks:
                body = f"- {body[1:]}" if body.startswith("-") else f"+ {body}"
            chunks.append(body)
        return " ".join(chunks)

    def __repr__(self):
        return f"BiPoly({self})"


X = BiPoly({(1, 0): 1})
Q = BiPoly({(0, 1): 1})


def _render_q_poly(pairs):
    # ascending (exponent, nonzero coefficient) pairs -> "1 - q^2 + 3*q^4"
    out = []
    for j, c in pairs:
        mag = abs(c)
        if j == 0:
            body = str(mag)
        elif mag == 1:
            body = BiPoly._q_piece(j)
        else:
            body = f"{mag}*{BiPoly._q_piece(j)}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out) or "0"


def _bipoly_from_profile(prof):
    # the constructor drops the zero coefficients
    return BiPoly({(i, j): c for i, ql in enumerate(prof) for j, c in enumerate(ql)})


def _shift(a, i, j):
    """a times x^i q^j; a negative i or j divides by that power."""
    if not (i or j):
        return a
    return BiPoly({(k + i, l + j): c for (k, l), c in a.terms.items()})


def _monomial_split(a):
    """(i, j, rest) with a = x^i q^j * rest for a nonzero a, where i and j
    are a's smallest x- and q-exponents, so neither x nor q divides rest."""
    i = min(k for k, _ in a.terms)
    j = min(l for _, l in a.terms)
    return i, j, _shift(a, -i, -j)


def bipoly_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    """gcd in Z[x, q], sign-normalized so the leading coefficient is positive.

    Each argument splits into its monomial content x^i q^j and a rest; x
    and q are primes of Z[x, q], so the gcd is x and q each to the lower
    of the two exponents times the gcd of the rests.  When either rest is
    a constant c (a single-term argument included), that gcd is gcd(|c|,
    the other rest's integer content), with no sequence run.  Otherwise it
    is the same primitive pseudo-remainder sequence as the univariate gcd
    over Z, run in x over the ring Z[q] on the two x-profiles.  Rational
    arithmetic calls it only on factors that can cancel, which keeps it
    small on the shipped spec and most m = 2 specs; on larger systems the
    sequence's intermediate integers still grow without bound and it
    dominates `triangularize` (the m = 2 spec with the forbidden patterns
    `303U24U114U01U34U423` runs for minutes).
    """
    if a.is_zero() or b.is_zero():
        g = b if a.is_zero() else a
        return -g if g.leading_coefficient() < 0 else g
    i, j, a = _monomial_split(a)
    k, l, b = _monomial_split(b)
    if len(b.terms) == 1:
        a, b = b, a
    if len(a.terms) == 1:
        c = a.constant_value()
        for d in b.terms.values():
            c = _int_gcd(c, d)
        g = BiPoly.const(abs(c))
    else:
        g = _bipoly_from_profile(_prs_gcd(a.x_profile(), b.x_profile(), _ZQ))
    return _shift(g, min(i, k), min(j, l))


def bipoly_div_exact(a: BiPoly, b: BiPoly) -> BiPoly:
    """Exact quotient a/b in Z[x, q]; raises ArithmeticError if inexact.

    A single-term divisor c x^i q^j divides in closed form: each term's
    exponents drop by (i, j) and its coefficient is divided by c.
    Otherwise the long division runs in x over Z[q] on the x-profiles.
    """
    if len(b.terms) == 1:
        ((i, j), c), = b.terms.items()
        out = {}
        for (k, l), d in a.terms.items():
            e, r = divmod(d, c)
            if r or k < i or l < j:
                raise ArithmeticError("inexact polynomial division")
            out[k - i, l - j] = e
        return BiPoly(out)
    return _bipoly_from_profile(_long_div(a.x_profile(), b.x_profile(), _ZQ))


def bipoly_lcm(a: BiPoly, b: BiPoly) -> BiPoly:
    if a.is_zero() or b.is_zero():
        return BiPoly()
    return bipoly_div_exact(a * b, bipoly_gcd(a, b))


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def _exact_parts(v):
    """(BiPoly numerator, int denominator) of an exact constructor argument."""
    if isinstance(v, BiPoly):
        return v, 1
    if isinstance(v, (int, Fraction)):
        return BiPoly.const(v.numerator), v.denominator
    raise TypeError("rational function parts must be BiPoly, int or Fraction, "
                    f"not {type(v).__name__}")


def _cancel(num, den):
    """num/g and den/g for g = gcd(num, den); no gcd is taken when den is 1."""
    if den.is_one():
        return num, den
    g = bipoly_gcd(num, den)
    if g.is_one():
        return num, den
    return bipoly_div_exact(num, g), bipoly_div_exact(den, g)


def _reduced(num, den):
    """The RationalFunction num/den for coprime num and nonzero den (den 1
    when num is 0), with only the sign rule applied: a negative leading
    denominator coefficient flips both signs.  Every arithmetic result and
    every constructed value passes through here."""
    if den.leading_coefficient() < 0:
        num, den = -num, -den
    out = object.__new__(RationalFunction)
    out.num = num
    out.den = den
    return out


def _product(a, b, c, d):
    """(a/b)*(c/d) for coprime pairs (a, b) and (c, d), cancelled crosswise:
    a against d and c against b, and the reduced pieces multiply to a
    result already in lowest terms."""
    if a.is_zero() or c.is_zero():
        return _ZERO
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return _reduced(a * c, b * d)


class RationalFunction:
    """Reduced quotient of two BiPoly values.

    Invariants: gcd(num, den) = 1 and the denominator's leading coefficient
    (lexicographic (deg_x, deg_q) order) is positive, so equal functions have
    identical representations.  The constructor takes a full gcd; the
    arithmetic cancels only what can cancel (see the module docstring).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, nd = _exact_parts(num)
        den, dd = _exact_parts(den)
        if nd != dd:  # (num/nd) / (den/dd)
            num, den = num * dd, den * nd
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = BiPoly.const(1)
        else:
            num, den = _cancel(num, den)
        out = _reduced(num, den)
        self.num = out.num
        self.den = out.den

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def one(cls):
        return cls(1)

    @staticmethod
    def _coerce(v):
        if isinstance(v, RationalFunction):
            return v
        if isinstance(v, (BiPoly, int, Fraction)):
            return RationalFunction(v)
        return NotImplemented

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.is_one()

    def __add__(self, other):
        """a/b + c/d: with g = gcd(b, d) and t = a*(d/g) + c*(b/g), only
        gcd(t, g) can cancel, so g = 1 needs no second gcd."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            t = a + c
            if t.is_zero():
                return _ZERO
            return _reduced(*_cancel(t, b))
        g = bipoly_gcd(b, d)
        if g.is_one():
            return _reduced(a * d + c * b, b * d)
        bg, dg = bipoly_div_exact(b, g), bipoly_div_exact(d, g)
        t = a * dg + c * bg
        if t.is_zero():
            return _ZERO
        t, h = _cancel(t, g)
        return _reduced(t, bg * dg * h)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return _product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def shift_x(self, k):
        """Substitute x -> x*q^k (k may be negative).

        The substitution is an automorphism of Z[x, q, 1/q], so the images
        of the coprime numerator and denominator share no factor but a
        power of q, which a k of either sign can create.  Dividing both by
        the largest power of q that leaves all exponents non-negative
        removes it, with no gcd run; the leading denominator term stays
        the leading one.
        """
        if not k or self.is_zero():
            return self

        def subs(p):
            return {(i, j + k * i): c for (i, j), c in p.terms.items()}

        tn = subs(self.num)
        td = subs(self.den)
        low = min(j for _, j in (*tn, *td))
        if low:
            tn = {(i, j - low): c for (i, j), c in tn.items()}
            td = {(i, j - low): c for (i, j), c in td.items()}
        return _reduced(BiPoly(tn), BiPoly(td))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        ns = str(self.num)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        ds = str(self.den)
        if len(self.den.terms) > 1 or "*" in ds:  # a/(2*q), not a/2*q
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RationalFunction({self})"


_ZERO = RationalFunction(0)


# ---------------------------------------------------------------------------
# truncated q-series
# ---------------------------------------------------------------------------

class QSeries:
    """Power series in q truncated at an explicit order T.

    Coefficients are exact (int or Fraction).  They stay int through sums,
    products, `mul_poch`/`div_poch` with an integer c and factors of
    positive degree, and quotients by a series whose constant term is +1
    or -1; `/` is the one general division, and `invert` divides 1 by the
    series.  Arithmetic never reads beyond the truncation order; binary
    operations carry the minimum of the operand orders.  The order is per
    value, never implicit global state.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("order required for empty coefficient list")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        coeffs = coeffs[: order + 1]
        coeffs.extend([0] * (order + 1 - len(coeffs)))
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, order):
        return cls([], order)

    @classmethod
    def one(cls, order):
        return cls([1], order)

    @classmethod
    def monomial(cls, c, e, order):
        out = cls([], order)
        if 0 <= e <= order:
            out.coeffs[e] = c
        return out

    def __getitem__(self, n):
        if n < 0:
            return 0
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.coeffs[: order + 1], order)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        if isinstance(other, QSeries):
            t = min(self.order, other.order)
            return QSeries([self.coeffs[n] + other.coeffs[n] for n in range(t + 1)], t)
        if isinstance(other, (int, Fraction)):
            return QSeries([self.coeffs[0] + other, *self.coeffs[1:]], self.order)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            if isinstance(other, (int, Fraction)):
                return QSeries([c * other for c in self.coeffs], self.order)
            return NotImplemented
        t = min(self.order, other.order)
        out = [0] * (t + 1)
        for i, c in enumerate(self.coeffs):
            if i > t:
                break
            if c:
                lim = t - i
                for j, d in enumerate(other.coeffs):
                    if j > lim:
                        break
                    if d:
                        out[i + j] += c * d
        return QSeries(out, t)

    __rmul__ = __mul__

    def shift(self, e):
        """Multiply by q^e (e >= 0)."""
        if e < 0:
            raise ValueError("negative q-shift on a series")
        return QSeries([0] * e + self.coeffs, self.order)

    def mul_poch(self, c, start, step, n=None):
        """Multiply by prod_{0<=j<n} (1 + c*q^(start + j*step)), the
        infinite product when n is None: one pass per factor, from the top
        coefficient down (so a factor at q^0 scales by 1 + c), stopping at
        the first one it can change unless c is a Fraction."""
        out = list(self.coeffs)
        low = _leading_int_zeros(out) if type(c) is int else 0
        for e in _poch_exponents(c, start, step, n, self.order):
            for k in range(self.order, low + e - 1, -1):
                out[k] += c * out[k - e]
        return QSeries(out, self.order)

    def div_poch(self, c, start, step, n=None):
        """Divide by the product of `mul_poch`: one pass per factor, from
        the first coefficient the factor can change (the bottom one for a
        Fraction c) up, so each pass reads the coefficients it has already
        divided."""
        out = list(self.coeffs)
        low = _leading_int_zeros(out) if type(c) is int else 0
        for e in _poch_exponents(c, start, step, n, self.order):
            if e:
                for k in range(low + e, self.order + 1):
                    out[k] -= c * out[k - e]
            else:  # the constant 1 + c; dividing by -1 keeps an int an int
                out = [a * (-1 if c == -2 else Fraction(1, 1 + c)) for a in out]
        return QSeries(out, self.order)

    def __truediv__(self, other):
        """Exact quotient by a series with a nonzero constant term, one
        coefficient at a time from the divisor's nonzero terms.

        A divisor whose constant term is +1 or -1 is its own reciprocal
        there, so int coefficients give an int quotient; any other constant
        term divides as a Fraction.
        """
        c0 = other.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("cannot divide by a series with zero constant term")
        t = min(self.order, other.order)
        terms = [(k, c) for k, c in enumerate(other.coeffs[1:t + 1], 1) if c]
        unit = c0 in (1, -1)
        out = self.coeffs[:t + 1]
        # the quotient keeps the dividend's leading int 0s, unless a
        # Fraction in a unit divisor would make them Fraction(0)
        ints = type(c0) is int and all(type(c) is int for _, c in terms)
        for n in range(_leading_int_zeros(out) if ints or not unit else 0, t + 1):
            s = out[n]
            for k, c in terms:
                if k > n:
                    break
                s -= c * out[n - k]
            out[n] = s * c0 if unit else Fraction(s) / c0
        return QSeries(out if unit else [_simplify_coeff(c) for c in out], t)

    def invert(self):
        """Multiplicative inverse: 1 divided by the series."""
        return QSeries.one(self.order) / self

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def first_mismatch(self, other):
        """Smallest exponent where the two series differ, or None."""
        t = min(self.order, other.order)
        for n in range(t + 1):
            if self.coeffs[n] != other.coeffs[n]:
                return n
        return None

    def __str__(self):
        return _render_q_poly((n, c) for n, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        return f"QSeries({self}, order={self.order})"


def _simplify_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _leading_int_zeros(coeffs):
    """How many coefficients at the start are the int 0: an int times them
    is an int 0, which changes no value and no type where it is added."""
    return next((k for k, u in enumerate(coeffs) if u or type(u) is not int),
                len(coeffs))


def _poch_exponents(c, start, step, n, order):
    """The exponents start + j*step of the factors (1 + c*q^e) of a
    Pochhammer product: j < n, or every factor that reaches q^order when
    n is None.  Empty when c is 0, as every factor is then 1; a negative
    exponent is a ValueError otherwise."""
    if n is None:
        if step <= 0:
            raise ValueError("step must be positive")
        if start <= 0:
            raise ValueError("infinite products need exponents >= 1")
        exponents = range(start, order + 1, step)
    else:
        exponents = [start + j * step for j in range(n)]
        if c and min(exponents, default=0) < 0:
            raise ValueError(f"factor exponent {min(exponents)} is negative")
    return exponents if c else ()


def rf_x_coefficient_series(rf: RationalFunction, order: int) -> dict:
    """x-coefficients of a rational function whose denominator is x-free,
    each expanded as a QSeries (denominator constant term must be a unit)."""
    if rf.den.degree_x():
        raise ValueError("denominator involves x; not expandable per x-degree")
    den = QSeries(rf.den.x_profile()[0], order)
    return {i: QSeries(ql, order) / den
            for i, ql in enumerate(rf.num.x_profile()) if ql}


# ---------------------------------------------------------------------------
# parsing of rendered polynomials / rational functions
# ---------------------------------------------------------------------------

class ExpressionSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position


_EXPR_CHARS = frozenset("0123456789xq+-*/^() \t\n\r\f\v")
_BLANKS = str.maketrans("\t\n\r\f\v", "     ")  # one line, same length
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def parse_rational(text: str) -> RationalFunction:
    """Parse the textual form emitted by this module back into a value.

    Grammar: ASCII decimal integers, x, q, parentheses, unary + and -,
    binary +, -, *, / and ^ (or **) with a non-negative integer literal as
    the exponent.  Multiplication must be explicit.  The text is parsed by
    ``ast`` and the tree is walked, never run.
    """
    for i, c in enumerate(text):
        if c not in _EXPR_CHARS:
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    body = text.translate(_BLANKS).lstrip()
    source = body.replace("^", "**")

    def fail(message, k):
        # k indexes source, in which each "^" of body is "**"
        spots = [i for i, c in enumerate(body) for _ in range(1 + (c == "^"))]
        at = spots[k] if k < len(spots) else len(body)
        raise ExpressionSyntaxError(message, len(text) - len(body) + at)

    def literal(node):
        # of the int literals the allowed characters spell, 0x.. is not decimal
        return (isinstance(node, ast.Constant)
                and source[node.col_offset:node.end_col_offset].isdigit())

    def walk(node):
        # a left-nested chain (a + b - c*d) is folded in a loop, not recursed
        chain = []
        while isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            chain.append(node)
            node = node.left
        if isinstance(node, ast.Name) and node.id in ("x", "q"):
            value = RationalFunction(X if node.id == "x" else Q)
        elif literal(node):
            value = RationalFunction(node.value)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            value = -walk(node.operand)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            value = walk(node.operand)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if not literal(node.right):
                fail("exponent must be a non-negative integer",
                     node.right.col_offset)
            base, e = walk(node.left), node.right.value
            value = _reduced(base.num ** e, base.den ** e)
        else:
            fail("unsupported expression", node.col_offset)
        for link in reversed(chain):
            value = _BINARY[type(link.op)](value, walk(link.right))
        return value

    try:
        return walk(ast.parse(source, mode="eval").body)
    except SyntaxError as e:
        fail(e.msg, e.offset - 1 if e.offset else len(source))
    except RecursionError:
        fail("expression nested too deeply", 0)
