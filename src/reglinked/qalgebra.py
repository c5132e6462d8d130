"""Exact arithmetic kernel: bivariate integer polynomials in (x, q),
reduced rational functions, a matrix container for them, and truncated
q-series with exact rational coefficients.

No floating point anywhere.  Rational functions are kept in a canonical
reduced form (gcd 1, denominator with positive leading coefficient in the
lexicographic (deg_x, deg_q) term order), so structural equality decides
equality of functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd


# ---------------------------------------------------------------------------
# dense univariate polynomials over Z (used internally for gcd computations)
# ---------------------------------------------------------------------------

def _u_trim(a):
    # also trims x-profiles (lists of q-coefficient lists): [] is falsy
    while a and not a[-1]:
        a.pop()
    return a


def _u_add(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _u_trim(out)


def _u_neg(a):
    return [-c for c in a]


def _u_sub(a, b):
    return _u_add(a, _u_neg(b))


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


def _u_scale(a, k):
    if k == 0:
        return []
    return [c * k for c in a]


def _u_content(a):
    g = 0
    for c in a:
        g = _int_gcd(g, abs(c))
        if g == 1:
            break
    return g


def _u_primitive(a):
    g = _u_content(a)
    if g <= 1:
        return list(a), g
    return [c // g for c in a], g


def _u_pseudo_rem(a, b):
    # premultiplied remainder of a by b; only used inside the primitive PRS
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        lr = r[-1]
        dr = len(r) - 1
        r = [lb * c for c in r]
        for i, c in enumerate(b):
            r[dr - db + i] -= lr * c
        _u_trim(r)
    return r


def _u_gcd(a, b):
    a = _u_trim(list(a))
    b = _u_trim(list(b))
    if not a:
        g = b
    elif not b:
        g = a
    else:
        pa, ca = _u_primitive(a)
        pb, cb = _u_primitive(b)
        while pb:
            r = _u_pseudo_rem(pa, pb)
            pa, pb = pb, _u_primitive(r)[0]
        g = _u_scale(pa, _int_gcd(ca, cb))
    g = list(g)
    if g and g[-1] < 0:
        g = _u_neg(g)
    return g


def _u_div_exact(a, b):
    """Quotient a/b when the division is exact; raises otherwise."""
    a = _u_trim(list(a))
    b = _u_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    if len(a) < len(b):
        raise ArithmeticError("inexact polynomial division")
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(b) - 1]
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        c //= lb
        q[k] = c
        if c:
            for i, d in enumerate(b):
                r[k + i] -= c * d
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _u_trim(q)


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
        return cls({(0, 0): int(n)})

    @classmethod
    def monomial(cls, c, i, j):
        return cls({(i, j): c})

    @classmethod
    def var_x(cls):
        return cls({(1, 0): 1})

    @classmethod
    def var_q(cls):
        return cls({(0, 1): 1})

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

    def coefficient_in_x(self, i):
        """Dense q-coefficient list of x^i."""
        out = []
        for (a, b), c in self.terms.items():
            if a == i:
                if b >= len(out):
                    out.extend([0] * (b + 1 - len(out)))
                out[b] = c
        return _u_trim(out)

    def x_profile(self):
        """List of dense q-coefficient lists indexed by x-degree."""
        return [self.coefficient_in_x(i) for i in range(self.degree_x() + 1)]

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
        for i in range(self.degree_x() + 1):
            pairs = sorted((j, c) for (a, j), c in self.terms.items() if a == i)
            if not pairs:
                continue
            if i == 0:
                body = _render_q_poly(pairs)
                neg = body.startswith("-")
            elif len(pairs) == 1:
                j, c = pairs[0]
                neg = c < 0
                mag = abs(c)
                parts = [] if mag == 1 else [str(mag)]
                parts.append(self._x_piece(i))
                if j:
                    parts.append(self._q_piece(j))
                body = ("-" if neg else "") + "*".join(parts)
            else:
                neg = all(c < 0 for _, c in pairs)
                if neg:
                    pairs = [(j, -c) for j, c in pairs]
                body = ("-" if neg else "") + f"{self._x_piece(i)}*({_render_q_poly(pairs)})"
            if not chunks:
                chunks.append(body)
            elif body.startswith("-"):
                chunks.append(f"- {body[1:]}")
            else:
                chunks.append(f"+ {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"BiPoly({self})"


X = BiPoly.var_x()
Q = BiPoly.var_q()


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
    t = {}
    for i, ql in enumerate(prof):
        for j, c in enumerate(ql):
            if c:
                t[(i, j)] = c
    return BiPoly(t)


def _profile_content(prof):
    g = []
    for ql in prof:
        g = _u_gcd(g, ql)
        if g == [1]:
            break
    return g


def _profile_primitive(prof):
    g = _profile_content(prof)
    if g == [1] or not g:
        return prof
    return [_u_div_exact(ql, g) for ql in prof]


def _x_pseudo_rem(a, b):
    # a, b: lists of q-coefficient lists; primitive PRS step in x
    r = [list(ql) for ql in a]
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        lr = r[-1]
        dr = len(r) - 1
        r = [_u_mul(ql, lb) for ql in r]
        for i, ql in enumerate(b):
            r[dr - db + i] = _u_sub(r[dr - db + i], _u_mul(ql, lr))
        _u_trim(r)
    return r


def bipoly_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    """gcd in Z[x, q], sign-normalized so the leading coefficient is positive.

    Computed as a univariate gcd in x over Z[q] with content/primitive-part
    handling (primitive pseudo-remainder sequence).  Fast enough for the
    shipped spec; on larger systems its intermediate integers grow without
    bound and it dominates `triangularize` (some 9-state specs take over a
    minute).
    """
    if a.is_zero() and b.is_zero():
        return BiPoly()
    if a.is_zero():
        g = b
        return -g if g.leading_coefficient() < 0 else g
    if b.is_zero():
        g = a
        return -g if a.leading_coefficient() < 0 else g
    pa = _u_trim(a.x_profile())
    pb = _u_trim(b.x_profile())
    ca = _profile_content(pa)
    cb = _profile_content(pb)
    pa = _profile_primitive(pa)
    pb = _profile_primitive(pb)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        r = _x_pseudo_rem(pa, pb)
        pa, pb = pb, _profile_primitive(_u_trim(r))
    g = _bipoly_from_profile([_u_mul(ql, _u_gcd(ca, cb)) for ql in pa])
    if g.leading_coefficient() < 0:
        g = -g
    return g


def bipoly_div_exact(a: BiPoly, b: BiPoly) -> BiPoly:
    """Exact quotient a/b in Z[x, q]; raises ArithmeticError if inexact."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return BiPoly()
    pa = _u_trim(a.x_profile())
    pb = _u_trim(b.x_profile())
    if len(pa) < len(pb):
        raise ArithmeticError("inexact bivariate division")
    out = [[] for _ in range(len(pa) - len(pb) + 1)]
    lb = pb[-1]
    for k in range(len(out) - 1, -1, -1):
        c = _u_div_exact(pa[k + len(pb) - 1], lb)
        out[k] = c
        if c:
            for i, ql in enumerate(pb):
                pa[k + i] = _u_sub(pa[k + i], _u_mul(ql, c))
    if any(ql for ql in pa):
        raise ArithmeticError("inexact bivariate division")
    return _bipoly_from_profile(out)


def bipoly_lcm(a: BiPoly, b: BiPoly) -> BiPoly:
    if a.is_zero() or b.is_zero():
        return BiPoly()
    return bipoly_div_exact(a * b, bipoly_gcd(a, b))


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Reduced quotient of two BiPoly values.

    Invariants: gcd(num, den) = 1 and the denominator's leading coefficient
    (lexicographic (deg_x, deg_q) order) is positive, so equal functions have
    identical representations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, int):
            num = BiPoly.const(num)
        if isinstance(den, int):
            den = BiPoly.const(den)
        if isinstance(num, Fraction):
            den = den * num.denominator
            num = BiPoly.const(num.numerator)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = BiPoly()
            self.den = BiPoly.const(1)
            return
        g = bipoly_gcd(num, den)
        if not g.is_one():
            num = bipoly_div_exact(num, g)
            den = bipoly_div_exact(den, g)
        if den.leading_coefficient() < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

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
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

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

        Negative powers of q are cleared by scaling numerator and denominator
        with the minimal q-power, keeping all exponents non-negative.
        """
        def subs(p):
            return {(i, j + k * i): c for (i, j), c in p.terms.items()}

        tn = subs(self.num)
        td = subs(self.den)
        low = min((j for _, j in tn), default=0)
        low = min(low, min((j for _, j in td), default=0))
        if low < 0:
            tn = {(i, j - low): c for (i, j), c in tn.items()}
            td = {(i, j - low): c for (i, j), c in td.items()}
        return RationalFunction(BiPoly(tn), BiPoly(td))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        ns = str(self.num)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        ds = str(self.den)
        if len(self.den.terms) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RationalFunction({self})"


# ---------------------------------------------------------------------------
# matrices of rational functions
# ---------------------------------------------------------------------------

class RfMatrix:
    """Rectangular matrix with RationalFunction entries."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        rows = tuple(tuple(RationalFunction._coerce(e) for e in r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged matrix")
        self.entries = rows

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, RfMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.entries)


# ---------------------------------------------------------------------------
# truncated q-series
# ---------------------------------------------------------------------------

class QSeries:
    """Power series in q truncated at an explicit order T.

    Coefficients are exact (int or Fraction).  They stay int through sums,
    products and the inverse of a series whose constant term is +1 or -1,
    which covers every Pochhammer product in this library.  Arithmetic
    never reads beyond the truncation order; binary operations carry the
    minimum of the operand orders.  The order is per value, never implicit
    global state.
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
        if isinstance(other, (int, Fraction)):
            out = QSeries(self.coeffs, self.order)
            out.coeffs[0] += other
            return out
        t = min(self.order, other.order)
        return QSeries([self.coeffs[n] + other.coeffs[n] for n in range(t + 1)], t)

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries([c * other for c in self.coeffs], self.order)
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

    def mul_one_plus(self, c, e):
        """Multiply by (1 + c*q^e) in place-free fashion; e >= 1."""
        out = list(self.coeffs)
        if c and e <= self.order:
            for n in range(self.order, e - 1, -1):
                out[n] += c * self.coeffs[n - e]
        return QSeries(out, self.order)

    def invert(self):
        """Multiplicative inverse; requires a nonzero constant term.

        A constant term of +1 or -1 is its own inverse, so the recurrence
        stays in the coefficients' own ring: int coefficients give an int
        inverse.  Any other constant term is inverted as a Fraction.  The
        recurrence reads only the nonzero coefficients of the divisor.
        """
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("cannot invert a series with zero constant term")
        inv0 = c0 if c0 in (1, -1) else Fraction(1, 1) / c0
        terms = [(k, c) for k, c in enumerate(self.coeffs) if k and c]
        out = [inv0] + [0] * self.order
        for n in range(1, self.order + 1):
            s = 0
            for k, c in terms:
                if k > n:
                    break
                s += c * out[n - k]
            out[n] = -inv0 * s
        return QSeries([_simplify_coeff(c) for c in out], self.order)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(1, 1) / other
            return QSeries([_simplify_coeff(c * f) for c in self.coeffs], self.order)
        return self * other.invert()

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


def product_series(factors, order):
    """Product of (1 + c*q^e) over the given (c, e) pairs, truncated.

    Factors with e > order are identically 1 at this truncation and are
    skipped; a factor with e == 0 scales the whole series by (1 + c).
    """
    out = QSeries.one(order)
    for c, e in factors:
        if e > order:
            continue
        if e == 0:
            out = out * (1 + c)
        else:
            out = out.mul_one_plus(c, e)
    return out


def poch_inf(c, start, step, order):
    """Truncation of prod_{j>=0} (1 + c*q^(start + j*step))."""
    if step <= 0:
        raise ValueError("step must be positive")
    if start <= 0:
        raise ValueError("infinite products need exponents >= 1")
    return product_series(((c, e) for e in range(start, order + 1, step)), order)


def poch_finite(c, start, step, n, order):
    """Truncation of prod_{0<=j<n} (1 + c*q^(start + j*step))."""
    return product_series(((c, start + j * step) for j in range(n)), order)


def pochhammer_inverse(residues, modulus, order):
    """Coefficients of 1 / prod_i (q^{a_i}; q^modulus)_inf through q^order."""
    prod = QSeries.one(order)
    for a in residues:
        prod = prod * poch_inf(-1, a, modulus, order)
    return prod.invert()


def rf_x_coefficient_series(rf: RationalFunction, order: int) -> dict:
    """x-coefficients of a rational function whose denominator is x-free,
    each expanded as a QSeries (denominator constant term must be a unit)."""
    if rf.den.degree_x():
        raise ValueError("denominator involves x; not expandable per x-degree")
    den = QSeries(rf.den.coefficient_in_x(0), order)
    dinv = den.invert()
    out = {}
    for i in range(rf.num.degree_x() + 1):
        ql = rf.num.coefficient_in_x(i)
        if ql:
            out[i] = QSeries(ql, order) * dinv
    return out


# ---------------------------------------------------------------------------
# parsing of rendered polynomials / rational functions
# ---------------------------------------------------------------------------

class ExpressionSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position


def parse_rational(text: str) -> RationalFunction:
    """Parse the textual form emitted by this module back into a value.

    Grammar: integers, x, q, parentheses, unary minus, +, -, *, /, and ^
    (or **) for powers.  Multiplication must be explicit.
    """
    tokens = _tokenize_expr(text)
    pos = [0]

    def peek():
        return tokens[pos[0]][0] if pos[0] < len(tokens) else None

    def take(kind=None):
        if pos[0] >= len(tokens):
            raise ExpressionSyntaxError("unexpected end of expression", len(text))
        tok = tokens[pos[0]]
        if kind and tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind}, found {tok[0]}", tok[2])
        pos[0] += 1
        return tok

    def parse_sum():
        sign = 1
        while peek() in ("+", "-"):
            if take()[0] == "-":
                sign = -sign
        value = parse_product() * sign
        while peek() in ("+", "-"):
            op = take()[0]
            rhs_sign = 1 if op == "+" else -1
            while peek() in ("+", "-"):
                if take()[0] == "-":
                    rhs_sign = -rhs_sign
            value = value + parse_product() * rhs_sign
        return value

    def parse_product():
        value = parse_power()
        while peek() in ("*", "/"):
            op = take()[0]
            rhs = parse_power()
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            tok = take()
            etok = take("int")
            e = etok[1]
            if e < 0:
                raise ExpressionSyntaxError("negative exponent", tok[2])
            out = RationalFunction.one()
            for _ in range(e):
                out = out * base
            return out
        return base

    def parse_atom():
        tok = take()
        kind = tok[0]
        if kind == "int":
            return RationalFunction(tok[1])
        if kind == "x":
            return RationalFunction(X)
        if kind == "q":
            return RationalFunction(Q)
        if kind == "(":
            value = parse_sum()
            take(")")
            return value
        if kind == "-":
            return -parse_atom()
        raise ExpressionSyntaxError(f"unexpected token {kind!r}", tok[2])

    value = parse_sum()
    if pos[0] != len(tokens):
        raise ExpressionSyntaxError("trailing input", tokens[pos[0]][2])
    return value


def _tokenize_expr(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if c in "xq":
            tokens.append((c, None, i))
            i += 1
            continue
        if text.startswith("**", i):
            tokens.append(("^", None, i))
            i += 2
            continue
        if c in "+-*/()^":
            tokens.append((c, None, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    return tokens
