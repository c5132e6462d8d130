"""Reduction of a coupled first-order q-difference system to a single
higher-order equation for one chosen component.

The pipeline is: permute the target component first, triangularize the
coefficient matrix by conjugating with one-special-row transforms, each
carried out as one row step and one column sweep (with a deterministic
smallest-index swap rule), then back-substitute the rows to
eliminate every component but the first, and finally bring the equation to
a normal form (lowest shift at index zero, denominators cleared, common
polynomial factor removed, leading coefficient one when it is constant).
`derive_equation` runs the whole chain from a block specification.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linked import QDifferenceSystem, derive_system, state_for_class
from .qalgebra import (
    BiPoly, RationalFunction, bipoly_div_exact, bipoly_gcd, bipoly_lcm,
)


class TriangularizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class QDifferenceEquation:
    """sum_i coeffs[i](x, q) * F(x * q^(step*i)) = 0, with coeffs[0] != 0
    and coeffs[-1] != 0."""

    step: int
    coeffs: tuple[RationalFunction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("an equation needs at least one coefficient")
        if self.coeffs[0].is_zero() or self.coeffs[-1].is_zero():
            raise ValueError("equation coefficients must be trimmed")

    @property
    def order(self):
        return len(self.coeffs) - 1


def reorder(sys: QDifferenceSystem, order) -> QDifferenceSystem:
    """Simultaneous row, column and seed permutation to the given order."""
    order = tuple(order)
    if sorted(order) != sorted(sys.labels):
        raise ValueError("order must be a permutation of the system labels")
    pos = {lab: sys.labels.index(lab) for lab in order}
    rows = tuple(tuple(sys.matrix[pos[r]][pos[c]] for c in order) for r in order)
    return QDifferenceSystem(sys.step, order, rows,
                             tuple(sys.seed[pos[lab]] for lab in order))


def reorder_first(sys: QDifferenceSystem, target) -> QDifferenceSystem:
    """Move the target label to the front; the other rows keep their order."""
    if target not in sys.labels:
        raise ValueError(f"unknown label {target!r}")
    rest = tuple(lab for lab in sys.labels if lab != target)
    return reorder(sys, (target,) + rest)


def _assert_triangular_shape(p, s):
    # rows 0..s-2 must have a superdiagonal 1 and zeros beyond it
    one = RationalFunction.one()
    n = len(p)
    for i in range(s - 1):
        if p[i][i + 1] != one:
            raise TriangularizationError(
                f"shape invariant violated: entry ({i},{i + 1}) is not 1")
        for j in range(i + 2, n):
            if not p[i][j].is_zero():
                raise TriangularizationError(
                    f"shape invariant violated: entry ({i},{j}) is not 0")


def triangularize(sys: QDifferenceSystem):
    """Run the triangularization loop; returns (l', P) where P is the full
    matrix at the moment of return, a tuple of row tuples, and its top-left
    l' x l' block is the reduced system.

    Step s conjugates P by the transform T that is the identity except in
    row s, which holds t_j = P[s-1][j] for j >= s:
    P <- T(x q^-m) P T(x)^-1.  That is one row step (row s becomes
    sum_j t_j(x q^-m) P[j]) and one column sweep (in every row, column s is
    divided by the pivot t_s and that quotient times t_j is subtracted from
    column j > s); zero factors are skipped.

    Deterministic: when a swap is needed, the smallest admissible index is
    chosen.
    """
    n = len(sys.labels)
    p = sys.matrix
    m = sys.step
    for s in range(1, n + 1):
        _assert_triangular_shape(p, s)
        row = s - 1
        if all(p[row][j].is_zero() for j in range(s, n)):
            return s, p
        entries = [list(r) for r in p]
        if p[row][s].is_zero():
            # a pivot exists: the test above found a nonzero entry past column s
            t = next(j for j in range(s + 1, n) if not p[row][j].is_zero())
            entries[s], entries[t] = entries[t], entries[s]
            for r in entries:
                r[s], r[t] = r[t], r[s]
        pivot = entries[row][s]
        tail = [(j, entries[row][j]) for j in range(s + 1, n)
                if not entries[row][j].is_zero()]
        shifted = [(j, tj.shift_x(-m)) for j, tj in [(s, pivot)] + tail]
        terms = [[tj * entries[j][k] for j, tj in shifted
                  if not entries[j][k].is_zero()] for k in range(n)]
        entries[s] = [sum(ts[1:], ts[0]) if ts else RationalFunction.zero()
                      for ts in terms]
        for r in entries:
            if r[s].is_zero():
                continue
            c = r[s] / pivot
            r[s] = c
            for j, tj in tail:
                r[j] = r[j] - c * tj
        p = tuple(map(tuple, entries))


def eliminate(l_prime: int, p, step: int) -> QDifferenceEquation:
    """Back-substitute the triangularized system, the matrix p that
    `triangularize` returns, into a single equation for the first component.

    Row i (for i < l') rewrites component i+1 at any shift in terms of
    component i one step lower and components j <= i at the same shift;
    substituting from the last component down leaves shifts of the first
    component only.  The shift range is then re-based at zero (an x
    substitution), which makes the result representable with indices 0..L.
    """
    if not 1 <= l_prime <= len(p):
        raise ValueError(f"l_prime {l_prime} is not in 1..{len(p)}")
    s = l_prime
    # comps[j]: shift -> coefficient of component j, seeded from row s-1
    comps = [{} for _ in range(s)]
    comps[s - 1][0] = RationalFunction(-1)
    for j, c in enumerate(p[s - 1][:s]):
        if not c.is_zero():
            comps[j][1] = c
    for comp in range(s - 1, 0, -1):
        row = p[comp - 1]
        for k, c in comps[comp].items():
            _add(comps[comp - 1], k - 1, c)
            for j in range(comp):
                if not row[j].is_zero():
                    _add(comps[j], k, -(c * row[j].shift_x(step * (k - 1))))
    # the lowest shift holds just the -1 that each substitution moved one
    # shift down, so the equation is nonempty and trimmed
    eq = comps[0]
    kmin = min(eq)
    zero = RationalFunction.zero()
    return QDifferenceEquation(step, tuple(
        eq.get(k, zero).shift_x(-step * kmin) for k in range(kmin, max(eq) + 1)))


def _add(terms, k, c):
    """terms[k] += c, dropping the entry when the sum is zero."""
    total = terms[k] + c if k in terms else c
    if total.is_zero():
        terms.pop(k, None)
    else:
        terms[k] = total


def normalize_equation(eq: QDifferenceEquation) -> QDifferenceEquation:
    """Canonical form: clear denominators, remove the common polynomial
    factor of all coefficients, and scale so that the leading coefficient
    is 1 when it is a constant (otherwise make its leading term positive).
    Idempotent."""
    common = BiPoly.const(1)
    for c in eq.coeffs:
        common = bipoly_lcm(common, c.den)
    nums = [c.num * bipoly_div_exact(common, c.den) for c in eq.coeffs]
    g = BiPoly()
    for p in nums:
        g = bipoly_gcd(g, p)
        if g.is_one():
            break
    if not g.is_one() and not g.is_zero():
        nums = [bipoly_div_exact(p, g) for p in nums]
    if nums[0].is_constant():
        c0 = nums[0].constant_value()
        coeffs = tuple(RationalFunction(p, c0) for p in nums)
    elif nums[0].leading_coefficient() < 0:
        coeffs = tuple(RationalFunction(-p) for p in nums)
    else:
        coeffs = tuple(RationalFunction(p) for p in nums)
    return QDifferenceEquation(eq.step, coeffs)


def derive_equation(spec, target_regex):
    """The whole derivation for one class: look up the target state, then
    reorder -> triangularize -> eliminate -> normalize.

    target_regex is the parsed Regex of the class's forbidden prefixes.
    Returns (state, reordered system, l', P, equation).
    """
    state = state_for_class(spec, target_regex)
    system = reorder_first(derive_system(spec), state)
    l_prime, p = triangularize(system)
    eq = normalize_equation(eliminate(l_prime, p, system.step))
    return state, system, l_prime, p, eq


# ---------------------------------------------------------------------------
# structured text serialization
# ---------------------------------------------------------------------------

def equation_to_text(eq: QDifferenceEquation) -> str:
    lines = [f"step: {eq.step}"]
    for i, c in enumerate(eq.coeffs):
        lines.append(f"coeff {i}: {c}")
    return "\n".join(lines) + "\n"

