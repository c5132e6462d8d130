"""Integer partitions, the mod-14 difference conditions as executable
predicates (in part form and in multiplicity form), the brute-force
enumeration oracle, and the block-shift maps used by the encoders.
"""

from __future__ import annotations

from dataclasses import dataclass


class Partition:
    """Weakly decreasing sequence of positive integers; immutable."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError("parts must be positive integers")
            if i and parts[i - 1] < p:
                raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __reduce__(self):
        return Partition, (self.parts,)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    @property
    def weight(self):
        return sum(self.parts)

    def multiplicity(self, i):
        return sum(1 for p in self.parts if p == i)

    def is_empty(self):
        return not self.parts


EMPTY = Partition(())


class MultiplicityVector:
    """Finitely supported multiplicities; mults[i-1] counts parts equal to i."""

    __slots__ = ("mults",)

    def __init__(self, mults=()):
        mults = list(int(m) for m in mults)
        if any(m < 0 for m in mults):
            raise ValueError("multiplicities must be non-negative")
        while mults and mults[-1] == 0:
            mults.pop()
        object.__setattr__(self, "mults", tuple(mults))

    def __setattr__(self, name, value):
        raise AttributeError("MultiplicityVector is immutable")

    def __reduce__(self):
        return MultiplicityVector, (self.mults,)

    def __getitem__(self, i):
        # 1-based part value; zero beyond the support
        if i < 1:
            raise IndexError("part values start at 1")
        return self.mults[i - 1] if i <= len(self.mults) else 0

    def support_bound(self):
        return len(self.mults)

    def shifted(self, k):
        """Shift right by k (k > 0) or left by -k (k < 0)."""
        if k >= 0:
            return MultiplicityVector((0,) * k + self.mults)
        return MultiplicityVector(self.mults[-k:])

    def __eq__(self, other):
        return isinstance(other, MultiplicityVector) and self.mults == other.mults

    def __hash__(self):
        return hash(self.mults)

    def __repr__(self):
        return f"MultiplicityVector{self.mults}"


def to_multiplicities(p: Partition) -> MultiplicityVector:
    if not p.parts:
        return MultiplicityVector(())
    out = [0] * p.parts[0]
    for part in p.parts:
        out[part - 1] += 1
    return MultiplicityVector(out)


def from_multiplicities(f: MultiplicityVector) -> Partition:
    parts = []
    for i in range(len(f.mults), 0, -1):
        parts.extend([i] * f.mults[i - 1])
    return Partition(parts)


def phi_plus(p: Partition, k: int = 1) -> Partition:
    """Add k to every part (shift the multiplicity vector right by k)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Partition(tuple(x + k for x in p.parts))


def phi_minus(p: Partition, k: int = 1) -> Partition:
    """Subtract k from every part, discarding parts <= k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Partition(tuple(x - k for x in p.parts if x > k))


def oplus(a: Partition, b: Partition) -> Partition:
    """Multiset union of parts, reordered weakly decreasing."""
    return Partition(sorted(a.parts + b.parts, reverse=True))


def weight_monomial(p: Partition):
    """x^(number of parts) * q^(sum of parts) as a BiPoly."""
    from .qalgebra import BiPoly
    return BiPoly.monomial(1, len(p), p.weight)


def truncate_le(p: Partition, m: int) -> Partition:
    """Keep the parts <= m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Partition(tuple(x for x in p.parts if x <= m))


def truncate_gt(p: Partition, m: int) -> Partition:
    """Keep the parts > m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Partition(tuple(x for x in p.parts if x > m))


# ---------------------------------------------------------------------------
# the mod-14 conditions
# ---------------------------------------------------------------------------

def _nandi_parts_ok(parts) -> bool:
    n = len(parts)
    for i in range(n - 1):
        if parts[i] - parts[i + 1] == 1:
            return False
    for i in range(n - 2):
        a, b, c = parts[i], parts[i + 1], parts[i + 2]
        d = a - c
        if d < 3:
            return False
        if d == 3:
            if a == b:
                return False
            if a % 2 and b == c:
                return False
        elif d == 4 and a % 2:
            if a == b or b == c:
                return False
    # forbid the difference-sequence window (3, 2, ..., 2, 3, 0)
    if n >= 4:
        diffs = [parts[i] - parts[i + 1] for i in range(n - 1)]
        nd = len(diffs)
        for s in range(nd):
            if diffs[s] != 3:
                continue
            j = s + 1
            while j < nd and diffs[j] == 2:
                j += 1
            if j + 1 < nd and diffs[j] == 3 and diffs[j + 1] == 0:
                return False
    return True


def satisfies_nandi(p: Partition) -> bool:
    """All six difference conditions defining the base class."""
    return _nandi_parts_ok(p.parts)


def satisfies_nandi_mult(f: MultiplicityVector) -> bool:
    """Same class decided on the multiplicity vector alone.

    Scans are bounded by the support of f: every forbidden window must end
    at an index with a positive entry, so nothing beyond the support can
    complete a match.
    """
    n = f.support_bound()
    g = f.__getitem__
    for j in range(1, n + 1):
        if g(j) and g(j + 1):
            return False
        if g(j) + g(j + 1) + g(j + 2) >= 3:
            return False
        if g(j) >= 1 and g(j + 1) == 0 and g(j + 2) == 0 and g(j + 3) >= 2:
            return False
    for j in range(1, n // 2 + 2):
        if g(2 * j) >= 2 and g(2 * j + 1) == 0 and g(2 * j + 2) == 0 and g(2 * j + 3) >= 1:
            return False
        if (g(2 * j - 1) >= 2 and g(2 * j) == 0 and g(2 * j + 1) == 0
                and g(2 * j + 2) == 0 and g(2 * j + 3) >= 1):
            return False
        if (g(2 * j - 1) >= 1 and g(2 * j) == 0 and g(2 * j + 1) == 0
                and g(2 * j + 2) == 0 and g(2 * j + 3) >= 2):
            return False
    # windows (>=2, 0, 0, 1, (0,1)^k, 0, 0, >=1) for k >= 0
    for j in range(1, n + 1):
        if g(j) < 2 or g(j + 1) or g(j + 2) or g(j + 3) != 1:
            continue
        k = 0
        while j + 2 * k + 6 <= n:
            if k and (g(j + 2 + 2 * k) != 0 or g(j + 3 + 2 * k) != 1):
                break
            if g(j + 4 + 2 * k) == 0 and g(j + 5 + 2 * k) == 0 and g(j + 6 + 2 * k) >= 1:
                return False
            k += 1
    return True


def _class_extra_ok(parts, a) -> bool:
    """The class-a condition on top of the base difference conditions;
    parts is a weakly decreasing tuple or list."""
    if a == 1:
        return not parts or parts[-1] != 1
    if a not in (2, 3):
        raise ValueError("class index must be 1, 2 or 3")
    m1, m2, m3 = parts.count(1), parts.count(2), parts.count(3)
    if a == 2:
        return m1 <= 1 and m2 <= 1 and m3 <= 1
    if m1 or m3 or m2 > 1:
        return False
    # forbid a contiguous run (2k+3, 2k, 2k-2, ..., 4, 2); its first
    # entry is a part, so k is bounded by the largest part
    if not parts:
        return True
    parts = tuple(parts)
    n = len(parts)
    for k in range(1, (parts[0] - 3) // 2 + 1):
        pat = (2 * k + 3,) + tuple(2 * (k - t) for t in range(k))
        w = len(pat)
        for s in range(n - w + 1):
            if parts[s:s + w] == pat:
                return False
    return True


def in_class(p: Partition, a: int) -> bool:
    """Membership in the a-th mod-14 class (a = 1, 2, 3)."""
    return _nandi_parts_ok(p.parts) and _class_extra_ok(p.parts, a)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

def _raw_partitions_of(n):
    """Yield partitions of n as lists, lexicographically decreasing."""
    if n == 0:
        yield []
        return
    a = [n]
    while True:
        yield a
        j = len(a) - 1
        while j >= 0 and a[j] == 1:
            j -= 1
        if j < 0:
            return
        a[j] -= 1
        rem = len(a) - 1 - j + 1
        del a[j + 1:]
        m = a[j]
        while rem > m:
            a.append(m)
            rem -= m
        if rem:
            a.append(rem)


def partitions_of(n: int):
    """All partitions of n in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for raw in _raw_partitions_of(n):
        yield Partition(tuple(raw))


def count_all_class_series(order: int):
    """One exhaustive sweep; returns {a: [c_0..c_order]} for a = 1, 2, 3."""
    sweep = _sweep_counts(order)
    return {a: [row[a] for row in sweep] for a in (1, 2, 3)}


def _sweep_counts(order):
    if order < 0:
        raise ValueError("order must be >= 0")
    out = []
    for n in range(order + 1):
        row = {1: 0, 2: 0, 3: 0}
        for raw in _raw_partitions_of(n):
            if not _nandi_parts_ok(raw):
                continue
            for a in (1, 2, 3):
                if _class_extra_ok(raw, a):
                    row[a] += 1
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# block-shift stability check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulusCheck:
    """Outcome of the two-clause stability check; truthy iff it passed."""

    ok: bool
    clause: str | None = None
    witness: Partition | None = None

    def __bool__(self):
        return self.ok


def check_modulus_conditions(membership, m: int, bound: int) -> ModulusCheck:
    """Verify, for all partitions of weight <= bound, that the class is
    stable under keeping the parts <= m and under subtracting m from all
    parts; returns a falsy result carrying a witness on failure."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    for n in range(bound + 1):
        for p in partitions_of(n):
            if not membership(p):
                continue
            if not membership(truncate_le(p, m)):
                return ModulusCheck(False, "truncate_le", p)
            if not membership(phi_minus(p, m)):
                return ModulusCheck(False, "phi_minus", p)
    return ModulusCheck(True)
