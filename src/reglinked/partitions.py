"""Integer partitions and their multiplicity vectors, the mod-14
difference conditions as executable predicates (in part form and in
multiplicity form), and the prefix-pruned enumeration walk.
"""

from __future__ import annotations


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

    def is_empty(self):
        return not self.parts


EMPTY = Partition(())


class MultiplicityVector:
    """Finitely supported multiplicities; mults[i-1] counts parts equal to i."""

    __slots__ = ("mults",)

    def __init__(self, mults=()):
        mults = list(map(int, mults))
        if mults and min(mults) < 0:
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

    def __eq__(self, other):
        return isinstance(other, MultiplicityVector) and self.mults == other.mults

    def __hash__(self):
        return hash(self.mults)

    def __repr__(self):
        return f"MultiplicityVector{self.mults}"


def to_multiplicities(p: Partition) -> MultiplicityVector:
    """The counts of p's parts; built unvalidated, since the count of
    p's largest part is positive, so the vector has no trailing zero."""
    out = [0] * (p.parts[0] if p.parts else 0)
    for part in p.parts:
        out[part - 1] += 1
    f = object.__new__(MultiplicityVector)
    object.__setattr__(f, "mults", tuple(out))
    return f


def from_multiplicities(f: MultiplicityVector) -> Partition:
    parts = []
    for i in range(len(f.mults), 0, -1):
        parts.extend([i] * f.mults[i - 1])
    return Partition(parts)


def weight_monomial(p: Partition):
    """x^(number of parts) * q^(sum of parts) as a BiPoly."""
    from .qalgebra import BiPoly
    return BiPoly.monomial(1, len(p), p.weight)


# ---------------------------------------------------------------------------
# the mod-14 conditions
# ---------------------------------------------------------------------------

def _window_ok(parts, k) -> bool:
    """The base-class windows that end at index k of a weakly decreasing
    sequence; a partition is in the base class iff they pass at every k."""
    if k and parts[k - 1] - parts[k] == 1:
        return False
    if k < 2:
        return True
    a, b, c = parts[k - 2], parts[k - 1], parts[k]
    if a - c < 3 or a - c == 3 and (a == b or a % 2 and b == c):
        return False
    if a - c == 4 and a % 2 and (a == b or b == c):
        return False
    # the difference window (3, 2, ..., 2, 3, 0)
    return not (b == c and a - b == 3 and _twos_then_three(parts, k - 2))


def _twos_then_three(parts, i) -> bool:
    """Whether the differences read back from index i are some number of
    2s and then a 3."""
    while i and parts[i - 1] - parts[i] == 2:
        i -= 1
    return bool(i) and parts[i - 1] - parts[i] == 3


def satisfies_nandi(p: Partition) -> bool:
    """All six difference conditions defining the base class."""
    parts = p.parts
    for k in range(len(parts)):
        if not _window_ok(parts, k):
            return False
    return True


def satisfies_nandi_mult(f: MultiplicityVector) -> bool:
    """Same class decided on the multiplicity vector alone.

    Scans are bounded by the support of f: every forbidden window must end
    at an index with a positive entry, so nothing beyond the support can
    complete a match.  g[i] counts the parts equal to i, zero-padded
    through i = n + 5, the furthest entry a window reads.
    """
    n = f.support_bound()
    g = (0,) + f.mults + (0,) * 5
    for j in range(1, n + 1):
        if g[j] and g[j + 1]:
            return False
        if g[j] + g[j + 1] + g[j + 2] >= 3:
            return False
        if g[j] >= 1 and g[j + 1] == 0 and g[j + 2] == 0 and g[j + 3] >= 2:
            return False
    for j in range(1, n // 2 + 2):
        if g[2 * j] >= 2 and g[2 * j + 1] == 0 and g[2 * j + 2] == 0 and g[2 * j + 3] >= 1:
            return False
        if (g[2 * j - 1] >= 2 and g[2 * j] == 0 and g[2 * j + 1] == 0
                and g[2 * j + 2] == 0 and g[2 * j + 3] >= 1):
            return False
        if (g[2 * j - 1] >= 1 and g[2 * j] == 0 and g[2 * j + 1] == 0
                and g[2 * j + 2] == 0 and g[2 * j + 3] >= 2):
            return False
    # windows (>=2, 0, 0, 1, (0,1)^k, 0, 0, >=1) for k >= 0
    for j in range(1, n + 1):
        if g[j] < 2 or g[j + 1] or g[j + 2] or g[j + 3] != 1:
            continue
        k = 0
        while j + 2 * k + 6 <= n:
            if k and (g[j + 2 + 2 * k] != 0 or g[j + 3 + 2 * k] != 1):
                break
            if g[j + 4 + 2 * k] == 0 and g[j + 5 + 2 * k] == 0 and g[j + 6 + 2 * k] >= 1:
                return False
            k += 1
    return True


def _class_extra_ok(parts, a) -> bool:
    """The class-a condition on top of the base difference conditions;
    parts is a weakly decreasing tuple or list, so the parts <= 3 that
    the conditions name form its tail, and at most the last four parts
    are read."""
    if a == 1:
        return not parts or parts[-1] != 1
    if a == 2:
        # four parts <= 3 cannot all differ, so the last four parts show
        # every repeat the condition forbids
        tail = parts[-4:]
        return tail.count(1) < 2 and tail.count(2) < 2 and tail.count(3) < 2
    if a != 3:
        raise ValueError("class index must be 1, 2 or 3")
    # the tail is empty, or one 2 that ends no run (2k+3, 2k, ..., 4, 2)
    n = len(parts)
    return not parts or parts[-1] > 3 or parts[-1] == 2 and (
        n == 1 or parts[-2] > 3) and not _twos_then_three(parts, n - 1)


def in_class(p: Partition, a: int) -> bool:
    """Membership in the a-th mod-14 class (a = 1, 2, 3); any other a is a
    ValueError, whatever p.  The class condition reads only the tail, so
    it runs first."""
    return _class_extra_ok(p.parts, a) and satisfies_nandi(p)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def partitions_of(n: int):
    """All partitions of n in lexicographically decreasing order, each
    made from the one before by Zoghbi and Stojmenovic's ZS1 (Int. J.
    Comput. Math. 70, 1998): x holds the parts followed by 1s, h indexes
    the last part above 1, and the next partition lowers x[h] by one and
    packs what it frees, with the 1s after h, into parts no larger.  The
    parts stay positive and weakly decreasing, so each partition is built
    without the constructor's validation."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x, m, h = [n] + [1] * (n - 1), min(n, 1), 0  # the parts are x[:m]
    while True:
        p = object.__new__(Partition)
        object.__setattr__(p, "parts", tuple(x[:m]))
        yield p
        if m == 0 or x[0] == 1:
            return
        if x[h] == 2:
            x[h], h, m = 1, h - 1, m + 1
            continue
        r = x[h] - 1
        t, x[h] = m - h, r  # t: what x[h:m] held, less the r left at h
        while t >= r:
            h, t = h + 1, t - r
            x[h] = r
        m = h + 1 + (t > 0)
        if t > 1:
            h += 1
            x[h] = t


def count_all_class_series(order: int):
    """{a: [c_0..c_order]} for a = 1, 2, 3: one prefix-pruned walk over
    total weight <= order, largest part first, growing one list of parts
    while _window_ok holds at its newest index.  The base class is closed
    under taking prefixes, so every node is a base-class partition of its
    own weight, counted for each class whose condition it meets; a node
    whose last part exceeds 3 meets all three."""
    if order < 0:
        raise ValueError("order must be >= 0")
    counts = {a: [1] + [0] * order for a in (1, 2, 3)}  # 1: the empty partition
    one, two, three = counts.values()
    parts, rest, x = [], order, order
    while True:
        if x:
            parts.append(x)
            rest -= x
            if _window_ok(parts, len(parts) - 1):
                w = order - rest
                one[w] += x != 1
                two[w] += x > 3 or _class_extra_ok(parts, 2)
                three[w] += x > 3 or _class_extra_ok(parts, 3)
                if rest:
                    x = min(rest, x)
                    continue
        elif not parts:
            return counts
        x = parts.pop()  # next sibling: the same slot, one smaller
        rest += x
        x -= 1
