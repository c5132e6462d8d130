"""Integer partitions and their multiplicity vectors, the mod-14
difference conditions as executable predicates (in part form and in
multiplicity form), enumeration, and the class counts by tail signature.
"""

from __future__ import annotations

from collections import defaultdict


class Partition:
    """Weakly decreasing sequence of positive integers; immutable."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            # exact type: int() would truncate 2.5 and read True as 1
            if type(p) is not int:
                raise TypeError(f"parts must be ints, got {type(p).__name__}")
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
        mults = list(mults)
        for v in mults:
            if type(v) is not int:
                raise TypeError(f"multiplicities must be ints, got {type(v).__name__}")
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

    g[i] counts the parts equal to i, zero-padded through i = n + 5, the
    furthest entry a window reads.  Every forbidden window starts at a
    positive entry, and a sum window that starts at a zero matches one
    place later too, so windows are tried only from positive entries,
    which lie within the support of f.
    """
    n = f.support_bound()
    g = (0,) + f.mults + (0,) * 5
    for j in range(1, n + 1):
        m = g[j]
        if not m:
            continue
        if g[j + 1] or m + g[j + 2] >= 3:
            return False
        if g[j + 2]:
            continue
        # the windows (m, 0, 0, ...) from j: (>=1, 0, 0, >=2) anywhere,
        # (>=2, 0, 0, >=1) from an even j, and from an odd j
        # (>=2, 0, 0, 0, >=1) or (>=1, 0, 0, 0, >=2)
        third = g[j + 3]
        if third >= 2 or (m >= 2 and third and j % 2 == 0):
            return False
        if j % 2 and not third and g[j + 4] and m + g[j + 4] >= 3:
            return False
        if m < 2 or third != 1:
            continue
        # windows (>=2, 0, 0, 1, (0,1)^k, 0, 0, >=1) for k >= 0
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


def _tail_signature(parts):
    """The canonical tail (marker, b, c) of a nonempty base-class
    sequence: on it, _window_ok, _class_extra_ok and _twos_then_three
    decide every extension as they would on the whole sequence.  c and b
    are the last two parts, b clipped to c + 5 (a gap of 5 or more passes
    every window; a single part has b = c + 5).  The marker stands for
    whether _twos_then_three holds at b, which the windows read only when
    b - c is 2 or 3: it is b + 3 when b - c is 2 or 3 and it holds there,
    else b + 5.  No
    earlier part is kept, since the class conditions read only parts
    <= 3, and a base-class sequence has at most two of them (any three
    span less than 3)."""
    c = parts[-1]
    b = min(parts[-2], c + 5) if len(parts) > 1 else c + 5
    chained = b - c in (2, 3) and _twos_then_three(parts, len(parts) - 2)
    return (b + 3 if chained else b + 5, b, c)


def count_all_class_series(order: int):
    """{a: [c_0..c_order]} for a = 1, 2, 3, by one forward pass over
    (weight, tail signature).  The base class is closed under taking
    prefixes, so each of its partitions arises once, from the prefix
    without its last part x, where _window_ok holds at x; that verdict,
    the class verdicts and the next signature read the prefix only
    through _tail_signature.  A part x <= c - 5 after a last part c passes
    every window and leaves the signature of (x,), so these far moves
    are added per weight by one suffix sum over c; the near moves,
    c - 4 <= x <= c, are worked out once per signature."""
    if order < 0:
        raise ValueError("order must be >= 0")
    counts = {a: [1] + [0] * order for a in (1, 2, 3)}  # 1: the empty partition
    layers = [defaultdict(int) for _ in range(order + 1)]  # {signature: count}
    far = [_tail_signature((x,)) for x in range(order + 1)]
    seen = {}  # signature -> (class verdicts, near moves as (x, signature))
    for w, layer in enumerate(layers):
        room = order - w
        # by_last[c]: the partitions of weight w with last part c, where
        # c > room + 5 counts as room + 5, as does the empty partition
        by_last = [0] * (room + 6)
        if not w:
            by_last[-1] = 1
        for sig, k in layer.items():
            if sig not in seen:
                c = sig[2]
                seen[sig] = ([_class_extra_ok(sig, a) for a in (1, 2, 3)],
                             [(x, _tail_signature(sig + (x,)))
                              for x in range(max(1, c - 4), c + 1)
                              if _window_ok(sig + (x,), 3)])
            verdicts, near = seen[sig]
            for series, ok in zip(counts.values(), verdicts):
                if ok:
                    series[w] += k
            for x, nxt in near:
                if x > room:
                    break
                layers[w + x][nxt] += k
            by_last[min(sig[2], room + 5)] += k
        total = 0
        for x in range(room, 0, -1):
            total += by_last[x + 5]
            if total:
                layers[w + x][far[x]] += total
    return counts
