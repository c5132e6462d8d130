"""Shared golden data and independent oracles for the test suite."""

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from reglinked.automata import (AlphabetError, Concat, Dfa, Empty, Epsilon,
                                Regex, Star, Symbol, Union, _renumber_bfs,
                                concat_all, minimize, regex_symbols)
from reglinked.partitions import (EMPTY, MultiplicityVector, Partition,
                                  _window_ok, partitions_of)
from reglinked.qalgebra import (BiPoly, Q as q, QSeries, RationalFunction,
                                X as x, _bipoly_from_profile,
                                _poch_exponents, _u_mul, _u_neg, _u_sub,
                                _u_trim, rf_x_coefficient_series)
from reglinked.qseries import CLASS_ST, XSeries, _slater_sum, closed_form_i

ONE = BiPoly.const(1)

# Transition table of the minimal 8-state forbidden-language DFA
# (rows = states 0..7, columns = symbols 0..4; accept state is 6).
GOLDEN_DFA_TABLE = (
    (0, 1, 2, 3, 4),
    (5, 1, 6, 6, 6),
    (7, 6, 6, 6, 6),
    (5, 1, 6, 3, 6),
    (7, 4, 6, 6, 6),
    (0, 1, 2, 3, 6),
    (6, 6, 6, 6, 6),
    (0, 1, 2, 6, 6),
)
GOLDEN_DFA_ACCEPT = frozenset({6})

# The 7x7 coupled-system matrix over the non-accepting states, in the
# order (0, 1, 2, 3, 4, 5, 7).
GOLDEN_SYSTEM_ROWS = (
    (1, x * q**2, x**2 * q**4, x * q, x**2 * q**2, 0, 0),
    (0, x * q**2, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
    (0, x * q**2, 0, x * q, 0, 1, 0),
    (0, 0, 0, 0, x * q**2, 0, 1),
    (1, x * q**2, x**2 * q**4, x * q, 0, 0, 0),
    (1, x * q**2, x**2 * q**4, 0, 0, 0, 0),
)

# Coefficients p_0, p_2, ..., p_10 of the single equation for each class.
GOLDEN_EQUATION = {
    1: (ONE,
        -1 - x * (q**2 + q**3 + q**4),
        x * q**4 * (1 - x + x * q**3 + x * q**4 + x * q**5),
        x**2 * q**6 * (-1 + x * q**4 * (1 + q + q**2 - q**5)),
        x**3 * q**13 * (1 + q + q**2) * (1 - x * q**6),
        x**3 * q**17 * (1 - x * q**6) * (1 - x * q**8)),
    2: (ONE,
        -1 - x * (q + q**2 + q**4),
        x * q**4 * (1 + x * q + x * q**3),
        x**2 * q**10 * (-1 + x * q**4 + x * q**6),
        x**3 * q**15 * (1 + q**2 + q**3) * (1 - x * q**6),
        x**3 * q**19 * (1 - x * q**6) * (1 - x * q**8)),
    3: (ONE,
        -1 - x * (q**2 + q**4 + q**5),
        x * q**4 * (1 + x * q**5 + x * q**7),
        x**2 * q**10 * (-1 + x * q**4 + x * q**6),
        x**3 * q**18 * (1 + q + q**3) * (1 - x * q**6),
        x**3 * q**23 * (1 - x * q**6) * (1 - x * q**8)),
}

# Hand-picked component orderings for which the reduced matrices below
# are reached without any swap.
NO_SWAP_ORDER = {1: (7, 1, 2, 3, 4, 5, 0), 2: (3, 1, 2, 4, 7, 5, 0),
               3: (4, 7, 2, 3, 5, 1, 0)}

CLASS_STATE = {1: 7, 2: 3, 3: 4}
CLASS_PREFIXES = {1: "3U4", 2: "2U4U04", 3: "2U3U4U04U1*03"}


def rf_matrix(rows):
    """Rows of ints, BiPolys or RationalFunctions as the tuple of row tuples
    of RationalFunction that QDifferenceSystem.matrix holds."""
    return tuple(tuple(RationalFunction._coerce(e) for e in row) for row in rows)


GOLDEN_P5 = {
    1: rf_matrix([
        [0, 1, 0, 0, 0, 0, 0],
        [x**2, x + ONE, 1, 0, 0, 0, 0],
        [(x**2 - x**3) / q**2, x / q, RationalFunction(1, q), 1, 0, 0, 0],
        [-x**2 / q**3, (-x * q**2 + x**2) / q**4, (x - q**2) / q**4,
         (x - q**2) / q**3, 1, 0, 0],
        [-x**3 / q**7, 0, 0, 0, x / q**4, 0, 0],
        [0, 1, 0, q / (x - ONE), q**3 / (x - x**2), 0, 0],
        [0, 1, 0, q / (x - ONE), q**3 / (ONE - x), 0, 0],
    ]),
    2: rf_matrix([
        [x * q, 1, 0, 0, 0, 0, 0],
        [x * q, x + ONE, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, x**2 / q**4, x**2 / q**4, x / q**2, 1, 0, 0],
        [0, (x**2 * q**2 - x**3) / q**8, (x**2 * q**2 - x**3) / q**8, 0, 0, 0, 0],
        [x * q, 1, 1, 0, 0, 0, 0],
        [x * q, 1, 1, 1, q**2 / (x - ONE), 0, 0],
    ]),
    3: rf_matrix([
        [x * q**2, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [x**2 * q**2, x**2, 1, 1, 0, 0, 0],
        [0, 0, x / q**2, (x * q + x) / q**2, 1, 0, 0],
        [0, 0, (x * q**2 - x**2) / q**5, (x * q**2 - x**2) / q**5, 0, 0, 0],
        [0, 0, 0, 0, q / (x - x**2), 0, 0],
        [x**2 * q**2, 0, 1, 1, -q / (ONE - x), 0, 0],
    ]),
}


# ---------------------------------------------------------------------------
# independent brute-force oracles
# ---------------------------------------------------------------------------

def brute_partition_counts(order, predicate):
    """Counts of partitions of n <= order satisfying the predicate, done by
    plain exhaustive enumeration over part lists (independent of the
    library's enumerator)."""
    def gen(n, maxpart):
        if n == 0:
            yield ()
            return
        for k in range(min(n, maxpart), 0, -1):
            for rest in gen(n - k, k):
                yield (k,) + rest

    return [sum(1 for p in gen(n, n) if predicate(p)) for n in range(order + 1)]


def class_extra_by_scan(parts, a) -> bool:
    """The class-a condition on top of the base difference conditions, by
    counting the parts 1, 2, 3 and scanning for every forbidden run
    (2k+3, 2k, ..., 4, 2); parts is a weakly decreasing tuple or list."""
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


# ---------------------------------------------------------------------------
# partition maps and the block-shift stability check
# ---------------------------------------------------------------------------

def shifted(f: MultiplicityVector, k) -> MultiplicityVector:
    """Shift right by k (k > 0) or left by -k (k < 0)."""
    if k >= 0:
        return MultiplicityVector((0,) * k + f.mults)
    return MultiplicityVector(f.mults[-k:])


def phi_plus(p: Partition, k: int = 1) -> Partition:
    """Add k to every part (shift the multiplicity vector right by k)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Partition(tuple(x + k for x in p.parts))


def oplus(a: Partition, b: Partition) -> Partition:
    """Multiset union of parts, reordered weakly decreasing."""
    return Partition(sorted(a.parts + b.parts, reverse=True))


def phi_minus(p: Partition, k: int = 1) -> Partition:
    """Subtract k from every part, discarding parts <= k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Partition(tuple(x - k for x in p.parts if x > k))


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


def regex_match_words(node, word, memo=None):
    """Direct semantic matcher for the regex AST (tuple words), used as the
    oracle for automaton constructions."""
    from reglinked import automata as A

    if memo is None:
        memo = {}
    key = (id(node), word)
    if key in memo:
        return memo[key]
    if isinstance(node, A.Empty):
        out = False
    elif isinstance(node, A.Epsilon):
        out = word == ()
    elif isinstance(node, A.Symbol):
        out = word == (node.name,)
    elif isinstance(node, A.Union):
        out = (regex_match_words(node.left, word, memo)
               or regex_match_words(node.right, word, memo))
    elif isinstance(node, A.Concat):
        out = any(regex_match_words(node.left, word[:k], memo)
                  and regex_match_words(node.right, word[k:], memo)
                  for k in range(len(word) + 1))
    elif isinstance(node, A.Star):
        if word == ():
            out = True
        else:
            out = any(regex_match_words(node.inner, word[:k], memo)
                      and regex_match_words(node, word[k:], memo)
                      for k in range(1, len(word) + 1))
    else:
        raise TypeError(node)
    memo[key] = out
    return out


def all_words(alphabet, max_len):
    import itertools
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def random_spec(rng, m=None):
    """A random block spec with 2-4 symbols and 1-3 forbidden words; m is
    drawn from {1, 2} unless given."""
    from reglinked.linked import parse_spec_text

    if m is None:
        m = rng.choice([1, 2])
    pool = [[], [1], [2]] if m == 1 else [[], [1], [0, 1], [1, 1], [2]]
    k = rng.randint(2, min(4, len(pool)))
    chosen = [[]] + rng.sample([b for b in pool if b], k - 1)
    lines = [f"m: {m}",
             f"alphabet: [{', '.join(str(i) for i in range(k))}]", "pi:"]
    for sym, block in zip(range(k), chosen):
        lines.append(f"  {sym}: [{', '.join(str(v) for v in block)}]")
    words = ["".join(str(rng.randrange(k)) for _ in range(rng.randint(1, 3)))
             for _ in range(rng.randint(1, 3))]
    lines.append('forbidden_patterns: "' + "U".join(words) + '"')
    return parse_spec_text("\n".join(lines))


# ---------------------------------------------------------------------------
# operations the pipeline never calls, kept for the tests
# ---------------------------------------------------------------------------

def word_regex(word):
    return concat_all([Symbol(s) for s in word])


def product(m1: Dfa, m2: Dfa, op) -> Dfa:
    """Product automaton accepting op(w in L(m1), w in L(m2))."""
    if m1.alphabet != m2.alphabet:
        raise AlphabetError("product of automata over different alphabets")
    return _renumber_bfs(
        m1.alphabet,
        lambda uv: zip(m1.transitions[uv[0]], m2.transitions[uv[1]]),
        (m1.start, m2.start),
        lambda uv: op(uv[0] in m1.accept, uv[1] in m2.accept))


AND = lambda a, b: a and b
OR = lambda a, b: a or b
XOR = lambda a, b: a != b


def complement(m: Dfa) -> Dfa:
    return Dfa(m.alphabet, m.transitions,
               m.start, frozenset(range(m.num_states)) - m.accept)


def equivalent(m1: Dfa, m2: Dfa) -> bool:
    """Language equality, decided through canonical minimal forms."""
    from reglinked import automata as A

    if m1.alphabet != m2.alphabet:
        raise AlphabetError("automata over different alphabets")
    # through the module, so that a patched automata.minimize is the one used
    return A.minimize(m1) == A.minimize(m2)


def isomorphism(m1: Dfa, m2: Dfa):
    """State bijection witnessing isomorphism of two reachable DFAs, as a
    dict m1-state -> m2-state, or None if they are not isomorphic."""
    if m1.alphabet != m2.alphabet or m1.num_states != m2.num_states:
        return None
    mapping = {m1.start: m2.start}
    queue = [m1.start]
    while queue:
        u = queue.pop()
        v = mapping[u]
        if (u in m1.accept) != (v in m2.accept):
            return None
        for k in range(len(m1.alphabet)):
            a, b = m1.transitions[u][k], m2.transitions[v][k]
            if a in mapping:
                if mapping[a] != b:
                    return None
            else:
                mapping[a] = b
                queue.append(a)
    if len(mapping) != m1.num_states or len(set(mapping.values())) != m1.num_states:
        return None
    return mapping


def restart(m: Dfa, v: int) -> Dfa:
    """The same machine started at v."""
    if not 0 <= v < m.num_states:
        raise ValueError(f"unknown state {v}")
    return Dfa(m.alphabet, m.transitions, v, m.accept)


def empty_dfa(alphabet) -> Dfa:
    return Dfa(alphabet, [tuple([0] * len(tuple(alphabet)))], 0, frozenset())


def decode(word, spec):
    """Inverse of encode on its image: assemble shifted blocks."""
    from reglinked.linked import SpecError

    out = EMPTY
    for k, sym in enumerate(word):
        try:
            p = spec.pi_map[sym]
        except KeyError:
            raise SpecError(f"unknown symbol {sym!r}") from None
        out = oplus(out, phi_plus(p, spec.m * k))
    return out


# ---------------------------------------------------------------------------
# independent routes kept as test-only references
# ---------------------------------------------------------------------------

class BlockEncodingError(ValueError):
    """A multiplicity block is not in the image of pi."""


def encode(p, spec):
    """Cut the multiplicity vector into length-m blocks and name each block.

    Block k holds the parts in (k*m, (k+1)*m], shifted down by k*m: the
    partition that the k-th length-m multiplicity block spells.
    Returns the symbol sequence; the top block holds the largest part, so
    the sequence never ends in the trivial symbol.  Raises
    BlockEncodingError, naming the lowest offset, when some block is not
    in the image of pi.
    """
    m = spec.m
    blocks = [[] for _ in range(-(-p.parts[0] // m) if p.parts else 0)]
    for part in p.parts:
        k = (part - 1) // m
        blocks[k].append(part - k * m)
    word = []
    for block in blocks:
        col = spec._column_of_block.get(tuple(block[::-1]))
        if col is None:
            raise BlockEncodingError(
                f"block {block} at offset {len(word)} not in the image of pi")
        word.append(spec.alphabet[col])
    return tuple(word)


def encode_by_multiplicities(p, spec):
    """encode by the multiplicity-vector route: every symbol's
    length-m block read off to_multiplicities(pi(symbol)), and the
    partition's multiplicity vector cut into length-m blocks."""
    from reglinked.partitions import to_multiplicities

    m = spec.m

    def block(f, b):
        return tuple(f[m * b + i] for i in range(1, m + 1))

    lookup = {block(to_multiplicities(image), 0): s for s, image in spec.pi}
    f = to_multiplicities(p)
    word = []
    for b in range(-(-f.support_bound() // m)):
        here = block(f, b)
        if here not in lookup:
            raise BlockEncodingError(
                f"block {here} at offset {b} not in the image of pi")
        word.append(lookup[here])
    trivial = lookup.get((0,) * m)
    while word and word[-1] == trivial:
        word.pop()
    return tuple(word)


def member_by_full_tail(p, spec, state=None):
    """linked.member by encoding, catching the encoding error, then running
    the word and |Q| trivial symbols: the trivial trajectory becomes
    periodic within |Q| steps, so this finite check decides the tail."""
    from reglinked.linked import MissingTrivialSymbolError, build_forbidden_dfa

    triv = spec.trivial_symbol
    if triv is None:
        raise MissingTrivialSymbolError(
            "no symbol maps to the empty partition; padded sequences do not exist")
    dfa = build_forbidden_dfa(spec)
    try:
        word = encode(p, spec)
    except BlockEncodingError:
        return False
    v = dfa.start if state is None else state
    for sym in word + (triv,) * dfa.num_states:
        if v in dfa.accept:
            return False
        v = dfa.step(v, sym)
    return v not in dfa.accept


def rf_q_expand(rf, order):
    """Expand an x-free rational function as a truncated q-series; the
    denominator needs a nonzero constant term."""
    if rf.num.degree_x() or rf.den.degree_x():
        raise ValueError("rational function involves x; cannot expand in q alone")
    num = QSeries(rf.num.x_profile()[0], order)
    den = QSeries(rf.den.x_profile()[0], order)
    return num * den.invert()


def equivalent_via_product(m1, m2):
    """Language equality as emptiness of the symmetric difference."""
    if m1.alphabet != m2.alphabet:
        raise AlphabetError("automata over different alphabets")
    diff = product(m1, m2, XOR)
    return not any(v in diff.accept for v in diff.reachable())


# ---------------------------------------------------------------------------
# the Thompson route from a regex to a DFA: epsilon-NFA, subset construction
# ---------------------------------------------------------------------------

class EpsNfa:
    """Nondeterministic automaton with epsilon moves.

    transitions maps (state, symbol) and (state, None) for epsilon to
    frozensets of successor states.
    """

    __slots__ = ("alphabet", "n_states", "transitions", "start", "accept")

    def __init__(self, alphabet, n_states, transitions, start, accept):
        self.alphabet = tuple(alphabet)
        self.n_states = n_states
        self.transitions = {k: frozenset(v) for k, v in transitions.items() if v}
        self.start = start
        self.accept = frozenset(accept)
        for (s, a), targets in self.transitions.items():
            if not (0 <= s < n_states) or any(not 0 <= t < n_states for t in targets):
                raise ValueError("transition endpoints outside the state set")
            if a is not None and a not in self.alphabet:
                raise AlphabetError(f"transition on unknown symbol {a!r}")
        if not 0 <= start < n_states or any(not 0 <= f < n_states for f in self.accept):
            raise ValueError("start/accept outside the state set")

    def moves(self, state, symbol):
        return self.transitions.get((state, symbol), frozenset())

    def eps_closure(self, states):
        seen = set(states)
        stack = list(states)
        while stack:
            s = stack.pop()
            for t in self.moves(s, None):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def accepts(self, word):
        cur = self.eps_closure({self.start})
        for a in word:
            nxt = set()
            for s in cur:
                nxt |= self.moves(s, a)
            cur = self.eps_closure(nxt)
        return bool(cur & self.accept)


class _NfaBuilder:
    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        self.count = 0
        self.trans = {}

    def state(self):
        s = self.count
        self.count += 1
        return s

    def edge(self, src, sym, dst):
        self.trans.setdefault((src, sym), set()).add(dst)


def to_eps_nfa(r: Regex, alphabet) -> EpsNfa:
    """Compositional automaton for a regex: concatenation links old accept
    states to the next start by epsilon moves; star adds a fresh accepting
    start looping back into the body."""
    alphabet = tuple(str(s) for s in alphabet)
    for s in regex_symbols(r):
        if s not in alphabet:
            raise AlphabetError(f"regex symbol {s!r} not in the alphabet")
    b = _NfaBuilder(alphabet)

    def build(node):
        if isinstance(node, Empty):
            return b.state(), frozenset()
        if isinstance(node, Epsilon):
            s = b.state()
            return s, frozenset([s])
        if isinstance(node, Symbol):
            s, t = b.state(), b.state()
            b.edge(s, node.name, t)
            return s, frozenset([t])
        if isinstance(node, Union):
            s = b.state()
            s1, f1 = build(node.left)
            s2, f2 = build(node.right)
            b.edge(s, None, s1)
            b.edge(s, None, s2)
            return s, f1 | f2
        if isinstance(node, Concat):
            s1, f1 = build(node.left)
            s2, f2 = build(node.right)
            for f in f1:
                b.edge(f, None, s2)
            return s1, f2
        if isinstance(node, Star):
            s = b.state()
            s1, f1 = build(node.inner)
            b.edge(s, None, s1)
            for f in f1:
                b.edge(f, None, s1)
            return s, f1 | frozenset([s])
        raise TypeError(f"not a Regex node: {node!r}")

    start, accept = build(r)
    return EpsNfa(alphabet, b.count, b.trans, start, accept)


def subset_construction(nfa: EpsNfa) -> Dfa:
    """Equivalent DFA; only the subsets reachable from the start closure
    are materialized."""
    def successors(cur):
        out = []
        for a in nfa.alphabet:
            nxt = set()
            for s in cur:
                nxt |= nfa.moves(s, a)
            out.append(nfa.eps_closure(nxt))
        return out

    return _renumber_bfs(nfa.alphabet, successors, nfa.eps_closure({nfa.start}),
                         lambda sub: bool(sub & nfa.accept))


def dfa_from_regex_by_subsets(r, alphabet):
    """automata.dfa_from_regex by the Thompson route: the regex's
    epsilon-NFA, its subset construction, then minimized."""
    return minimize(subset_construction(to_eps_nfa(r, alphabet)))


def check_dfa_from_regex_calls(monkeypatch):
    """Patch both import sites of dfa_from_regex (automata and linked) so
    that every call also builds the DFA by dfa_from_regex_by_subsets and
    asserts that the two are equal; returns the checking function."""
    from reglinked import automata, linked

    derivatives = automata.dfa_from_regex

    def checked(r, alphabet):
        got = derivatives(r, alphabet)
        assert got == dfa_from_regex_by_subsets(r, alphabet), r
        return got

    monkeypatch.setattr(automata, "dfa_from_regex", checked)
    monkeypatch.setattr(linked, "dfa_from_regex", checked)
    return checked


def dfa_concat(m1, m2):
    """Concatenation via the epsilon-NFA construction, then determinized."""
    if m1.alphabet != m2.alphabet:
        raise AlphabetError("concatenation of automata over different alphabets")
    n1 = m1.num_states
    trans = {}
    for v in range(n1):
        for k, a in enumerate(m1.alphabet):
            trans.setdefault((v, a), set()).add(m1.transitions[v][k])
    for v in range(m2.num_states):
        for k, a in enumerate(m2.alphabet):
            trans.setdefault((n1 + v, a), set()).add(n1 + m2.transitions[v][k])
    for f in m1.accept:
        trans.setdefault((f, None), set()).add(n1 + m2.start)
    nfa = EpsNfa(m1.alphabet, n1 + m2.num_states, trans, m1.start,
                 frozenset(n1 + f for f in m2.accept))
    return subset_construction(nfa)


def min_forbidden_prefixes_by_products(m, v, x_pattern):
    """automata.min_forbidden_prefixes assembled from closure constructions:
    (L(M_v) & L(M_v)^c . Sigma) minus L(x_pattern), with Sigma a
    hand-written three-state table, then minimized."""
    from reglinked import automata as A

    if v in m.accept:
        raise ValueError("state is accepting; restarted language contains the empty word")
    if v not in m.reachable():
        raise ValueError("state is not reachable")
    k = len(m.alphabet)
    sigma = A.Dfa(m.alphabet, [(1,) * k, (2,) * k, (2,) * k], 0, {1})
    mv = restart(m, v)
    almost = dfa_concat(complement(mv), sigma)
    base = product(mv, almost, AND)
    return A.minimize(product(base, complement(x_pattern), AND))


def state_for_class_by_equivalence(spec, extra_prefixes):
    """linked.state_for_class by a language-equivalence test of every
    non-accepting restarted state against the class's forbidden language."""
    from reglinked import automata as A
    from reglinked.linked import build_forbidden_dfa, sigma_star

    istar = sigma_star(spec)
    target = A.dfa_from_regex(
        A.Union(A.concat_all([istar, spec.forbidden_patterns, istar]),
                A.Concat(extra_prefixes, istar)), spec.alphabet)
    dfa = build_forbidden_dfa(spec)
    for v in range(dfa.num_states):
        if v not in dfa.accept and equivalent(restart(dfa, v), target):
            return v
    return None


def untrimmed_system(spec):
    """linked.derive_system without dropping the columns of empty-class
    states: every transition into a non-accepting state keeps its weight."""
    from reglinked.linked import (QDifferenceSystem, build_forbidden_dfa,
                                  member)
    from reglinked.partitions import weight_monomial

    dfa = build_forbidden_dfa(spec)
    labels = tuple(v for v in range(dfa.num_states) if v not in dfa.accept)
    col = {v: i for i, v in enumerate(labels)}
    weights = {s: weight_monomial(p) for s, p in spec.pi}
    rows = []
    for v in labels:
        row = [BiPoly() for _ in labels]
        for s in spec.alphabet:
            u = dfa.step(v, s)
            if u in dfa.accept:
                continue
            row[col[u]] = row[col[u]] + weights[s]
        rows.append([RationalFunction(e) for e in row])
    seed = tuple(int(spec.trivial_symbol is not None and member(EMPTY, spec, v))
                 for v in labels)
    return QDifferenceSystem(spec.m, labels, rf_matrix(rows), seed)


def _system_terms(system):
    return [[[(c, i, j) for (i, j), c in e.num.terms.items()] for e in row]
            for row in system.matrix]


def trivial_walk_survival(system):
    """Per row of the matrix, 1 when the walk along weight-1 entries (the
    trivial symbol) from that row's state never dies, else 0: |Q| steps
    that never die visit some state twice, so the walk then cycles."""
    terms = _system_terms(system)
    n = len(terms)

    def trivial_successor(v):
        return next((u for u in range(n)
                     if any(i == j == 0 for _, i, j in terms[v][u])), None)

    def survives(v):
        for _ in range(n):
            v = trivial_successor(v)
            if v is None:
                return 0
        return 1

    return [survives(v) for v in range(n)]


def fixed_point_series(system, state, order, x_value=1):
    """The per-state series of a q-difference system by fixed-point
    iteration: order + 1 sweeps of every state over bivariate series
    truncated at q^order, each sweep fixing one more q-order.  The
    x-degree-0 layer is seeded with 1 for the states whose trivial
    (weight-1) walk never dies (trivial_walk_survival).  Same return shape
    as linked.series_from_system, which solves the system in one pass."""
    terms = _system_terms(system)
    n = len(terms)
    m = system.step
    cur = [({(0, 0): 1} if alive else {})
           for alive in trivial_walk_survival(system)]
    for _ in range(order + 1):
        new = [{} for _ in range(n)]
        for v in range(n):
            acc = new[v]
            for u in range(n):
                for c, dx, dq in terms[v][u]:
                    for (i, nq), val in cur[u].items():
                        n2 = nq + m * i + dq
                        if n2 <= order:
                            key = (i + dx, n2)
                            acc[key] = acc.get(key, 0) + c * val
        cur = [{k: val for k, val in d.items() if val} for d in new]
    d = cur[system.row_of(state)]
    if x_value == 1:
        out = [0] * (order + 1)
        for (_, nq), val in d.items():
            out[nq] += val
        return QSeries(out, order)
    top = max((i for i, _ in d), default=0)
    layers = [[0] * (order + 1) for _ in range(top + 1)]
    for (i, nq), val in d.items():
        layers[i][nq] = val
    return [QSeries(ql, order) for ql in layers]


def mat_identity(n):
    return rf_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def mat_shift_x(a, k):
    """Substitute x -> x*q^k in every entry."""
    return rf_matrix([[e.shift_x(k) for e in row] for row in a])


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    zero = RationalFunction.zero()
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = zero
            for k in range(len(b)):
                e = a[i][k]
                f = b[k][j]
                if e.is_zero() or f.is_zero():
                    continue
                acc = acc + e * f
            row.append(acc)
        out.append(row)
    return rf_matrix(out)


def mat_inverse_T(t):
    """Closed-form inverse of a matrix that is the identity except in one row.

    The special row r has zeros left of the diagonal; the inverse keeps every
    other row and replaces row r by (0,..,0, 1/p_rr, -p_rj/p_rr, ...).
    Raises ZeroDivisionError if the pivot p_rr is zero.
    """
    n = len(t)
    if n != len(t[0]):
        raise ValueError("not square")
    one = RationalFunction.one()
    zero = RationalFunction.zero()
    special = None
    for i in range(n):
        row_is_identity = all(
            (t[i][j] == one if j == i else t[i][j].is_zero()) for j in range(n)
        )
        if not row_is_identity:
            if special is not None:
                raise ValueError("matrix is not of the one-special-row shape")
            special = i
    if special is None:
        return mat_identity(n)
    r = special
    for j in range(r):
        if not t[r][j].is_zero():
            raise ValueError("special row has entries left of the diagonal")
    pivot = t[r][r]
    if pivot.is_zero():
        raise ZeroDivisionError("singular transform: pivot entry is zero")
    out = [[one if i == j else zero for j in range(n)] for i in range(n)]
    out[r][r] = one / pivot
    for j in range(r + 1, n):
        out[r][j] = -t[r][j] / pivot
    return rf_matrix(out)


def triangularize_by_products(system):
    """murraymiller.triangularize as explicit matrix products: at step s
    build the full transform T (the identity except row s, which holds
    P[s-1][j] for j >= s) and set P <- T(x q^-m) P T(x)^-1, with the same
    smallest-index swap.  Returns (l', P) like the library loop."""
    n = len(system.labels)
    p = system.matrix
    for s in range(1, n + 1):
        row = s - 1
        if all(p[row][j].is_zero() for j in range(s, n)):
            return s, p
        if p[row][s].is_zero():
            t = next(j for j in range(s + 1, n) if not p[row][j].is_zero())
            entries = [list(r) for r in p]
            entries[s], entries[t] = entries[t], entries[s]
            for r in entries:
                r[s], r[t] = r[t], r[s]
            p = rf_matrix(entries)
        t_rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for j in range(s, n):
            t_rows[s][j] = p[row][j]
        t_mat = rf_matrix(t_rows)
        p = mat_mul(mat_mul(mat_shift_x(t_mat, -system.step), p),
                    mat_inverse_T(t_mat))
    raise AssertionError("loop left without returning")


def eliminate_by_flat_terms(l_prime, p, step):
    """murraymiller.eliminate over one flat (component, shift) table that
    each substitution round rebuilds: every term of the component being
    removed goes one shift down into the component below and, through its
    row of p, into every lower component at the same shift."""
    from reglinked.murraymiller import QDifferenceEquation

    s = l_prime
    zero = RationalFunction.zero()
    terms = {(s - 1, 0): RationalFunction(-1)}
    for j in range(s):
        c = p[s - 1][j]
        if not c.is_zero():
            terms[(j, 1)] = terms.get((j, 1), zero) + c
    for comp in range(s - 1, 0, -1):
        row = comp - 1
        new = {}

        def add(key, val):
            if val.is_zero():
                return
            cur = new.get(key)
            new[key] = val if cur is None else cur + val

        for (j, k), c in terms.items():
            if j != comp:
                add((j, k), c)
                continue
            add((comp - 1, k - 1), c)
            for j2 in range(comp):
                coeff = p[row][j2]
                if coeff.is_zero():
                    continue
                add((j2, k), -(c * coeff.shift_x(step * (k - 1))))
        terms = {k: v for k, v in new.items() if not v.is_zero()}
    assert all(j == 0 for j, _ in terms), "more than one component left"
    shifts = sorted(k for (_, k) in terms)
    kmin = shifts[0]
    return QDifferenceEquation(step, tuple(
        terms.get((0, k), zero).shift_x(-step * kmin)
        for k in range(kmin, shifts[-1] + 1)))


def table_filling_minimize(m):
    """Minimal DFA by the table-filling algorithm: mark the pairs of
    reachable states separated by acceptance, propagate the marks to a
    fixed point, collapse the unmarked pairs, and renumber breadth-first
    like automata.minimize."""
    from reglinked.automata import Dfa

    order = m.reachable()
    index = {v: k for k, v in enumerate(order)}
    n = len(order)
    trans = [[index[t] for t in m.transitions[v]] for v in order]
    accept = [v in m.accept for v in order]
    marked = [[accept[i] != accept[j] for j in range(i)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(i):
                if marked[i][j]:
                    continue
                for a, b in zip(trans[i], trans[j]):
                    if a != b and marked[max(a, b)][min(a, b)]:
                        marked[i][j] = changed = True
                        break
    rep = [next(j for j in range(i + 1) if j == i or not marked[i][j])
           for i in range(n)]
    number = {rep[0]: 0}
    queue = [rep[0]]
    rows = []
    for c in queue:
        row = []
        for t in trans[c]:
            t = rep[t]
            if t not in number:
                number[t] = len(queue)
                queue.append(t)
            row.append(number[t])
        rows.append(row)
    return Dfa(m.alphabet, rows, 0,
               {number[c] for c in queue if accept[c]})


# ---------------------------------------------------------------------------
# gcd references: the primitive pseudo-remainder sequence written out twice,
# once over Z and once in x over Z[q]
# ---------------------------------------------------------------------------

def _u_content(a):
    g = 0
    for c in a:
        g = math.gcd(g, abs(c))
        if g == 1:
            break
    return g


def _u_primitive(a):
    g = _u_content(a)
    if g <= 1:
        return list(a), g
    return [c // g for c in a], g


def _u_pseudo_rem(a, b):
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


def u_gcd_by_prs(a, b):
    """gcd in Z[q] of two dense coefficient lists, leading coefficient
    positive, by the primitive pseudo-remainder sequence over Z."""
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
        g = [c * math.gcd(ca, cb) for c in pa]
    g = list(g)
    if g and g[-1] < 0:
        g = _u_neg(g)
    return g


def u_div_exact_by_long_division(a, b):
    """Quotient a/b in Z[q] when the division is exact; raises otherwise."""
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


def _profile_content(prof):
    g = []
    for ql in prof:
        g = u_gcd_by_prs(g, ql)
        if g == [1]:
            break
    return g


def _profile_primitive(prof):
    g = _profile_content(prof)
    if g == [1] or not g:
        return prof
    return [u_div_exact_by_long_division(ql, g) for ql in prof]


def _x_pseudo_rem(a, b):
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


def bipoly_gcd_by_profiles(a, b):
    """gcd in Z[x, q], leading coefficient positive, as a gcd in x over
    Z[q]: the primitive pseudo-remainder sequence on the x-profiles with
    their contents taken apart by u_gcd_by_prs."""
    if a.is_zero() and b.is_zero():
        return BiPoly()
    if a.is_zero() or b.is_zero():
        g = b if a.is_zero() else a
        return -g if g.leading_coefficient() < 0 else g
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
    g = _bipoly_from_profile([_u_mul(ql, u_gcd_by_prs(ca, cb)) for ql in pa])
    return -g if g.leading_coefficient() < 0 else g


def bipoly_div_exact_by_profiles(a, b):
    """Exact quotient a/b in Z[x, q] by long division in x with
    coefficients in Z[q]; raises ArithmeticError if inexact."""
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
        c = u_div_exact_by_long_division(pa[k + len(pb) - 1], lb)
        out[k] = c
        if c:
            for i, ql in enumerate(pb):
                pa[k + i] = _u_sub(pa[k + i], _u_mul(ql, c))
    if any(ql for ql in pa):
        raise ArithmeticError("inexact bivariate division")
    return _bipoly_from_profile(out)


# ---------------------------------------------------------------------------
# rational arithmetic that forms the whole fraction and reduces it after,
# by the constructor's full gcd: the reference for RationalFunction's
# cross-cancelling operators and its gcd-free shift_x
# ---------------------------------------------------------------------------

def rf_add_reduce_after(a, b):
    return RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den)


def rf_sub_reduce_after(a, b):
    return RationalFunction(a.num * b.den - b.num * a.den, a.den * b.den)


def rf_mul_reduce_after(a, b):
    return RationalFunction(a.num * b.num, a.den * b.den)


def rf_div_reduce_after(a, b):
    return RationalFunction(a.num * b.den, a.den * b.num)


def rf_shift_x_reduce_after(a, k):
    """x -> x*q^k in both parts, both scaled by the q-power that clears
    negative exponents, then reduced by a gcd."""
    tn = {(i, j + k * i): c for (i, j), c in a.num.terms.items()}
    td = {(i, j + k * i): c for (i, j), c in a.den.terms.items()}
    low = min(0, *(j for _, j in tn), *(j for _, j in td))
    return RationalFunction(BiPoly({(i, j - low): c for (i, j), c in tn.items()}),
                            BiPoly({(i, j - low): c for (i, j), c in td.items()}))


# ---------------------------------------------------------------------------
# Pochhammer and x-series references: products built factor by factor and
# then inverted, general x-series products and long division, series
# inverses and equations solved by invert-then-multiply, and the
# H-equation built in the variable z = q^M
# ---------------------------------------------------------------------------

def mul_one_plus(s, c, e):
    """Multiply by (1 + c*q^e) in place-free fashion; e >= 1."""
    out = list(s.coeffs)
    if c and e <= s.order:
        for n in range(s.order, e - 1, -1):
            out[n] += c * s.coeffs[n - e]
    return QSeries(out, s.order)


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
            out = mul_one_plus(out, c, e)
    return out


def xseries_mul(a, b):
    L = min(a.x_order, b.x_order)
    t = min(a.q_order, b.q_order)
    out = []
    for M in range(L + 1):
        acc = QSeries.zero(t)
        for k in range(M + 1):
            u = a.coeffs[k]
            v = b.coeffs[M - k]
            if u.is_zero() or v.is_zero():
                continue
            acc = acc + u * v
        out.append(acc)
    return XSeries(out)


def xseries_div(a, b):
    """Long division; the divisor's x^0 coefficient must be invertible."""
    L = min(a.x_order, b.x_order)
    t = min(a.q_order, b.q_order)
    inv0 = b.coeffs[0].truncate(t).invert()
    out = []
    for M in range(L + 1):
        acc = a.coeffs[M].truncate(t)
        for k in range(M):
            if out[k].is_zero():
                continue
            acc = acc - out[k] * b.coeffs[M - k]
        out.append(acc * inv0)
    return XSeries(out)


def series_inverse_by_recurrence(s):
    """QSeries.invert as its own recurrence: 1/s over the nonzero terms
    of s, in Fractions unless the constant term is +1 or -1."""
    c0 = s.coeffs[0]
    if c0 == 0:
        raise ZeroDivisionError("zero constant term")
    inv0 = c0 if c0 in (1, -1) else Fraction(1, 1) / c0
    terms = [(k, c) for k, c in enumerate(s.coeffs) if k and c]
    out = [inv0] + [0] * s.order
    for n in range(1, s.order + 1):
        out[n] = -inv0 * sum(c * out[n - k] for k, c in terms if k <= n)
    return QSeries(out, s.order)


def solve_equation_by_inverse(eq, x_order, q_order):
    """qseries.solve_equation by inverting and multiplying: each x^M
    recurrence summed as shifted QSeries products, then multiplied by the
    inverse of its lead coefficient.  The equation must be polynomial."""
    assert all(c.is_polynomial() for c in eq.coeffs)
    prof = [{j: QSeries(ql, q_order) for j, ql in enumerate(c.num.x_profile())
             if ql} for c in eq.coeffs]
    fs = [QSeries.one(q_order)]
    for M in range(1, x_order + 1):
        lead, rhs = QSeries.zero(q_order), QSeries.zero(q_order)
        for i, cols in enumerate(prof):
            for j, series in cols.items():
                if j == 0:
                    lead = lead + series.shift(eq.step * i * M)
                elif j <= M:
                    rhs = rhs + series.shift(eq.step * i * (M - j)) * fs[M - j]
        fs.append(-(rhs * series_inverse_by_recurrence(lead)))
    return XSeries(fs)


def x_poch_even(x_order, q_order):
    """(1 - x)(1 - x q^2)(1 - x q^4) * ... as an XSeries.

    Factors whose q-exponent exceeds the q-order only touch coefficients
    beyond the truncation and are dropped.
    """
    out = XSeries.one(x_order, q_order)
    for e in range(0, q_order + 1, 2):
        out = out.mul_one_plus_x(-1, e)
    return out


def h_equation_by_z_form(r_coeffs, s: int, step: int):
    """x-form of the recurrence satisfied by h_M = g_M / (-q^(1+s);q)_(2M).

    Writes the G-recurrence in the variable z = q^M, multiplies the d-th
    tap by the finite product turning the g-values into h-values relative
    to the deepest tap, and converts back to an x-form; the overall q-power
    is scaled to clear negative exponents.
    """
    if not all(r.is_polynomial() for r in r_coeffs):
        raise ValueError("G-equation coefficients must be polynomial")
    profiles = [r.num.x_profile() for r in r_coeffs]
    D = max(len(prof) for prof in profiles) - 1
    taps = []  # per d: dict (z_exp, q_exp) -> int, q_exp may be negative
    for d in range(D + 1):
        acc = {}
        for i, prof in enumerate(profiles):
            for j, c in enumerate(prof[d] if d < len(prof) else ()):
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
# closed-form g_L and a numeric witness of the x = 1 limit
# ---------------------------------------------------------------------------

class StabilizationError(ArithmeticError):
    pass


def g_closed_form(a: int, L: int, order: int) -> QSeries:
    """g_L from the closed double-quotient form, truncated at q^order."""
    s, t = CLASS_ST[a]
    acc = QSeries.zero(order)
    for M in range(L + 1):
        if M * (M + 2 * t) > order:
            break
        acc = acc + closed_form_i(a, M, order).div_poch(-1, 2, 2, L - M)
    return acc.mul_poch(1, 1 + s, 1, 2 * L)


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
    value = g_last.truncate(t_stab).mul_poch(-1, 2, 2)
    rhs = _slater_sum(s, t, t_stab).mul_poch(1, 1, 1)
    if value != rhs:
        raise StabilizationError("limit value disagrees with the single-sum form")
    return value


# ---------------------------------------------------------------------------
# from-scratch routes of the incremental kernels: factor passes over the
# whole coefficient list, every summed term built with its whole
# Pochhammer denominator, the recurrence over every f_M, and the class
# counts from a generator walk and the scanned class conditions
# ---------------------------------------------------------------------------

def mul_poch_full(s, c, start, step, n=None):
    """QSeries.mul_poch with every factor pass over the whole list."""
    out = list(s.coeffs)
    for e in _poch_exponents(c, start, step, n, s.order):
        for k in range(s.order, e - 1, -1):
            out[k] += c * out[k - e]
    return QSeries(out, s.order)


def div_poch_full(s, c, start, step, n=None):
    """QSeries.div_poch with every factor pass over the whole list."""
    out = list(s.coeffs)
    for e in _poch_exponents(c, start, step, n, s.order):
        if e:
            for k in range(e, s.order + 1):
                out[k] -= c * out[k - e]
        else:
            out = [a * (-1 if c == -2 else Fraction(1, 1 + c)) for a in out]
    return QSeries(out, s.order)


def quotient_from_the_bottom(a, b):
    """QSeries.__truediv__ computing every quotient coefficient."""
    c0 = b.coeffs[0]
    if c0 == 0:
        raise ZeroDivisionError("zero constant term")
    t = min(a.order, b.order)
    terms = [(k, c) for k, c in enumerate(b.coeffs[1:t + 1], 1) if c]
    unit = c0 in (1, -1)
    out = a.coeffs[:t + 1]
    for n in range(t + 1):
        s = out[n] - sum((c * out[n - k] for k, c in terms if k <= n), 0)
        out[n] = s * c0 if unit else Fraction(s) / c0
    if not unit:
        out = [int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
               for c in out]
    return QSeries(out, t)


def double_sum_by_whole_terms(a, order):
    """qseries.double_sum, each term a monomial over its whole
    denominator (q;q)_i (q^2;q^2)_j."""
    s, t = CLASS_ST[a]
    acc, i = QSeries.zero(order), 0
    while i * (i - 1) // 2 + (1 + s) * i <= order:
        j = 0
        while True:
            e = (i * (i - 1) // 2 + j * (j - 1) + 2 * i * j
                 + (1 + s) * i + (1 + 2 * t) * j)
            if e > order:
                break
            term = QSeries.monomial((-1) ** j, e, order)
            acc = acc + div_poch_full(div_poch_full(term, -1, 1, 1, i), -1, 2, 2, j)
            j += 1
        i += 1
    return acc


def euler_series_by_whole_terms(which, x_value, order):
    """qseries.euler_series, each sum term c^n q^e over its whole (q;q)_n."""
    c, k = x_value
    lhs, n = QSeries.zero(order), 0
    while True:
        e = n * k + (n * (n - 1) // 2 if which == "B" else 0)
        if n and (c == 0 or e > order):
            break
        lhs = lhs + div_poch_full(QSeries.monomial(c ** n, e, order), -1, 1, 1, n)
        n += 1
    if which == "A":
        return lhs, div_poch_full(QSeries.one(order), -c, k, 1, order + 1)
    return lhs, mul_poch_full(QSeries.one(order), c, k, 1, order + 1)


def _pochs_full(s, factors):
    # factors: (multiply?, c, start, step) of infinite products in turn
    for mul, c, start, step in factors:
        s = (mul_poch_full if mul else div_poch_full)(s, c, start, step)
    return s


def slater_series_by_whole_terms(bst, order):
    """qseries.slater_series, term n as (-1)^n q^(n(n+2t)) over its whole
    (-q^(1+s);q)_(2n) (q^2;q^2)_n."""
    b, s, t = bst
    acc = QSeries.zero(order)
    for n in range(order + 1):
        if n * (n + 2 * t) <= order:
            term = QSeries.monomial((-1) ** n, n * (n + 2 * t), order)
            acc = acc + div_poch_full(div_poch_full(term, 1, 1 + s, 1, 2 * n),
                                      -1, 2, 2, n)
    rhs = _pochs_full(QSeries.one(order), [
        (True, -1, 1, 2), (False, -1, 2, 2), (True, -1, 2 * b, 14),
        (True, -1, 14 - 2 * b, 14), (True, -1, 14, 14), (False, -1, b, 14),
        (False, -1, 14 - b, 14)])
    return div_poch_full(acc, 1, 1, 1, s), rhs


def remark_single_sum_series_by_whole_terms(a, order):
    """qseries.remark_single_sum_series, term i of the single sum as a
    monomial over its whole (q;q)_i (q;q^2)_(i+t)."""
    s, t = CLASS_ST[a]
    single = QSeries.zero(order)
    for i in range(order + 2):
        e = i * (i - 1) // 2 + (1 + s) * i
        if e > order:
            break
        term = QSeries.monomial(1, e, order)
        single = single + div_poch_full(div_poch_full(term, -1, 1, 1, i),
                                        -1, 1, 2, i + t)
    lhs = double_sum_by_whole_terms(a, order)
    rhs = mul_poch_full(single, -1, 1, 2)
    if lhs != rhs:
        return lhs, rhs
    return single, _pochs_full(QSeries.one(order), [
        (True, -1, a, 7), (True, -1, 7 - a, 7), (True, -1, 7, 7),
        (True, -1, 7 - 2 * a, 14), (True, -1, 7 + 2 * a, 14),
        (False, -1, 1, 1), (False, -1, 1, 2)])


def _dense_profile(eq, order):
    return [rf_x_coefficient_series(c, order) for c in eq.coeffs]


def _lead_over_every_coefficient(prof, m, M, order):
    acc = [0] * (order + 1)
    for i, cols in enumerate(prof):
        e = m * i * M
        if 0 in cols and e <= order:
            for n, c in enumerate(cols[0].coeffs[:order + 1 - e], e):
                acc[n] += c
    return QSeries(acc, order)


def _recurrence_sum_over_every_f(prof, step, fs, M, j_min, order):
    acc = [0] * (order + 1)
    for i, cols in enumerate(prof):
        for j, series in cols.items():
            shift = step * i * (M - j)
            if j_min <= j <= M and shift <= order:
                f = fs[M - j].coeffs
                for n, c in enumerate(series.coeffs[:order + 1 - shift], shift):
                    if c:
                        acc[n:] = [u + c * d for u, d in zip(acc[n:], f)]
    return QSeries(acc, order)


def solve_equation_over_every_f(eq, x_order, q_order):
    """qseries.solve_equation over dense expansions of the coefficients,
    each recurrence reading every f_M whole."""
    prof = _dense_profile(eq, q_order)
    if not _lead_over_every_coefficient(prof, eq.step, 0, q_order).is_zero():
        raise ValueError("equation forces F(0) = 0")
    fs = [QSeries.one(q_order)]
    for M in range(1, x_order + 1):
        lead = _lead_over_every_coefficient(prof, eq.step, M, q_order)
        if lead.coeffs[0] == 0:
            raise ZeroDivisionError(f"non-invertible lead at M = {M}")
        rhs = _recurrence_sum_over_every_f(prof, eq.step, fs, M, 1, q_order)
        fs.append(-rhs / lead)
    return XSeries(fs)


def equation_residual_over_every_f(eq, F):
    """qseries.equation_residual, reading every f_M whole."""
    prof = _dense_profile(eq, F.q_order)
    return XSeries([_recurrence_sum_over_every_f(prof, eq.step, F.coeffs, M, 0,
                                                 F.q_order)
                    for M in range(F.x_order + 1)])


def _generator_walk(n, window_ok, parts):
    # (rest, parts) for the prefix and every extension window_ok accepts
    yield n, parts
    base, x = len(parts), min(n, parts[-1]) if parts else n
    while True:
        if x:
            parts.append(x)
            n -= x
            if window_ok(parts, len(parts) - 1):
                yield n, parts
                if n:
                    x = min(n, x)
                    continue
        elif len(parts) == base:
            return
        x = parts.pop()
        n += x
        x -= 1


def count_all_class_series_by_generator(order):
    """partitions.count_all_class_series from a generator walk, with the
    class conditions decided by class_extra_by_scan at every node."""
    counts = {a: [0] * (order + 1) for a in (1, 2, 3)}
    for rest, parts in _generator_walk(order, _window_ok, []):
        for a in (1, 2, 3):
            counts[a][order - rest] += class_extra_by_scan(parts, a)
    return counts


@pytest.fixture(scope="session")
def nandi_system():
    from reglinked import linked
    return linked.derive_system(linked.nandi_spec())
