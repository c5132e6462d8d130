"""Regular expressions, epsilon-NFAs and DFAs over finite alphabets.

Supports the textbook closure constructions (product, complement,
concatenation, star), subset construction, table-filling minimization with
a canonical breadth-first state numbering, language equivalence, and the
computation of minimal forbidden-prefix languages for restarted machines.

Alphabet symbols are abstract identifiers (strings) with a declared total
order.  Words are tuples of symbols.
"""

from __future__ import annotations

from dataclasses import dataclass


class RegexSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position


class AlphabetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# regular expression AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regex:
    pass


@dataclass(frozen=True)
class Empty(Regex):
    """The empty language."""


@dataclass(frozen=True)
class Epsilon(Regex):
    """The language containing only the empty word."""


@dataclass(frozen=True)
class Symbol(Regex):
    name: str


@dataclass(frozen=True)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


def union_all(items):
    items = list(items)
    if not items:
        return Empty()
    out = items[0]
    for r in items[1:]:
        out = Union(out, r)
    return out


def concat_all(items):
    items = list(items)
    if not items:
        return Epsilon()
    out = items[0]
    for r in items[1:]:
        out = Concat(out, r)
    return out


def word_regex(word):
    return concat_all([Symbol(s) for s in word])


def nullable(r: Regex) -> bool:
    """True iff the empty word belongs to the language of r."""
    if isinstance(r, (Empty, Symbol)):
        return False
    if isinstance(r, (Epsilon, Star)):
        return True
    if isinstance(r, Union):
        return nullable(r.left) or nullable(r.right)
    if isinstance(r, Concat):
        return nullable(r.left) and nullable(r.right)
    raise TypeError(f"not a Regex node: {r!r}")


def regex_symbols(r: Regex):
    if isinstance(r, Symbol):
        yield r.name
    elif isinstance(r, (Union, Concat)):
        yield from regex_symbols(r.left)
        yield from regex_symbols(r.right)
    elif isinstance(r, Star):
        yield from regex_symbols(r.inner)


_RESERVED = set("U()*,' \t\n")


def parse_regex(text: str, alphabet) -> Regex:
    """Parse a regex over the declared alphabet.

    `U` is union, `*` is star (binding tighter than concatenation, which
    binds tighter than union), parentheses group.  When every alphabet
    symbol is a single character, symbols are juxtaposed directly (digit
    style, e.g. ``41*03``); multi-character symbols must be quoted
    (``'sym'``) or separated by commas or spaces.
    """
    alphabet = tuple(str(s) for s in alphabet)
    if not alphabet:
        raise AlphabetError("empty alphabet")
    for s in alphabet:
        if not s or any(c in _RESERVED for c in s):
            raise AlphabetError(f"symbol {s!r} collides with regex syntax")
    single = all(len(s) == 1 for s in alphabet)
    known = set(alphabet)

    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\n,":
            i += 1
            continue
        if c in "U()*":
            tokens.append((c, i))
            i += 1
            continue
        if c == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise RegexSyntaxError("unterminated quoted symbol", i)
            sym = text[i + 1:j]
            if sym not in known:
                raise RegexSyntaxError(f"unknown symbol {sym!r}", i)
            tokens.append(("sym", i, sym))
            i = j + 1
            continue
        if single:
            if c not in known:
                raise RegexSyntaxError(f"unknown symbol {c!r}", i)
            tokens.append(("sym", i, c))
            i += 1
        else:
            j = i
            while j < n and text[j] not in _RESERVED:
                j += 1
            sym = text[i:j]
            if sym not in known:
                raise RegexSyntaxError(f"unknown symbol {sym!r}", i)
            tokens.append(("sym", i, sym))
            i = j

    pos = [0]

    def peek():
        return tokens[pos[0]][0] if pos[0] < len(tokens) else None

    def take():
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def parse_union():
        out = parse_concat()
        while peek() == "U":
            take()
            out = Union(out, parse_concat())
        return out

    def parse_concat():
        factors = []
        while peek() in ("sym", "("):
            factors.append(parse_factor())
        if not factors:
            at = tokens[pos[0]][1] if pos[0] < len(tokens) else n
            raise RegexSyntaxError("empty expression", at)
        return concat_all(factors)

    def parse_factor():
        tok = take()
        if tok[0] == "sym":
            out = Symbol(tok[2])
        else:  # '('
            out = parse_union()
            if peek() != ")":
                at = tokens[pos[0]][1] if pos[0] < len(tokens) else n
                raise RegexSyntaxError("missing ')'", at)
            take()
        while peek() == "*":
            take()
            out = Star(out)
        return out

    if not tokens:
        raise RegexSyntaxError("empty expression", 0)
    out = parse_union()
    if pos[0] != len(tokens):
        raise RegexSyntaxError("unexpected token", tokens[pos[0]][1])
    return out


# ---------------------------------------------------------------------------
# epsilon-NFAs
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


# ---------------------------------------------------------------------------
# DFAs
# ---------------------------------------------------------------------------

class Dfa:
    """Deterministic automaton with a total transition function.

    States are 0..n-1; transitions[v][k] is the successor of state v on the
    k-th alphabet symbol.
    """

    __slots__ = ("alphabet", "transitions", "start", "accept", "_index")

    def __init__(self, alphabet, transitions, start, accept):
        alphabet = tuple(str(s) for s in alphabet)
        transitions = tuple(tuple(row) for row in transitions)
        n = len(transitions)
        if n == 0:
            raise ValueError("a DFA needs at least one state")
        for row in transitions:
            if len(row) != len(alphabet):
                raise ValueError("transition row width differs from alphabet size")
            if any(not 0 <= t < n for t in row):
                raise ValueError("transition target outside the state set")
        accept = frozenset(accept)
        if not 0 <= start < n or any(not 0 <= f < n for f in accept):
            raise ValueError("start/accept outside the state set")
        self.alphabet = alphabet
        self.transitions = transitions
        self.start = start
        self.accept = accept
        self._index = {s: k for k, s in enumerate(alphabet)}

    @property
    def num_states(self):
        return len(self.transitions)

    def step(self, state, symbol):
        try:
            k = self._index[symbol]
        except KeyError:
            raise AlphabetError(f"unknown symbol {symbol!r}") from None
        return self.transitions[state][k]

    def run(self, word, state=None):
        v = self.start if state is None else state
        for a in word:
            v = self.step(v, a)
        return v

    def accepts(self, word):
        return self.run(word) in self.accept

    def reachable(self):
        """States reachable from the start, in breadth-first order."""
        seen = [self.start]
        mark = {self.start}
        i = 0
        while i < len(seen):
            v = seen[i]
            i += 1
            for t in self.transitions[v]:
                if t not in mark:
                    mark.add(t)
                    seen.append(t)
        return seen

    def __eq__(self, other):
        return (isinstance(other, Dfa)
                and self.alphabet == other.alphabet
                and self.transitions == other.transitions
                and self.start == other.start
                and self.accept == other.accept)

    def __hash__(self):
        return hash((self.alphabet, self.transitions, self.start, self.accept))

    def __repr__(self):
        return (f"Dfa(states={self.num_states}, start={self.start}, "
                f"accept={sorted(self.accept)})")


def _renumber_bfs(alphabet, trans_map, start, accept_pred):
    """DFA over the states reachable from start, in the canonical numbering:
    breadth-first from the start state, exploring symbols in declared
    alphabet order.  trans_map(v) lists v's successors in that order and is
    called once per state."""
    order = [start]
    number = {start: 0}
    rows = []
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        row = []
        for t in trans_map(v):
            if t not in number:
                number[t] = len(order)
                order.append(t)
            row.append(number[t])
        rows.append(tuple(row))
    accept = frozenset(k for k, v in enumerate(order) if accept_pred(v))
    return Dfa(alphabet, rows, 0, accept)


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


def dfa_from_regex(r: Regex, alphabet) -> Dfa:
    return minimize(subset_construction(to_eps_nfa(r, alphabet)))


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
DIFF = lambda a, b: a and not b


def complement(m: Dfa) -> Dfa:
    return Dfa(m.alphabet, m.transitions,
               m.start, frozenset(range(m.num_states)) - m.accept)


def dfa_concat(m1: Dfa, m2: Dfa) -> Dfa:
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


def sigma_dfa(alphabet) -> Dfa:
    """DFA for the length-one words (the alphabet itself)."""
    k = len(tuple(alphabet))
    rows = [tuple([1] * k), tuple([2] * k), tuple([2] * k)]
    return Dfa(alphabet, rows, 0, frozenset([1]))


def minimize(m: Dfa) -> Dfa:
    """Minimal DFA via Moore's partition refinement.

    Removes unreachable states, splits the rest by acceptance, then splits
    every class by the classes of its members' successors until the class
    count stops growing.  The quotient carries the canonical breadth-first
    numbering, so isomorphic minimal machines compare equal.
    """
    # the reachable part, numbered breadth-first with the start as 0
    reach = _renumber_bfs(m.alphabet, m.transitions.__getitem__, m.start,
                          m.accept.__contains__)
    trans = reach.transitions
    cls = [v in reach.accept for v in range(reach.num_states)]
    count = len(set(cls))
    while True:
        ids = {}
        cls = [ids.setdefault((cls[v],) + tuple(cls[t] for t in row), len(ids))
               for v, row in enumerate(trans)]
        if len(ids) == count:
            break
        count = len(ids)
    member = {c: v for v, c in enumerate(cls)}  # any member represents c
    return _renumber_bfs(m.alphabet,
                         lambda c: [cls[t] for t in trans[member[c]]],
                         cls[0], lambda c: member[c] in reach.accept)


def equivalent(m1: Dfa, m2: Dfa) -> bool:
    """Language equality, decided through canonical minimal forms."""
    if m1.alphabet != m2.alphabet:
        raise AlphabetError("automata over different alphabets")
    return minimize(m1) == minimize(m2)


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


def min_forbidden_prefixes(m: Dfa, v: int, x_pattern: Dfa) -> Dfa:
    """Minimal prefix language turning the restarted machine's language into
    "anything matching the pattern set, or beginning with a prefix".

    Computes  (L(M_v)  intersect  L(M_v)^c . Sigma)  minus  L(x_pattern),
    where x_pattern recognizes Sigma*X; assembled from product, complement
    and concatenation, then minimized.
    """
    if v in m.accept:
        raise ValueError("state is accepting; restarted language contains the empty word")
    if v not in m.reachable():
        raise ValueError("state is not reachable")
    mv = restart(m, v)
    almost = dfa_concat(complement(mv), sigma_dfa(m.alphabet))
    base = product(mv, almost, AND)
    return minimize(product(base, complement(x_pattern), AND))


# ---------------------------------------------------------------------------
# structured text serialization
# ---------------------------------------------------------------------------

def dfa_to_text(m: Dfa) -> str:
    lines = [
        "alphabet: " + " ".join(m.alphabet),
        f"states: {m.num_states}",
        f"start: {m.start}",
        "accept: " + " ".join(str(v) for v in sorted(m.accept)),
    ]
    for v, row in enumerate(m.transitions):
        lines.append(f"row {v}: " + " ".join(str(t) for t in row))
    return "\n".join(lines) + "\n"


def dfa_from_text(text: str) -> Dfa:
    fields = {}
    rows = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key.startswith("row "):
            rows[int(key[4:])] = tuple(int(t) for t in value.split())
        else:
            fields[key] = value
    alphabet = tuple(fields["alphabet"].split())
    n = int(fields["states"])
    table = [rows[v] for v in range(n)]
    accept = frozenset(int(t) for t in fields["accept"].split()) if fields["accept"] else frozenset()
    return Dfa(alphabet, table, int(fields["start"]), accept)
