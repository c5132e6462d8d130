"""Regular expressions and DFAs over finite alphabets.

Supports regexes with union, concatenation and star, turned into DFAs
through their Antimirov partial derivatives; minimization by Moore
partition refinement with a canonical breadth-first state numbering, so
that machines with the same language minimize to equal objects; and
the minimal forbidden-prefix languages of restarted machines, read off
one product walk.

Alphabet symbols are abstract identifiers (strings) with a declared total
order.  Words are tuples of symbols.
"""

from __future__ import annotations

import re
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

@dataclass(frozen=True, eq=False)
class Regex:
    """A regex node: immutable, equal to another node of the same type with
    equal fields.

    Each node hashes once, when it is built, from its type and its fields,
    and stores whether it is nullable, from its children's stored values;
    so either costs O(1) however deep the tree is.  That hash depends on
    the string-hash seed, so pickling rebuilds the node from its fields
    instead of copying the hash.
    """

    _nullable = None  # a bare Regex is no node of the language

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((type(self), *self.__dict__.values())))
        object.__setattr__(self, "_nullable", self._null())

    def _null(self):
        # a leaf's nullability is its class's; Union and Concat override
        return self._nullable

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (type(other) is type(self)
                                 and self._hash == other._hash
                                 and self.__dict__ == other.__dict__)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


@dataclass(frozen=True, eq=False)
class Empty(Regex):
    """The empty language."""

    _nullable = False


@dataclass(frozen=True, eq=False)
class Epsilon(Regex):
    """The language containing only the empty word."""

    _nullable = True


@dataclass(frozen=True, eq=False)
class Symbol(Regex):
    name: str
    _nullable = False


@dataclass(frozen=True, eq=False)
class Union(Regex):
    left: Regex
    right: Regex

    def _null(self):
        return nullable(self.left) or nullable(self.right)


@dataclass(frozen=True, eq=False)
class Concat(Regex):
    left: Regex
    right: Regex

    def _null(self):
        return nullable(self.left) and nullable(self.right)


@dataclass(frozen=True, eq=False)
class Star(Regex):
    inner: Regex
    _nullable = True


def _balanced(node, items):
    """node folded over items by halving, so the tree is log2 len(items) deep."""
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return node(_balanced(node, items[:mid]), _balanced(node, items[mid:]))


def union_all(items):
    items = list(items)
    return _balanced(Union, items) if items else Empty()


def concat_all(items):
    items = list(items)
    return _balanced(Concat, items) if items else Epsilon()


def nullable(r: Regex) -> bool:
    """True iff the empty word belongs to the language of r; read from
    the value each node stores when it is built."""
    if isinstance(r, Regex) and r._nullable is not None:
        return r._nullable
    raise TypeError(f"not a Regex node: {r!r}")


def regex_symbols(r: Regex):
    if isinstance(r, Symbol):
        yield r.name
    elif isinstance(r, (Union, Concat)):
        yield from regex_symbols(r.left)
        yield from regex_symbols(r.right)
    elif isinstance(r, Star):
        yield from regex_symbols(r.inner)


_RESERVED = "U()*,' \t\n"
# one match per token: blanks and commas (skipped), an operator, a quoted
# symbol (group 3 is empty when the closing quote is missing), or a bare
# symbol, whose pattern is filled in per alphabet
_TOKEN = r"[ \t\n,]+|([U()*])|'([^']*)('?)|({})"


def parse_regex(text: str, alphabet) -> Regex:
    """Parse a regex over the declared alphabet.

    `U` is union, `*` is star (binding tighter than concatenation, which
    binds tighter than union), parentheses group.  When every alphabet
    symbol is a single character, symbols are juxtaposed directly (digit
    style, e.g. ``41*03``); multi-character symbols must be quoted
    (``'sym'``) or separated by commas or spaces.  Unions and
    concatenations are built as balanced trees; nesting deeper than the
    parser's recursion allows is a RegexSyntaxError.
    """
    alphabet = tuple(str(s) for s in alphabet)
    if not alphabet:
        raise AlphabetError("empty alphabet")
    for s in alphabet:
        if not s or any(c in _RESERVED for c in s):
            raise AlphabetError(f"symbol {s!r} collides with regex syntax")
    known = set(alphabet)
    bare = "." if all(len(s) == 1 for s in alphabet) else f"[^{re.escape(_RESERVED)}]+"
    tokens = []
    for match in re.finditer(_TOKEN.format(bare), text):
        op, quoted, close, sym = match.groups()
        at = match.start()
        if quoted is not None and not close:
            raise RegexSyntaxError("unterminated quoted symbol", at)
        sym = quoted if quoted is not None else sym
        if op:
            tokens.append((op, at))
        elif sym is not None:
            if sym not in known:
                raise RegexSyntaxError(f"unknown symbol {sym!r}", at)
            tokens.append(("sym", at, sym))
    # an end marker where peek() is None; a text of blanks is empty at 0
    tokens.append((None, len(text) if tokens else 0))
    pos = 0

    def peek():
        return tokens[pos][0]

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def parse_union():
        items = [parse_concat()]
        while peek() == "U":
            take()
            items.append(parse_concat())
        return union_all(items)

    def parse_concat():
        factors = []
        while peek() in ("sym", "("):
            factors.append(parse_factor())
        if not factors:
            raise RegexSyntaxError("empty expression", tokens[pos][1])
        return concat_all(factors)

    def parse_factor():
        tok = take()
        if tok[0] == "sym":
            out = Symbol(tok[2])
        else:  # '('
            out = parse_union()
            if peek() != ")":
                raise RegexSyntaxError("missing ')'", tokens[pos][1])
            take()
        while peek() == "*":  # r** = r*, so a run of stars is one Star
            take()
            out = out if isinstance(out, Star) else Star(out)
        return out

    try:
        out = parse_union()
    except RecursionError:
        raise RegexSyntaxError("expression nested too deeply", 0) from None
    if peek() is not None:
        raise RegexSyntaxError("unexpected token", tokens[pos][1])
    return out


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


def _partial_derivatives(r: Regex, a):
    """Antimirov's partial derivatives of r by the symbol a: a set of
    regexes whose languages together are {w : a w in L(r)}."""
    if isinstance(r, Symbol):
        return frozenset([Epsilon()]) if r.name == a else frozenset()
    if isinstance(r, Union):
        return _partial_derivatives(r.left, a) | _partial_derivatives(r.right, a)
    if isinstance(r, Concat):
        out = {r.right if isinstance(d, Epsilon) else Concat(d, r.right)
               for d in _partial_derivatives(r.left, a)}
        if r.left._nullable:
            out |= _partial_derivatives(r.right, a)
        return frozenset(out)
    if isinstance(r, Star):
        return frozenset(r if isinstance(d, Epsilon) else Concat(d, r)
                         for d in _partial_derivatives(r.inner, a))
    if isinstance(r, (Empty, Epsilon)):
        return frozenset()
    raise TypeError(f"not a Regex node: {r!r}")


def dfa_from_regex(r: Regex, alphabet) -> Dfa:
    """Minimal DFA of a regex.

    The states of the walk are sets of partial derivatives of r, starting
    from {r}; a set accepts when one of its members is nullable.  The
    derivatives of r are finitely many (Antimirov, TCS 155, 1996), so the
    walk ends; minimize then gives the canonical minimal machine.
    """
    alphabet = tuple(str(s) for s in alphabet)
    for s in regex_symbols(r):
        if s not in alphabet:
            raise AlphabetError(f"regex symbol {s!r} not in the alphabet")
    memo = {}  # (term, symbol) -> its partial derivatives, for this call only

    def successors(terms):
        out = []
        for a in alphabet:
            nxt = set()
            for t in terms:
                if (t, a) not in memo:
                    memo[t, a] = _partial_derivatives(t, a)
                nxt |= memo[t, a]
            out.append(frozenset(nxt))
        return out

    return minimize(_renumber_bfs(alphabet, successors, frozenset([r]),
                                  lambda terms: any(t._nullable for t in terms)))


def minimize(m: Dfa) -> Dfa:
    """Minimal DFA via Moore's partition refinement.

    Removes unreachable states, splits the rest by acceptance, then splits
    every class by the classes of its members' successors until the class
    count stops growing.  The quotient carries the canonical breadth-first
    numbering, so isomorphic minimal machines compare equal.
    """
    reach = reachable_from(m, m.start)
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


def reachable_from(m: Dfa, v: int) -> Dfa:
    """The part of m reachable from state v, started at v, in the canonical
    numbering; minimal whenever m is."""
    return _renumber_bfs(m.alphabet, m.transitions.__getitem__, v,
                         m.accept.__contains__)


def min_forbidden_prefixes(m: Dfa, v: int, x_pattern: Dfa) -> Dfa:
    """Minimal prefix language turning the restarted machine's language into
    "anything matching the pattern set, or beginning with a prefix".

    Computes  (L(M_v)  intersect  L(M_v)^c . Sigma)  minus  L(x_pattern),
    where x_pattern recognizes Sigma*X, or Sigma*X Sigma* when every word
    with a match of X is in L(M_v), by one breadth-first walk over
    (state of m, "the state before the last symbol was rejecting", state of
    x_pattern) from (v, False, x_pattern.start), then minimized.
    """
    if not 0 <= v < m.num_states:
        raise ValueError(f"state {v} is not a state of the machine")
    if v in m.accept:
        raise ValueError("state is accepting; restarted language contains the empty word")
    if v not in m.reachable():
        raise ValueError("state is not reachable")
    if m.alphabet != x_pattern.alphabet:
        raise AlphabetError("pattern automaton over a different alphabet")
    return minimize(_renumber_bfs(
        m.alphabet,
        lambda s: [(t, s[0] not in m.accept, u) for t, u in
                   zip(m.transitions[s[0]], x_pattern.transitions[s[2]])],
        (v, False, x_pattern.start),
        lambda s: s[0] in m.accept and s[1] and s[2] not in x_pattern.accept))


# ---------------------------------------------------------------------------
# structured text serialization
# ---------------------------------------------------------------------------

def dfa_to_text(m: Dfa) -> str:
    lines = [
        "alphabet: " + " ".join(m.alphabet),
        f"states: {m.num_states}",
        f"start: {m.start}",
        "accept:" + "".join(f" {v}" for v in sorted(m.accept)),
    ]
    for v, row in enumerate(m.transitions):
        lines.append(f"row {v}: " + " ".join(str(t) for t in row))
    return "\n".join(lines) + "\n"

