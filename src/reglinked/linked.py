"""Block specifications for partition classes cut out by forbidden regular
patterns, the derived coupled q-difference system, state/class
identification, and the conversion from classical finite linking data.

A specification consists of a block length m, an ordered alphabet I, an
injective map pi from symbols to partitions with parts <= m, and two
regular languages over I: forbidden patterns X (matched anywhere) and
forbidden prefixes X'.  A partition belongs to the class when its
multiplicity vector, cut into length-m blocks and read as an infinite
symbol sequence (padded with the trivial symbol), avoids both.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources

import yaml

from . import automata
from .automata import (
    Dfa, Empty, Regex, Star, Symbol, concat_all, dfa_from_regex, nullable,
    parse_regex, union_all,
)
from .partitions import (
    MultiplicityVector, Partition, from_multiplicities, weight_monomial,
)
from .qalgebra import BiPoly, QSeries, RationalFunction


class SpecError(ValueError):
    pass


class MissingTrivialSymbolError(ValueError):
    """The alphabet has no symbol mapping to the empty partition, so
    infinite padded sequences do not exist and membership is undefined."""


@dataclass(frozen=True)
class LinkedSpec:
    """(m, I, pi, X, X') with pi injective into the partitions with parts <= m.

    Derived once, at construction: ``pi_map`` (symbol -> partition), the
    block table (the parts of each image of pi, smallest first -> its
    symbol's alphabet index, which is the DFA's column; building it is the
    injectivity check), ``trivial_symbol`` (the symbol of the empty
    partition, or None when there is none), ``pattern_spec`` (the spec
    with X' emptied, itself when X' is empty) and the hash.
    """

    m: int
    alphabet: tuple[str, ...]
    pi: tuple[tuple[str, Partition], ...]
    forbidden_patterns: Regex
    forbidden_prefixes: Regex

    def __post_init__(self):
        if self.m < 1:
            raise SpecError("block length m must be >= 1")
        if not self.alphabet:
            raise SpecError("alphabet must be nonempty")
        for i, s in enumerate(self.alphabet):
            if s in self.alphabet[:i]:
                raise SpecError(f"alphabet: symbol {s!r} is repeated")
        if tuple(s for s, _ in self.pi) != self.alphabet:
            raise SpecError("pi must list exactly the alphabet symbols, in order")
        column_of_block = {p.parts[::-1]: k for k, (_, p) in enumerate(self.pi)}
        if len(column_of_block) != len(self.pi):
            raise SpecError("pi must be injective")
        for _, p in self.pi:
            if p.parts and p.parts[0] > self.m:
                raise SpecError(f"pi image {p} has a part exceeding m = {self.m}")
        for name, r in (("forbidden_patterns", self.forbidden_patterns),
                        ("forbidden_prefixes", self.forbidden_prefixes)):
            for s in automata.regex_symbols(r):
                if s not in self.alphabet:
                    raise SpecError(f"{name} uses unknown symbol {s!r}")
            if nullable(r):
                raise SpecError(f"{name} must not contain the empty word")
        object.__setattr__(self, "pi_map", dict(self.pi))
        # pi lists the alphabet in order, so the index is the DFA's column
        object.__setattr__(self, "_column_of_block", column_of_block)
        trivial = column_of_block.get(())
        object.__setattr__(self, "trivial_symbol",
                           None if trivial is None else self.alphabet[trivial])
        object.__setattr__(self, "pattern_spec", self if isinstance(
            self.forbidden_prefixes, Empty) else replace(
                self, forbidden_prefixes=Empty()))
        # the regex trees hash recursively, and every build_forbidden_dfa
        # lookup hashes the spec
        object.__setattr__(self, "_hash", hash(
            (self.m, self.alphabet, self.pi, self.forbidden_patterns,
             self.forbidden_prefixes)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: the hash depends on the string-hash seed
        return LinkedSpec, (self.m, self.alphabet, self.pi,
                            self.forbidden_patterns, self.forbidden_prefixes)


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def parse_spec_text(text: str) -> LinkedSpec:
    """Parse the YAML spec format.

    Fields: ``m`` (int), ``alphabet`` (list), ``pi`` (symbol -> length-<=m
    multiplicity list), ``forbidden_patterns`` / ``forbidden_prefixes``
    (regex text; empty, null or missing means the empty language).  Purely
    numeric regex strings must be quoted: an unquoted value that YAML reads
    as a number or a boolean is a SpecError.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise SpecError(f"malformed spec file: {e}") from e
    if not isinstance(doc, dict):
        raise SpecError("spec file must be a mapping")
    try:
        m = doc["m"]
        alphabet = tuple(str(s) for s in doc["alphabet"])
        pi_raw = {str(k): v for k, v in doc["pi"].items()}
    except (KeyError, TypeError, AttributeError) as e:
        raise SpecError(f"spec file missing field: {e}") from e
    # exact type: int() would truncate 2.5 and read true as 1
    if type(m) is not int:
        raise SpecError(f"m: expected an integer, got {m!r}")
    unknown = sorted(set(pi_raw) - set(alphabet))
    if unknown:
        raise SpecError(f"pi: symbol {unknown[0]!r} is not in the alphabet")
    pi = []
    for s in alphabet:
        if s not in pi_raw:
            raise SpecError(f"pi missing symbol {s!r}")
        mults = [] if pi_raw[s] is None else pi_raw[s]
        if not isinstance(mults, list) or any(type(v) is not int for v in mults):
            raise SpecError(f"pi[{s!r}]: expected a list of integers, got {mults!r}")
        try:
            block = from_multiplicities(MultiplicityVector(mults))
        except ValueError as e:
            raise SpecError(f"pi[{s!r}]: {e}") from e
        if len(mults) > m:
            raise SpecError(f"pi[{s!r}] longer than the block length")
        pi.append((s, block))

    def rx(field):
        text = doc.get(field)
        # an unquoted 0, 012 (octal) or false would be read as another regex
        if text is not None and not isinstance(text, str):
            raise SpecError(f"{field}: expected a quoted string, got {text!r}")
        text = (text or "").strip()
        if not text:
            return Empty()
        try:
            return parse_regex(text, alphabet)
        except ValueError as e:
            raise SpecError(f"{field}: {e}") from e

    return LinkedSpec(m, alphabet, tuple(pi), rx("forbidden_patterns"),
                      rx("forbidden_prefixes"))


def load_spec(path) -> LinkedSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_spec_text(fh.read())


@lru_cache(maxsize=1)
def nandi_spec() -> LinkedSpec:
    """The shipped mod-14 block specification."""
    text = resources.files("reglinked.data").joinpath("nandi.spec").read_text("utf-8")
    return parse_spec_text(text)


def nandi_spec_path() -> str:
    """The path of the shipped spec file, a template for ``--spec``."""
    return str(resources.files("reglinked.data").joinpath("nandi.spec"))


# ---------------------------------------------------------------------------
# the forbidden-language machine and the derived system
# ---------------------------------------------------------------------------

def sigma_star(spec):
    """I*, every word over the spec's alphabet."""
    return Star(union_all([Symbol(s) for s in spec.alphabet]))


class _ForbiddenDfa(Dfa):
    """A forbidden-language machine with ``tail_ok``: per state, whether
    following the trivial symbol from it never enters an accepting state;
    and the machine composed with the block decoder, whose state
    s = v * ``width`` + b is state v with open block b, a prefix of an
    image of pi (b = 0 the empty block).  ``add_part[s][d]`` adds part d to
    the open block, ``jump[s]`` closes it and opens the next, empty block,
    and ``final[s]`` closes it for good and answers from ``tail_ok``; a step
    is None where no image of pi starts that way or the machine enters its
    accepting sink.  All are None when the spec has no trivial symbol."""

    __slots__ = ("tail_ok", "width", "add_part", "jump", "final")


@lru_cache(maxsize=64)
def build_forbidden_dfa(spec: LinkedSpec) -> Dfa:
    """Minimal DFA for  I* X I*  union  X' I*  (canonical numbering), with
    its trivial-tail table and its composition with the block decoder.

    Its start state is never accepting because neither language contains
    the empty word.  Both languages are closed under appending words, so
    its accepting states are a sink that no word leaves.
    """
    istar = sigma_star(spec)
    d = dfa_from_regex(automata.Union(
        concat_all([istar, spec.forbidden_patterns, istar]),
        automata.Concat(spec.forbidden_prefixes, istar)), spec.alphabet)
    out = _ForbiddenDfa(d.alphabet, d.transitions, d.start, d.accept)
    out.tail_ok = out.width = out.add_part = out.jump = out.final = None
    if spec.trivial_symbol is not None:
        # n trivial steps repeat a state, and the accepting sink keeps what
        # it takes in: the tail enters it iff it is in it after n steps
        trans, states = d.transitions, range(d.num_states)
        triv, ends = d._index[spec.trivial_symbol], states
        for _ in states:
            ends = [trans[v][triv] for v in ends]
        out.tail_ok = tuple(v not in d.accept for v in ends)
        # open blocks: the parts, smallest first, of a prefix of an image of pi
        blocks = {(): 0}
        for block in spec._column_of_block:
            for i in range(len(block)):
                blocks.setdefault(block[:i + 1], len(blocks))
        w = out.width = len(blocks)
        cols = [spec._column_of_block.get(b) for b in blocks]
        # a part is 1..m above the base, so each row starts with a pad
        out.add_part = tuple((None, *(
            None if (c := blocks.get((*b, part))) is None else v * w + c
            for part in range(1, spec.m + 1))) for v in states for b in blocks)
        out.jump = tuple(None if k is None or trans[v][k] in d.accept
                         else trans[v][k] * w for v in states for k in cols)
        out.final = tuple(k is not None and out.tail_ok[trans[v][k]]
                          for v in states for k in cols)
    return out


@dataclass(frozen=True)
class QDifferenceSystem:
    """Coupled system F_v(x) = sum_u A[v][u] F_u(x q^m) over the non-accepting
    states; matrix[v][u] is A[v][u], held as a tuple of row tuples of
    polynomial weights sum_a x^len(pi_a) q^|pi_a|, and 0 in the column of
    every state whose class is empty.
    seed[i] is 1 when the empty partition belongs to the class of state
    labels[i], else 0: the constant term of that state's series."""

    step: int
    labels: tuple[int, ...]
    matrix: tuple[tuple[RationalFunction, ...], ...]
    seed: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if not n or {len(set(self.labels)), len(self.matrix),
                     *map(len, self.matrix)} != {n}:
            raise ValueError(f"labels must be distinct and the matrix {n} x {n}, n >= 1")
        if len(self.seed) != n or set(self.seed) - {0, 1}:
            raise ValueError("seed must hold a 0 or 1 per label")

    def row_of(self, label):
        return self.labels.index(label)


def derive_system(spec: LinkedSpec) -> QDifferenceSystem:
    """The system of the spec's forbidden DFA, labelled by the non-accepting
    states in increasing order, so label 0 is the start state.  A state's
    class is empty unless a seeded state is reachable from it; its series
    is then 0, so its column is dropped like the transitions into
    accepting states."""
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
        rows.append(row)
    seed = tuple(int(dfa.tail_ok is not None and dfa.tail_ok[v]) for v in labels)
    live, size = {i for i, s in enumerate(seed) if s}, -1
    while size < len(live):
        size = len(live)
        live |= {i for i, row in enumerate(rows)
                 if any(not row[u].is_zero() for u in live)}
    rows = tuple(tuple(RationalFunction(e if u in live else BiPoly())
                       for u, e in enumerate(row)) for row in rows)
    return QDifferenceSystem(spec.m, labels, rows, seed)


def state_for_class(spec: LinkedSpec, extra_prefixes: Regex):
    """The non-accepting state whose restarted language is
    I* X I*  union  L(extra_prefixes) I*; raises SpecError when no state
    matches.

    Each candidate walks in lockstep with the machine of I* X I* and the
    machine of L(extra_prefixes) I*; it matches when no reachable triple
    of states disagrees on acceptance.
    """
    # this lookup first: with X' empty it keys the cache entry by this spec
    # object, which the many member lookups then hit by identity, not by ==,
    # and the second lookup is then the same entry
    dfa = build_forbidden_dfa(spec)
    pattern = build_forbidden_dfa(spec.pattern_spec)
    extra = dfa_from_regex(automata.Concat(extra_prefixes, sigma_star(spec)),
                           spec.alphabet)
    rows = (dfa.transitions, pattern.transitions, extra.transitions)

    def matches(triple):
        todo, seen = [triple], {triple}
        while todo:
            a, b, c = todo.pop()
            if (a in dfa.accept) != (b in pattern.accept or c in extra.accept):
                return False
            new = set(zip(rows[0][a], rows[1][b], rows[2][c])) - seen
            seen |= new
            todo += new
        return True

    for v in range(dfa.num_states):
        if v not in dfa.accept and matches((v, pattern.start, extra.start)):
            return v
    raise SpecError("no state matches the target prefix language")


# ---------------------------------------------------------------------------
# series solutions of the system
# ---------------------------------------------------------------------------

def _system_monomials(sys: QDifferenceSystem):
    """Matrix entries as term lists [(coef, deg_x, deg_q)]; entries must be
    polynomial by the system invariant."""
    mono = []
    for row in sys.matrix:
        mrow = []
        for e in row:
            if not e.is_polynomial():
                raise ValueError("system entries must be polynomial")
            mrow.append([(c, i, j) for (i, j), c in e.num.terms.items()])
        mono.append(mrow)
    return mono


def series_from_system(sys: QDifferenceSystem, state, order: int, x_value=1):
    """Coefficients of the generating function attached to one state.

    Row v of the system reads F_v(x, q) = sum_u M[v][u] F_u(x q^m, q), so a
    term c x^dx q^dq of M[v][u] adds c times the coefficient of x^i q^n in
    F_u to the coefficient of x^(i+dx) q^(n+m*i+dq) in F_v.  That key comes
    strictly after (n, i) in (q-degree, x-degree) order, except for the
    trivial symbol (dx = dq = 0) acting on the constant term, which is
    seeded from sys.seed instead.  One pass over the keys in that order
    therefore finishes every coefficient before it is read.
    A system in which any other key feeds its own (q, x)-degree has no
    automaton behind it and raises ValueError.  With x_value=1 the result
    is a QSeries; with x_value="symbolic" the list of x-coefficients, each
    a QSeries.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if x_value not in (1, "symbolic"):
        raise ValueError("x_value must be 1 or 'symbolic'")
    mono = _system_monomials(sys)
    m = sys.step
    n = len(sys.labels)
    readers = [[] for _ in range(n)]  # readers[u]: the terms that read F_u
    for v, row in enumerate(mono):
        for u, terms in enumerate(row):
            readers[u].extend((v, c, dx, dq) for c, dx, dq in terms)
    # (q-degree, x-degree) -> that coefficient of F_v for every state v
    coeffs = {(0, 0): list(sys.seed)}
    keys = [(0, 0)]
    while keys:
        key = heapq.heappop(keys)
        nq, i = key
        for u, val in enumerate(coeffs[key]):
            if not val:
                continue
            for v, c, dx, dq in readers[u]:
                target = (nq + m * i + dq, i + dx)
                if target[0] > order:
                    continue
                if target <= key:
                    if target == (0, 0):
                        continue
                    raise ValueError(
                        f"the coefficient of x^{i} q^{nq} feeds its own degree "
                        "at zero weight, which no automaton-derived system does")
                row = coeffs.get(target)
                if row is None:
                    row = coeffs[target] = [0] * n
                    heapq.heappush(keys, target)
                row[v] += c * val
    r = sys.row_of(state)
    if x_value == 1:
        out = [0] * (order + 1)
        for (nq, _), row in coeffs.items():
            out[nq] += row[r]
        return QSeries(out, order)
    top = max((i for (_, i), row in coeffs.items() if row[r]), default=0)
    layers = [[0] * (order + 1) for _ in range(top + 1)]
    for (nq, i), row in coeffs.items():
        if i <= top:
            layers[i][nq] = row[r]
    return [QSeries(ql, order) for ql in layers]


def member(p: Partition, spec: LinkedSpec, state=None) -> bool:
    """Decide membership of a partition in the class attached to a state.

    The parts, read from the smallest up, walk the forbidden-language
    machine composed with the block decoder from the state with the empty
    block open: one ``add_part`` step per part, after one ``jump`` per
    length-m block that the part lies beyond.  A step that no image of pi
    allows rejects the partition, as does a jump into the accepting sink;
    at the end ``final`` closes the open block and answers by the
    machine's ``tail_ok`` table, whether the trivial tail never enters the
    sink.  A state outside the machine is a ValueError, whatever p.
    """
    if spec.trivial_symbol is None:
        raise MissingTrivialSymbolError(
            "no symbol maps to the empty partition; padded sequences do not exist")
    dfa = build_forbidden_dfa(spec)
    if state is None:
        state = dfa.start
    elif not 0 <= state < len(dfa.transitions):
        raise ValueError(f"state {state} is not a state of the forbidden DFA")
    m, add_part, jump = spec.m, dfa.add_part, dfa.jump
    s = state * dfa.width
    base = 0  # the parts of the open block are shifted down by base
    for part in reversed(p.parts):
        d = part - base
        while d > m:
            s = jump[s]
            if s is None:
                return False
            base += m
            d -= m
        s = add_part[s][d]
        if s is None:
            return False
    return dfa.final[s]


# ---------------------------------------------------------------------------
# conversion from finite linking data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LpiData:
    """Classical finite linking data: blocks (the partitions with parts <= m),
    a linking map giving the blocks allowed after each block's span, and the
    span lengths."""

    m: int
    blocks: tuple[Partition, ...]
    links: tuple[tuple[int, ...], ...]   # indices into blocks
    spans: tuple[int, ...]

    def __post_init__(self):
        n = len(self.blocks)
        if n == 0:
            raise SpecError("empty block set")
        if len(set(b.parts for b in self.blocks)) != n:
            raise SpecError("blocks must be distinct")
        if len(self.links) != n or len(self.spans) != n:
            raise SpecError("links/spans must align with the block list")
        for link in self.links:
            if any(not 0 <= t < n for t in link):
                raise SpecError("link target out of range")
        if any(s < 1 for s in self.spans):
            raise SpecError("spans must be >= 1")
        if all(b.parts for b in self.blocks):
            raise SpecError("the empty partition must be one of the blocks")
        for b in self.blocks:
            if b.parts and b.parts[0] > self.m:
                raise SpecError("block has a part exceeding m")


def lpi_to_spec(lpi: LpiData) -> LinkedSpec:
    """Render finite linking data as a block specification.

    The forbidden patterns detect a violation at the earliest symbol that
    exhibits it: a non-trivial symbol inside a span, or a disallowed
    successor right after it.  This is language-equivalent on infinite
    sequences to forbidding every bad length-(span+1) window at once.
    """
    alphabet = tuple(str(i) for i in range(len(lpi.blocks)))
    pi = tuple(zip(alphabet, lpi.blocks))
    triv = next(s for s, b in pi if b.is_empty())
    nontrivial = [s for s in alphabet if s != triv]
    pieces = []
    for idx, sym in enumerate(alphabet):
        span = lpi.spans[idx]
        allowed = {alphabet[t] for t in lpi.links[idx]}
        for gap in range(span - 1):
            if nontrivial:
                pieces.append(concat_all(
                    [Symbol(sym)] + [Symbol(triv)] * gap
                    + [union_all([Symbol(s) for s in nontrivial])]))
        blocked = [s for s in alphabet if s not in allowed]
        if blocked:
            pieces.append(concat_all(
                [Symbol(sym)] + [Symbol(triv)] * (span - 1)
                + [union_all([Symbol(s) for s in blocked])]))
    x = union_all(pieces)
    return LinkedSpec(lpi.m, alphabet, pi, x, Empty())
