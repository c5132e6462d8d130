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
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import yaml

from . import automata
from .automata import (
    Dfa, Empty, Regex, Star, Symbol, concat_all, dfa_from_regex, nullable,
    parse_regex, union_all,
)
from .partitions import (
    EMPTY, MultiplicityVector, Partition, from_multiplicities, oplus,
    phi_plus, weight_monomial,
)
from .qalgebra import BiPoly, QSeries, RationalFunction, RfMatrix


class SpecError(ValueError):
    pass


class BlockEncodingError(ValueError):
    """A multiplicity block is not in the image of pi."""


class MissingTrivialSymbolError(ValueError):
    """The alphabet has no symbol mapping to the empty partition, so
    infinite padded sequences do not exist and membership is undefined."""


@dataclass(frozen=True)
class LinkedSpec:
    """(m, I, pi, X, X') with pi injective into the partitions with parts <= m.

    Derived once, at construction: ``pi_map`` (symbol -> partition), the
    block table (the parts of each image of pi -> its symbol; building it
    is the injectivity check), ``trivial_symbol`` (the symbol of the empty
    partition, or None when there is none) and the hash.
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
        if tuple(s for s, _ in self.pi) != self.alphabet:
            raise SpecError("pi must list exactly the alphabet symbols, in order")
        symbol_of_block = {p.parts: s for s, p in self.pi}
        if len(symbol_of_block) != len(self.pi):
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
        object.__setattr__(self, "_symbol_of_block", symbol_of_block)
        object.__setattr__(self, "trivial_symbol", symbol_of_block.get(()))
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
    (regex text; empty or missing means the empty language).  Purely
    numeric regex strings must be quoted, or YAML reads them as numbers.
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
        text = doc.get(field) or ""
        text = str(text).strip()
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
    return str(resources.files("reglinked.data").joinpath("nandi.spec"))


# ---------------------------------------------------------------------------
# block encoding
# ---------------------------------------------------------------------------

def encode(p: Partition, spec: LinkedSpec):
    """Cut the multiplicity vector into length-m blocks and name each block.

    Block k holds the parts in (k*m, (k+1)*m], shifted down by k*m: the
    partition that the k-th length-m multiplicity block spells.
    Returns the symbol sequence with trailing trivial symbols trimmed;
    raises BlockEncodingError when some block is not in the image of pi.
    """
    m = spec.m
    blocks = [[] for _ in range(-(-p.parts[0] // m) if p.parts else 0)]
    for part in p.parts:
        k = (part - 1) // m
        blocks[k].append(part - m * k)
    word = []
    for k, block in enumerate(blocks):
        sym = spec._symbol_of_block.get(tuple(block))
        if sym is None:
            raise BlockEncodingError(
                f"block {block} at offset {k} not in the image of pi")
        word.append(sym)
    triv = spec.trivial_symbol
    while word and word[-1] == triv:
        word.pop()
    return tuple(word)


def decode(word, spec: LinkedSpec) -> Partition:
    """Inverse of encode on its image: assemble shifted blocks."""
    out = EMPTY
    for k, sym in enumerate(word):
        try:
            p = spec.pi_map[sym]
        except KeyError:
            raise SpecError(f"unknown symbol {sym!r}") from None
        out = oplus(out, phi_plus(p, spec.m * k))
    return out


# ---------------------------------------------------------------------------
# the forbidden-language machine and the derived system
# ---------------------------------------------------------------------------

def sigma_star(spec):
    """I*, every word over the spec's alphabet."""
    return Star(union_all([Symbol(s) for s in spec.alphabet]))


def _forbidden_language_dfa(spec, prefixes: Regex) -> Dfa:
    """Minimal DFA for  I* X I*  union  L(prefixes) I*."""
    istar = sigma_star(spec)
    r = automata.Union(
        concat_all([istar, spec.forbidden_patterns, istar]),
        automata.Concat(prefixes, istar),
    )
    return dfa_from_regex(r, spec.alphabet)


@lru_cache(maxsize=64)
def build_forbidden_dfa(spec: LinkedSpec) -> Dfa:
    """Minimal DFA for  I* X I*  union  X' I*  (canonical numbering).

    Its start state is never accepting because neither language contains
    the empty word.
    """
    return _forbidden_language_dfa(spec, spec.forbidden_prefixes)


@dataclass(frozen=True)
class QDifferenceSystem:
    """Coupled system F_v(x) = sum_u A[v][u] F_u(x q^m) over the non-accepting
    states; entries are polynomial weights sum_a x^len(pi_a) q^|pi_a|."""

    step: int
    labels: tuple[int, ...]
    matrix: RfMatrix
    start: int

    def row_of(self, label):
        return self.labels.index(label)


def derive_system(spec: LinkedSpec) -> QDifferenceSystem:
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
    return QDifferenceSystem(spec.m, labels, RfMatrix(rows), dfa.start)


def state_for_class(spec: LinkedSpec, extra_prefixes: Regex):
    """The non-accepting state whose restarted language is
    I* X I*  union  L(extra_prefixes) I*, or None if no state matches
    (the target DFA is minimal, so a matching state minimizes to it)."""
    target = _forbidden_language_dfa(spec, extra_prefixes)
    dfa = build_forbidden_dfa(spec)
    for v in range(dfa.num_states):
        if v not in dfa.accept and automata.minimize(
                automata.restart(dfa, v)) == target:
            return v
    return None


# ---------------------------------------------------------------------------
# series solutions of the system
# ---------------------------------------------------------------------------

def _system_monomials(sys: QDifferenceSystem):
    """Matrix entries as term lists [(coef, deg_x, deg_q)]; entries must be
    polynomial by the system invariant."""
    mono = []
    for row in sys.matrix.entries:
        mrow = []
        for e in row:
            if not e.is_polynomial():
                raise ValueError("system entries must be polynomial")
            mrow.append([(c, i, j) for (i, j), c in e.num.terms.items()])
        mono.append(mrow)
    return mono


def _trivial_successors(mono):
    """Per state, the unique successor reached by a weight-1 transition."""
    n = len(mono)
    succ = [None] * n
    for v in range(n):
        for u in range(n):
            c00 = sum(c for c, i, j in mono[v][u] if i == 0 and j == 0)
            if c00 == 0:
                continue
            if c00 != 1 or succ[v] is not None:
                raise ValueError("system is not of automaton shape: "
                                 "multiple weight-1 transitions from one state")
            succ[v] = u
    return succ


def _empty_word_survives(succ):
    """survive[v] = 1 iff the all-trivial tail from v never dies: |Q| steps
    that never die visit some state twice, so the walk then cycles."""
    def survives(v):
        for _ in range(len(succ)):
            v = succ[v]
            if v is None:
                return 0
        return 1
    return [survives(v) for v in range(len(succ))]


def series_from_system(sys: QDifferenceSystem, state, order: int, x_value=1):
    """Coefficients of the generating function attached to one state.

    Row v of the system reads F_v(x, q) = sum_u M[v][u] F_u(x q^m, q), so a
    term c x^dx q^dq of M[v][u] adds c times the coefficient of x^i q^n in
    F_u to the coefficient of x^(i+dx) q^(n+m*i+dq) in F_v.  That key comes
    strictly after (n, i) in (q-degree, x-degree) order, except for the
    trivial symbol (dx = dq = 0) acting on the constant term, which is
    seeded from the trivial-symbol tail instead: the empty partition
    belongs to the class iff that tail survives.  One pass over the keys
    in that order therefore finishes every coefficient before it is read.
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
    survive = _empty_word_survives(_trivial_successors(mono))
    m = sys.step
    n = len(sys.labels)
    readers = [[] for _ in range(n)]  # readers[u]: the terms that read F_u
    for v, row in enumerate(mono):
        for u, terms in enumerate(row):
            readers[u].extend((v, c, dx, dq) for c, dx, dq in terms)
    # (q-degree, x-degree) -> that coefficient of F_v for every state v
    coeffs = {(0, 0): list(survive)}
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

    Runs the encoded word from the state through the forbidden-language
    machine, then follows the trivial symbol for |Q| further steps: the
    trivial trajectory becomes periodic within |Q| steps, so this finite
    check decides the infinite-tail condition.
    """
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
    x = union_all(pieces) if pieces else Empty()
    return LinkedSpec(lpi.m, alphabet, pi, x, Empty())
