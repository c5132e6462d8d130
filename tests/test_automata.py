import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (AND, GOLDEN_DFA_ACCEPT, GOLDEN_DFA_TABLE, OR, EpsNfa,
                      all_words, check_dfa_from_regex_calls, complement,
                      dfa_concat, dfa_from_regex_by_subsets, empty_dfa,
                      equivalent, equivalent_via_product, isomorphism,
                      min_forbidden_prefixes_by_products, product,
                      regex_match_words, restart, subset_construction,
                      table_filling_minimize, to_eps_nfa, word_regex)
from reglinked import automata as A
from reglinked.automata import (
    AlphabetError, Concat, Dfa, Empty, Epsilon, RegexSyntaxError, Star,
    Symbol, Union, dfa_from_regex, dfa_from_text, dfa_to_text,
    min_forbidden_prefixes, minimize, nullable, parse_regex, union_all,
)

DIGITS = ("0", "1", "2", "3", "4")


@pytest.fixture(autouse=True)
def minimize_matches_table_filling(monkeypatch):
    """Every DFA this module minimizes, directly or inside a library
    construction, must minimize to the table-filling reference's result."""
    moore = A.minimize

    def checked(m):
        got = moore(m)
        assert got == table_filling_minimize(m), m
        return got

    monkeypatch.setattr(A, "minimize", checked)
    monkeypatch.setitem(globals(), "minimize", checked)


@pytest.fixture(autouse=True)
def dfa_from_regex_matches_subsets(monkeypatch):
    """Every DFA this module builds from a regex must equal the one the
    Thompson route (epsilon-NFA, subset construction) builds."""
    monkeypatch.setitem(globals(), "dfa_from_regex",
                        check_dfa_from_regex_calls(monkeypatch))


NANDI_X = "12U13U14U21U22U23U24U32U34U42U43U44U104U203U204U304U404U41*03"


def nandi_pattern_dfa():
    istar = Star(union_all([Symbol(s) for s in DIGITS]))
    r = Concat(istar, Concat(parse_regex(NANDI_X, DIGITS), istar))
    return dfa_from_regex(r, DIGITS)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_examples():
    r = parse_regex("12U13", DIGITS)
    assert r == Union(Concat(Symbol("1"), Symbol("2")),
                      Concat(Symbol("1"), Symbol("3")))
    r2 = parse_regex("41*03", DIGITS)
    # concatenations are balanced: the same language as the left-nested tree
    assert r2 == Concat(Concat(Symbol("4"), Star(Symbol("1"))),
                        Concat(Symbol("0"), Symbol("3")))


def test_parse_precedence_star_tighter_than_concat_than_union():
    r = parse_regex("01*U2", DIGITS)
    assert r == Union(Concat(Symbol("0"), Star(Symbol("1"))), Symbol("2"))


def test_parse_errors():
    with pytest.raises(RegexSyntaxError):
        parse_regex("", DIGITS)
    with pytest.raises(RegexSyntaxError):
        parse_regex("1U", DIGITS)
    with pytest.raises(RegexSyntaxError):
        parse_regex("(12", DIGITS)
    with pytest.raises(RegexSyntaxError):
        parse_regex("17", DIGITS)  # unknown symbol
    with pytest.raises(AlphabetError):
        parse_regex("a", ("a", "U"))  # reserved character as a symbol


MULTI = ("aa", "b", "c1")


@pytest.mark.parametrize("text, alphabet, error, message", [
    # an empty expression at the start, after U and after (
    ("", DIGITS, RegexSyntaxError, "empty expression at position 0"),
    (" \t", DIGITS, RegexSyntaxError, "empty expression at position 0"),
    ("U1", DIGITS, RegexSyntaxError, "empty expression at position 0"),
    ("*1", DIGITS, RegexSyntaxError, "empty expression at position 0"),
    ("1U", DIGITS, RegexSyntaxError, "empty expression at position 2"),
    ("1\t\n2U", DIGITS, RegexSyntaxError, "empty expression at position 5"),
    ("1UU2", DIGITS, RegexSyntaxError, "empty expression at position 2"),
    ("12*U*", DIGITS, RegexSyntaxError, "empty expression at position 4"),
    ("()", DIGITS, RegexSyntaxError, "empty expression at position 1"),
    ("1(U2)", DIGITS, RegexSyntaxError, "empty expression at position 2"),
    ("1U(", DIGITS, RegexSyntaxError, "empty expression at position 3"),
    # a ) with nothing before it is an empty expression, not an unexpected one
    (")", DIGITS, RegexSyntaxError, "empty expression at position 0"),
    # a missing )
    ("(12", DIGITS, RegexSyntaxError, "missing ')' at position 3"),
    ("(1(2)", DIGITS, RegexSyntaxError, "missing ')' at position 5"),
    # an unexpected )
    ("12)", DIGITS, RegexSyntaxError, "unexpected token at position 2"),
    ("1*)2", DIGITS, RegexSyntaxError, "unexpected token at position 2"),
    # an unterminated quote
    ("'1", DIGITS, RegexSyntaxError, "unterminated quoted symbol at position 0"),
    ("1 '2", DIGITS, RegexSyntaxError, "unterminated quoted symbol at position 2"),
    ("aa 'b", MULTI, RegexSyntaxError, "unterminated quoted symbol at position 3"),
    # an unknown symbol: one character, a run of characters, quoted
    ("17", DIGITS, RegexSyntaxError, "unknown symbol '7' at position 1"),
    ("1a2", DIGITS, RegexSyntaxError, "unknown symbol 'a' at position 1"),
    ("1\r2", DIGITS, RegexSyntaxError, "unknown symbol '\\r' at position 1"),
    ("aa b d", MULTI, RegexSyntaxError, "unknown symbol 'd' at position 5"),
    ("aa,bb", MULTI, RegexSyntaxError, "unknown symbol 'bb' at position 3"),
    ("aa\rb", MULTI, RegexSyntaxError, "unknown symbol 'aa\\rb' at position 0"),
    ("'7'", DIGITS, RegexSyntaxError, "unknown symbol '7' at position 0"),
    ("'12'", DIGITS, RegexSyntaxError, "unknown symbol '12' at position 0"),
    ("'aa' 'd'", MULTI, RegexSyntaxError, "unknown symbol 'd' at position 5"),
    # an alphabet that cannot be written in the syntax
    ("1", (), AlphabetError, "empty alphabet"),
    ("a", ("a", "U"), AlphabetError, "symbol 'U' collides with regex syntax"),
    ("a", ("a b",), AlphabetError, "symbol 'a b' collides with regex syntax"),
    ("a", ("a*",), AlphabetError, "symbol 'a*' collides with regex syntax"),
    ("x", ("x'",), AlphabetError, "symbol \"x'\" collides with regex syntax"),
    ("1", ("",), AlphabetError, "symbol '' collides with regex syntax"),
])
def test_parse_error_messages_and_positions(text, alphabet, error, message):
    with pytest.raises(error) as info:
        parse_regex(text, alphabet)
    assert type(info.value) is error and str(info.value) == message
    if error is RegexSyntaxError:
        assert info.value.position == int(message.rsplit(" ", 1)[1])


def test_parse_multicharacter_symbols_need_delimiters():
    alpha = ("aa", "b")
    r = parse_regex("'aa' b U b", alpha)
    assert r == Union(Concat(Symbol("aa"), Symbol("b")), Symbol("b"))
    r2 = parse_regex("aa,b*", alpha)
    assert r2 == Concat(Symbol("aa"), Star(Symbol("b")))


_PICKLE_IN_CHILD = """
import pickle, sys
from reglinked.automata import parse_regex
r = parse_regex(sys.argv[1], "01234")
print(pickle.dumps(r).hex(), hash(r))
"""


def test_regex_pickle_rebuilds_its_hash_under_another_hash_seed():
    # a node's hash is computed once and hashes strings, so it differs
    # between processes with different string-hash seeds; a node pickled
    # in another process must not carry that process's hash
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(A.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    text = NANDI_X
    child = subprocess.run([sys.executable, "-c", _PICKLE_IN_CHILD, text],
                           env=env, capture_output=True, check=True, text=True)
    dumped, child_hash = child.stdout.split()
    loaded = pickle.loads(bytes.fromhex(dumped))
    fresh = parse_regex(text, DIGITS)
    assert int(child_hash) != hash(fresh)  # the seeds really differ
    assert loaded == fresh and loaded is not fresh
    assert hash(loaded) == hash(fresh)
    assert {fresh: "found"}.get(loaded) == "found"
    assert {loaded: "found"}.get(fresh) == "found"


# ---------------------------------------------------------------------------
# automaton constructions
# ---------------------------------------------------------------------------

def test_symbol_nfa():
    nfa = to_eps_nfa(Symbol("1"), DIGITS)
    assert nfa.accepts(("1",))
    assert not nfa.accepts(())
    assert not nfa.accepts(("1", "1"))


def test_star_accepts_repetitions():
    nfa = to_eps_nfa(Star(Symbol("1")), DIGITS)
    for k in range(4):
        assert nfa.accepts(("1",) * k)
    assert not nfa.accepts(("1", "2"))


def test_pattern_language_examples():
    nfa = to_eps_nfa(parse_regex("41*03", DIGITS), DIGITS)
    assert nfa.accepts(tuple("403"))
    assert nfa.accepts(tuple("4103"))
    assert nfa.accepts(tuple("41103"))
    assert not nfa.accepts(tuple("413"))


def test_subset_construction_agrees_with_nfa():
    r = parse_regex("41*03", DIGITS)
    nfa = to_eps_nfa(r, DIGITS)
    dfa = subset_construction(nfa)
    for w in all_words(DIGITS[:3] + ("4",), 5):
        assert dfa.accepts(w) == regex_match_words(r, w)


def test_subset_construction_on_dfa_is_isomorphic():
    d = dfa_from_regex(parse_regex("1U20", DIGITS), DIGITS)
    trans = {}
    for v in range(d.num_states):
        for k, a in enumerate(d.alphabet):
            trans[(v, a)] = {d.transitions[v][k]}
    again = subset_construction(
        EpsNfa(d.alphabet, d.num_states, trans, d.start, d.accept))
    assert isomorphism(d, again) is not None


def test_epsilon_cycle_terminates():
    # two states in an epsilon cycle; accepts exactly "0"
    trans = {(0, None): {1}, (1, None): {0}, (0, "0"): {2}}
    nfa = EpsNfa(("0", "1"), 3, trans, 0, {2})
    dfa = subset_construction(nfa)
    assert dfa.accepts(("0",))
    assert not dfa.accepts(())
    assert not dfa.accepts(("1",))


def test_product_and_complement():
    ab = ("a", "b")
    has_ab = dfa_from_regex(parse_regex("(aUb)*ab(aUb)*", ab), ab)
    has_ba = dfa_from_regex(parse_regex("(aUb)*ba(aUb)*", ab), ab)
    both = product(has_ab, has_ba, AND)
    for w in all_words(ab, 6):
        s = "".join(w)
        assert both.accepts(w) == ("ab" in s and "ba" in s)
    assert equivalent(complement(complement(has_ab)), has_ab)
    # AND with the all-accepting machine changes nothing
    top = complement(empty_dfa(ab))
    assert equivalent(product(has_ab, top, AND), has_ab)


def test_product_alphabet_mismatch():
    with pytest.raises(AlphabetError):
        product(empty_dfa(("a",)), empty_dfa(("b",)), AND)


def test_de_morgan_random():
    rng = random.Random(5)
    ab = ("a", "b", "c")
    for _ in range(10):
        m1 = _random_dfa(rng, ab)
        m2 = _random_dfa(rng, ab)
        lhs = complement(product(m1, m2, AND))
        rhs = product(complement(m1), complement(m2), OR)
        assert equivalent(lhs, rhs)


def _random_dfa(rng, alphabet, max_states=4):
    n = rng.randint(1, max_states)
    rows = [tuple(rng.randrange(n) for _ in alphabet) for _ in range(n)]
    accept = {v for v in range(n) if rng.random() < 0.4}
    return Dfa(alphabet, rows, rng.randrange(n), accept)


# ---------------------------------------------------------------------------
# minimization and equivalence
# ---------------------------------------------------------------------------

def test_minimize_nandi_pattern_language():
    m = minimize(nandi_pattern_dfa())
    assert m.num_states == 8
    assert len(m.accept) == 1
    golden = Dfa(DIGITS, GOLDEN_DFA_TABLE, 0, GOLDEN_DFA_ACCEPT)
    assert isomorphism(m, golden) is not None


def test_minimize_idempotent_and_merges_equivalent_states():
    # states 1 and 2 are equivalent accepting states
    m = Dfa(("a",), [(1,), (2,), (1,)], 0, {1, 2})
    small = minimize(m)
    assert small.num_states == 2
    assert equivalent(m, small)
    assert minimize(small) == small


def test_minimize_matches_table_filling_on_random_dfas():
    # each machine copies a random k-class machine over n states, so
    # states merge; odd trials add states the start cannot reach; trial % 3
    # picks all states accepting, none, or a random set of classes
    rng = random.Random(1956)
    merged = unreachable = 0
    for trial in range(36):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        n = rng.randint(1, 40)
        live = rng.randint(1, n) if trial % 2 else n
        k = rng.randint(1, live)
        cls = [v % k for v in range(n)]
        ctrans = [[rng.randrange(k) for _ in alphabet] for _ in range(k)]
        rows = [tuple(rng.choice([u for u in range(live if v < live else n)
                                  if cls[u] == c])
                      for c in ctrans[cls[v]])
                for v in range(n)]
        good = {c for c in range(k) if rng.random() < 0.5}
        accept = [set(range(n)), set(),
                  {v for v in range(n) if cls[v] in good}][trial % 3]
        m = Dfa(alphabet, rows, rng.randrange(live), accept)
        got = minimize(m)
        assert got == table_filling_minimize(m), trial
        assert equivalent_via_product(m, got), trial
        reach = len(m.reachable())
        unreachable += reach < n
        merged += got.num_states < reach
    assert merged >= 10 and unreachable >= 5


def test_equivalence_examples():
    r1 = dfa_from_regex(parse_regex("12U13", DIGITS), DIGITS)
    r2 = dfa_from_regex(parse_regex("1(2U3)", DIGITS), DIGITS)
    assert equivalent(r1, r2)
    for w in all_words(DIGITS[:4], 4):
        assert r1.accepts(w) == regex_match_words(parse_regex("12U13", DIGITS), w)
    m = nandi_pattern_dfa()
    assert equivalent(m, minimize(m))


def test_equivalence_routes_cross_check():
    rng = random.Random(17)
    ab = ("a", "b")
    for _ in range(25):
        m1 = _random_dfa(rng, ab)
        m2 = _random_dfa(rng, ab)
        assert equivalent(m1, m2) == equivalent_via_product(m1, m2)


def test_language_preservation_random_regexes():
    rng = random.Random(23)
    for trial in range(25):
        size = rng.randint(2, 5)
        alpha = DIGITS[:size]
        r = _random_regex(rng, alpha, depth=3)
        d = dfa_from_regex(r, alpha)
        for w in all_words(alpha, 4):
            assert d.accepts(w) == regex_match_words(r, w), (trial, r, w)


def test_dfa_from_regex_matches_subset_route_on_random_regexes():
    # alphabets of 1-4 symbols; every fifth regex may also name "x", which
    # is outside its alphabet, and both routes must then refuse it
    rng = random.Random(1964)
    outcomes = {"equal": 0, "refused": 0}
    for trial in range(3000):
        alpha = DIGITS[:rng.randint(1, 4)]
        r = _random_regex(rng, alpha + ("x",) * (trial % 5 == 0), depth=4)
        try:
            want = dfa_from_regex_by_subsets(r, alpha)
        except AlphabetError:
            with pytest.raises(AlphabetError, match="not in the alphabet"):
                dfa_from_regex(r, alpha)
            outcomes["refused"] += 1
            continue
        assert dfa_from_regex(r, alpha) == want, r
        outcomes["equal"] += 1
    assert outcomes["refused"] >= 100, outcomes


def test_stored_nullable_matches_the_recursive_matcher_and_survives_pickling():
    # the matcher recurses through the tree on the empty word, so it
    # recomputes what each node stored when it was built
    rng = random.Random(2024)
    seen = set()
    for _ in range(600):
        r = _random_regex(rng, DIGITS[:3], depth=5)
        want = regex_match_words(r, ())
        assert nullable(r) is want, r
        back = pickle.loads(pickle.dumps(r))
        assert back == r and hash(back) == hash(r) and nullable(back) is want
        seen.add(want)
    assert seen == {True, False}
    for bad in ("0", None, A.Regex()):
        with pytest.raises(TypeError, match="not a Regex node"):
            nullable(bad)


def _random_regex(rng, alpha, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Symbol(rng.choice(alpha)), Epsilon(), Empty()])
    kind = rng.randrange(3)
    if kind == 0:
        return Union(_random_regex(rng, alpha, depth - 1),
                     _random_regex(rng, alpha, depth - 1))
    if kind == 1:
        return Concat(_random_regex(rng, alpha, depth - 1),
                      _random_regex(rng, alpha, depth - 1))
    return Star(_random_regex(rng, alpha, depth - 1))


def test_restart():
    m = minimize(nandi_pattern_dfa())
    assert restart(m, m.start) == m
    with pytest.raises(ValueError):
        restart(m, 99)


def test_right_ideal_absorption():
    # L = L.Sigma* here, so accepting states only reach accepting states
    m = minimize(nandi_pattern_dfa())
    for v in m.accept:
        assert all(t in m.accept for t in m.transitions[v])


# ---------------------------------------------------------------------------
# minimal forbidden prefixes
# ---------------------------------------------------------------------------

def _x_pattern():
    istar = Star(union_all([Symbol(s) for s in DIGITS]))
    return dfa_from_regex(Concat(istar, parse_regex(NANDI_X, DIGITS)), DIGITS)


@pytest.mark.parametrize("state, prefixes", [
    (7, "3U4"),
    (3, "2U4U04"),
    (4, "2U3U4U04U1*03"),
])
def test_min_forbidden_prefixes_golden(state, prefixes):
    m = minimize(nandi_pattern_dfa())
    got = min_forbidden_prefixes(m, state, _x_pattern())
    want = dfa_from_regex(parse_regex(prefixes, DIGITS), DIGITS)
    assert equivalent(got, want)


def test_min_forbidden_prefixes_start_state_empty():
    m = minimize(nandi_pattern_dfa())
    got = min_forbidden_prefixes(m, 0, _x_pattern())
    assert equivalent(got, empty_dfa(DIGITS))


def test_min_forbidden_prefixes_errors():
    m = minimize(nandi_pattern_dfa())
    with pytest.raises(ValueError):
        min_forbidden_prefixes(m, 6, _x_pattern())  # accepting state
    # an unreachable state is rejected as well, and named apart from a
    # number that is no state at all
    padded = Dfa(m.alphabet, m.transitions + (tuple([0] * 5),), m.start,
                 m.accept)
    with pytest.raises(ValueError, match="^state is not reachable$"):
        min_forbidden_prefixes(padded, 8, _x_pattern())
    for v in (9, 99, -1):
        with pytest.raises(ValueError,
                           match=f"^state {v} is not a state of the machine$"):
            min_forbidden_prefixes(padded, v, _x_pattern())


def test_min_forbidden_prefixes_matches_product_route():
    # every state of the shipped DFA, then random machines: odd trials add
    # states the start cannot reach, and trial % 3 makes the pattern accept
    # everything, nothing or a random set
    m = minimize(nandi_pattern_dfa())
    cases = [(m, v, _x_pattern()) for v in range(m.num_states)]
    rng = random.Random(577)
    for trial in range(90):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        machine = _random_dfa(rng, alphabet, max_states=6)
        if trial % 2:
            n = machine.num_states
            extra = rng.randint(1, 3)
            rows = machine.transitions + tuple(
                tuple(rng.randrange(n + extra) for _ in alphabet)
                for _ in range(extra))
            machine = Dfa(alphabet, rows, machine.start,
                          machine.accept | {n + extra - 1})
        pattern = _random_dfa(rng, alphabet, max_states=4)
        every = frozenset(range(pattern.num_states))
        pattern = Dfa(alphabet, pattern.transitions, pattern.start,
                      [every, frozenset(), pattern.accept][trial % 3])
        cases += [(machine, v, pattern) for v in range(machine.num_states)]
    outcomes = {"ok": 0, "nonempty": 0, "accepting": 0, "unreachable": 0}
    for machine, v, pattern in cases:
        try:
            want = min_forbidden_prefixes_by_products(machine, v, pattern)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                min_forbidden_prefixes(machine, v, pattern)
            outcomes["accepting" if v in machine.accept else "unreachable"] += 1
            continue
        got = min_forbidden_prefixes(machine, v, pattern)
        assert got == want, (machine, v, pattern)
        outcomes["ok"] += 1
        outcomes["nonempty"] += bool(got.accept)
    assert min(outcomes.values()) >= 30, outcomes


def test_min_forbidden_prefixes_alphabet_mismatch():
    m = minimize(nandi_pattern_dfa())
    with pytest.raises(AlphabetError):
        min_forbidden_prefixes(m, 7, empty_dfa(("a",)))


@pytest.mark.parametrize("state, prefixes", [
    (7, "3U4"),
    (3, "2U4U04"),
    (4, "2U3U4U04U1*03"),
])
def test_min_forbidden_prefixes_minimality(state, prefixes):
    # dropping any single short word of the prefix set changes the language
    m = minimize(nandi_pattern_dfa())
    istar_dfa = dfa_from_regex(Star(union_all([Symbol(s) for s in DIGITS])), DIGITS)
    prefix_regex = parse_regex(prefixes, DIGITS)
    target = restart(m, state)
    sanity = product(nandi_pattern_dfa(),
                     dfa_concat(dfa_from_regex(prefix_regex, DIGITS), istar_dfa),
                     OR)
    assert equivalent(sanity, target)
    short_words = [w for w in all_words(DIGITS, 4)
                   if regex_match_words(prefix_regex, w)]
    assert short_words
    for w in short_words:
        without = product(dfa_from_regex(prefix_regex, DIGITS),
                          complement(dfa_from_regex(word_regex(w), DIGITS)),
                          AND)
        weakened = product(nandi_pattern_dfa(),
                           dfa_concat(without, istar_dfa), OR)
        assert not equivalent(weakened, target), w


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_dfa_text_round_trip():
    m = minimize(nandi_pattern_dfa())
    assert dfa_from_text(dfa_to_text(m)) == m
    e = empty_dfa(("a", "b"))
    assert dfa_from_text(dfa_to_text(e)) == e
    lines = dfa_to_text(m).splitlines(keepends=True)
    for i, missing in ((0, "alphabet field"), (1, "states field"),
                       (2, "start field"), (3, "accept field"), (5, "row 1")):
        with pytest.raises(ValueError, match=f"^missing {missing}$"):
            dfa_from_text("".join(lines[:i] + lines[i + 1:]))
