import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (BlockEncodingError, CLASS_PREFIXES, CLASS_STATE,
                      GOLDEN_DFA_ACCEPT, GOLDEN_DFA_TABLE, GOLDEN_SYSTEM_ROWS,
                      brute_partition_counts, check_dfa_from_regex_calls,
                      decode, encode, encode_by_multiplicities,
                      fixed_point_series,
                      isomorphism, member_by_full_tail, random_spec,
                      rf_matrix, state_for_class_by_equivalence,
                      trivial_walk_survival, untrimmed_system)
from reglinked import linked
from reglinked.automata import (Concat, Dfa, Empty, Regex, Symbol,
                                dfa_from_regex, min_forbidden_prefixes,
                                parse_regex)
from reglinked.linked import (
    LinkedSpec, LpiData, MissingTrivialSymbolError, QDifferenceSystem,
    SpecError, build_forbidden_dfa, derive_system, load_spec, lpi_to_spec,
    member, nandi_spec, nandi_spec_path, parse_spec_text, series_from_system,
    state_for_class,
)
from reglinked.partitions import (EMPTY, Partition, in_class, partitions_of,
                                  satisfies_nandi)
from reglinked.qalgebra import Q, QSeries, RationalFunction, X


@pytest.fixture(autouse=True)
def dfa_from_regex_matches_subsets(monkeypatch):
    """Every DFA this module builds from a regex must equal the one the
    Thompson route (epsilon-NFA, subset construction) builds."""
    check_dfa_from_regex_calls(monkeypatch)


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def test_shipped_spec_loads():
    spec = nandi_spec()
    assert spec.m == 2
    assert spec.alphabet == ("0", "1", "2", "3", "4")
    assert dict(spec.pi)["2"] == Partition((2, 2))
    assert dict(spec.pi)["3"] == Partition((1,))
    assert spec.trivial_symbol == "0"
    assert isinstance(spec.forbidden_prefixes, Empty)
    assert load_spec(nandi_spec_path()) == spec


def test_spec_validation_errors():
    base = """
m: 1
alphabet: [0, 1]
pi:
  0: []
  1: [1]
forbidden_patterns: "11"
"""
    parse_spec_text(base)  # sanity
    with pytest.raises(SpecError):
        parse_spec_text(base.replace("1: [1]", "1: [0, 1]"))  # part > m
    with pytest.raises(SpecError):
        parse_spec_text(base.replace("  1: [1]\n", ""))  # missing pi entry
    with pytest.raises(SpecError):
        parse_spec_text(base.replace('"11"', '"1*"'))  # nullable pattern
    with pytest.raises(SpecError):
        parse_spec_text(base.replace("1: [1]", "1: []"))  # not injective


def test_spec_hash_is_cached_and_equal_parses_share_one_dfa():
    with open(nandi_spec_path(), encoding="utf-8") as fh:
        text = fh.read()
    a, b = parse_spec_text(text), parse_spec_text(text)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    with_prefix = dataclasses.replace(a, forbidden_prefixes=Symbol("1"))
    assert with_prefix != a
    build_forbidden_dfa.cache_clear()
    assert build_forbidden_dfa(a) is build_forbidden_dfa(b)
    build_forbidden_dfa(with_prefix)
    info = build_forbidden_dfa.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_spec_pickle_round_trip():
    for spec in (nandi_spec(), random_spec(random.Random(5))):
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec)
        assert back._column_of_block == spec._column_of_block
        assert back.trivial_symbol == spec.trivial_symbol


_UNPICKLE_IN_CHILD = """
import pickle, sys
from reglinked import linked
spec = pickle.loads(sys.stdin.buffer.read())
fresh = linked.nandi_spec()
linked.build_forbidden_dfa.cache_clear()
linked.build_forbidden_dfa(fresh)
linked.build_forbidden_dfa(spec)
info = linked.build_forbidden_dfa.cache_info()
print(spec == fresh, hash(spec) == hash(fresh), info.hits, info.misses,
      hash("reglinked"))
"""


def test_spec_pickle_rebuilds_its_hash_under_another_hash_seed():
    # the hash of a spec hashes strings, so it differs between processes
    # with different string-hash seeds; an unpickled spec must not carry
    # the hash of the process that pickled it
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(linked.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _UNPICKLE_IN_CHILD],
                           input=pickle.dumps(nandi_spec()), env=env,
                           capture_output=True, check=True)
    equal, same_hash, hits, misses, seen = child.stdout.decode().split()
    assert int(seen) != hash("reglinked")  # the seeds really differ
    assert (equal, same_hash, hits, misses) == ("True", "True", "1", "1")


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_examples():
    spec = nandi_spec()
    assert encode(Partition((5, 2)), spec) == ("1", "0", "3")
    assert encode(EMPTY, spec) == ()
    assert encode(Partition((2, 2)), spec) == ("2",)
    with pytest.raises(BlockEncodingError):
        encode(Partition((2, 2, 2)), spec)


def test_encode_names_the_lowest_bad_offset():
    # blocks 0 and 1 both spell (2, 2, 2), which pi does not reach
    with pytest.raises(BlockEncodingError) as err:
        encode(Partition((4, 4, 4, 2, 2, 2)), nandi_spec())
    assert str(err.value) == "block [2, 2, 2] at offset 0 not in the image of pi"


def _reference_specs():
    """The shipped spec, the difference-2 spec and 20 seeded random specs."""
    diff_two = lpi_to_spec(
        LpiData(1, (EMPTY, Partition((1,))), ((0, 1), (0, 1)), (1, 2)))
    rng = random.Random(1729)
    return [nandi_spec(), diff_two] + [random_spec(rng) for _ in range(20)]


def test_encode_matches_multiplicity_route():
    outcomes = set()
    for spec in _reference_specs():
        for n in range(15):
            for p in partitions_of(n):
                routes = []
                for route in (encode, encode_by_multiplicities):
                    try:
                        routes.append(route(p, spec))
                    except BlockEncodingError:
                        routes.append(BlockEncodingError)
                assert routes[0] == routes[1], (spec, p)
                outcomes.add(routes[0] is BlockEncodingError)
    assert outcomes == {False, True}


def test_decode_examples():
    spec = nandi_spec()
    assert decode(("1", "0", "3"), spec) == Partition((5, 2))
    assert decode((), spec) == EMPTY
    assert decode(("3",), spec) == Partition((1,))


def test_encode_decode_round_trip():
    spec = nandi_spec()
    for n in range(31):
        for p in partitions_of(n):
            if not satisfies_nandi(p):
                continue
            word = encode(p, spec)
            assert decode(word, spec) == p


# ---------------------------------------------------------------------------
# the forbidden-language machine and the system
# ---------------------------------------------------------------------------

def test_forbidden_dfa_matches_golden_table():
    dfa = build_forbidden_dfa(nandi_spec())
    assert dfa.num_states == 8
    assert len(dfa.accept) == 1
    golden = Dfa(("0", "1", "2", "3", "4"), GOLDEN_DFA_TABLE, 0,
                 GOLDEN_DFA_ACCEPT)
    perm = isomorphism(dfa, golden)
    assert perm is not None
    assert not dfa.accept & {dfa.start}


def test_degenerate_specs():
    spec_all = parse_spec_text("""
m: 1
alphabet: [0, 1]
pi:
  0: []
  1: [1]
forbidden_patterns: 0U1
""")
    dfa = build_forbidden_dfa(spec_all)
    assert dfa.num_states == 2 and len(dfa.accept) == 1
    system = derive_system(spec_all)
    assert len(system.labels) == 1
    # every infinite sequence matches a length-1 pattern: the class is empty
    assert series_from_system(system, 0, 8) == QSeries.zero(8)

    spec_none = parse_spec_text("""
m: 1
alphabet: [0, 1]
pi:
  0: []
  1: [1]
""")
    dfa2 = build_forbidden_dfa(spec_none)
    assert dfa2.num_states == 1 and not dfa2.accept
    # nothing forbidden: the class is the full image, here distinct parts
    s = series_from_system(derive_system(spec_none), 0, 10)
    assert s.coeffs == brute_partition_counts(
        10, lambda parts: len(set(parts)) == len(parts))


def test_derive_system_matches_golden():
    system = derive_system(nandi_spec())
    assert system.step == 2
    assert system.labels == (0, 1, 2, 3, 4, 5, 7)
    assert system.matrix == rf_matrix(GOLDEN_SYSTEM_ROWS)


def test_system_row_sums_count_surviving_transitions():
    spec = nandi_spec()
    dfa = build_forbidden_dfa(spec)
    system = derive_system(spec)
    for i, v in enumerate(system.labels):
        expect = sum(1 for s in spec.alphabet if dfa.step(v, s) not in dfa.accept)
        total = 0
        for e in system.matrix[i]:
            total += sum(e.num.terms.values())
        assert total == expect


def test_system_entries_polynomial_with_bounded_x_degree():
    spec = nandi_spec()
    max_len = max(len(p) for _, p in spec.pi)
    system = derive_system(spec)
    for row in system.matrix:
        for e in row:
            assert e.is_polynomial()
            assert e.num.degree_x() <= max_len


def test_system_independent_of_regex_formulation():
    spec = nandi_spec()
    text = nandi_spec_path()
    with open(text, encoding="utf-8") as fh:
        raw = fh.read()
    # factored formulation of the same forbidden patterns
    alt = raw.replace(
        "12U13U14U21U22U23U24U32U34U42U43U44U104U203U204U304U404U41*03",
        "1(2U3U4)U2(1U2U3U4)U3(2U4)U4(2U3U4)U(1U3)04U20(3U4)U404U41*03")
    spec2 = parse_spec_text(alt)
    assert derive_system(spec2) == derive_system(spec)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_state_for_class(a):
    spec = nandi_spec()
    extra = parse_regex(CLASS_PREFIXES[a], spec.alphabet)
    assert state_for_class(spec, extra) == CLASS_STATE[a]


def test_state_for_class_start_and_none():
    spec = nandi_spec()
    assert state_for_class(spec, spec.forbidden_prefixes) == 0
    # a prefix language matching no state
    with pytest.raises(SpecError, match="no state matches"):
        state_for_class(spec, Symbol("0"))


def test_state_for_class_matches_equivalence_route():
    # targets: the empty language, or a union of short words, some starred;
    # every other spec forbids a union of short words as prefixes, so its
    # target machines take I* X I* from a spec other than itself
    rng = random.Random(2718)
    found = {(p, w): 0 for p in (0, 1) for w in (True, False)}
    for k in range(40):
        spec = random_spec(rng)
        if k % 2:
            prefixes = "U".join(
                "".join(rng.choice(spec.alphabet) for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2)))
            spec = dataclasses.replace(
                spec, forbidden_prefixes=parse_regex(prefixes, spec.alphabet))
        for _ in range(6):
            if rng.random() < 0.2:
                target = Empty()
            else:
                words = ["".join(rng.choice(spec.alphabet)
                                 for _ in range(rng.randint(1, 3)))
                         + rng.choice(["", "", "*"])
                         for _ in range(rng.randint(1, 3))]
                target = parse_regex("U".join(words), spec.alphabet)
            want = state_for_class_by_equivalence(spec, target)
            try:
                got = state_for_class(spec, target)
            except SpecError:
                got = None
            assert got == want, (spec, target)
            found[k % 2, want is not None] += 1
    assert min(found.values()) >= 20, found


def test_prefixes_against_the_pattern_machine_match_the_sigma_star_x_route():
    # dfa prefixes passes the cached machine of I* X I* where the pattern
    # machine should recognize I* X: the u of a word ua in the result is
    # outside the restarted language, so it holds no match of X, and ua is
    # in I* X I* exactly when it is in I* X.  Odd specs forbid a union of
    # short words as prefixes, so their pattern spec is another spec.
    rng = random.Random(3141)
    found = {False: 0, True: 0}
    for k in range(300):
        spec = random_spec(rng)
        if k % 2:
            prefixes = "U".join(
                "".join(rng.choice(spec.alphabet) for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2)))
            spec = dataclasses.replace(
                spec, forbidden_prefixes=parse_regex(prefixes, spec.alphabet))
        dfa = build_forbidden_dfa(spec)
        pattern = build_forbidden_dfa(spec.pattern_spec)
        sigma_star_x = dfa_from_regex(
            Concat(linked.sigma_star(spec), spec.forbidden_patterns),
            spec.alphabet)
        for v in range(dfa.num_states):
            if v not in dfa.accept:
                got = min_forbidden_prefixes(dfa, v, pattern)
                assert got == min_forbidden_prefixes(dfa, v, sigma_star_x), (spec, v)
                found[spec.pattern_spec is spec] += 1
    assert min(found.values()) >= 300, found


def _contains(r, sub):
    return r == sub or any(isinstance(c, Regex) and _contains(c, sub)
                           for c in vars(r).values())


def test_class_targets_reuse_the_cached_forbidden_machine(monkeypatch):
    spec = nandi_spec()
    walks = []
    inner = linked.dfa_from_regex

    def counting(r, alphabet):
        walks.append(_contains(r, spec.forbidden_patterns))
        return inner(r, alphabet)

    monkeypatch.setattr(linked, "dfa_from_regex", counting)
    replaced = []
    spec_replace = linked.replace
    monkeypatch.setattr(linked, "replace",
                        lambda *a, **k: replaced.append(a) or spec_replace(*a, **k))
    targets = [parse_regex(CLASS_PREFIXES[a], spec.alphabet) for a in (1, 2, 3)]
    build_forbidden_dfa.cache_clear()
    assert [state_for_class(spec, t) for t in targets] == [
        CLASS_STATE[a] for a in (1, 2, 3)]
    # one walk over I* X I*: the one that fills build_forbidden_dfa's cache;
    # with X' empty that machine is the pattern machine, so no spec is copied
    assert walks == [True, False, False, False]
    assert build_forbidden_dfa.cache_info().misses == 1
    walks.clear()
    for t in targets:
        state_for_class(spec, t)
    assert walks == [False, False, False]
    assert replaced == []
    # with X' not empty, I* X I* is the cached forbidden DFA of the spec with
    # X' emptied, which the spec builds once: the first lookup walks it once
    # (after the spec's own machine), later lookups walk no I* X I*, and no
    # lookup copies the spec
    with_prefixes = dataclasses.replace(
        spec, forbidden_prefixes=parse_regex("04", spec.alphabet))
    assert len(replaced) == 1
    replaced.clear()
    build_forbidden_dfa.cache_clear()
    walks.clear()
    state_for_class(with_prefixes, targets[0])
    assert walks == [True, True, False]
    walks.clear()
    for t in targets:
        state_for_class(with_prefixes, t)
    assert walks == [False, False, False]
    assert replaced == []
    # the shipped spec's cache entry is keyed by that spec object, so the
    # member lookups after a class lookup find it without comparing specs
    compared = []
    spec_eq = LinkedSpec.__eq__
    monkeypatch.setattr(LinkedSpec, "__eq__",
                        lambda a, b: compared.append(b) or spec_eq(a, b))
    build_forbidden_dfa.cache_clear()
    state_for_class(spec, targets[0])
    compared.clear()
    for p in partitions_of(8):
        member(p, spec, 0)
    assert compared == []


# ---------------------------------------------------------------------------
# series and membership
# ---------------------------------------------------------------------------

def test_series_from_system_examples(nandi_system):
    s = series_from_system(nandi_system, 7, 6)
    assert s.coeffs == [1, 0, 1, 1, 2, 1, 3]
    assert series_from_system(nandi_system, 0, 0) == QSeries.one(0)


def test_series_from_system_symbolic(nandi_system):
    coeffs = series_from_system(nandi_system, 7, 8, x_value="symbolic")
    total = QSeries.zero(8)
    for c in coeffs:
        total = total + c
    assert total == series_from_system(nandi_system, 7, 8)
    # x-degree k collects the k-part members of the class
    assert coeffs[1].coeffs == [0, 0, 1, 1, 1, 1, 1, 1, 1]


def test_series_from_system_matches_fixed_point_reference():
    diff_two = lpi_to_spec(
        LpiData(1, (EMPTY, Partition((1,))), ((0, 1), (0, 1)), (1, 2)))
    systems = [derive_system(nandi_spec()), derive_system(diff_two)]
    rng = random.Random(1910)
    while len(systems) < 26:
        # one-state systems are common among random specs and say little
        system = derive_system(random_spec(rng, m=2))
        if len(system.labels) >= 3:
            systems.append(system)
    for system in systems:
        for st in system.labels:
            assert (series_from_system(system, st, 30)
                    == fixed_point_series(system, st, 30)), (system, st)
            assert (series_from_system(system, st, 15, x_value="symbolic")
                    == fixed_point_series(system, st, 15, x_value="symbolic")
                    ), (system, st)


def test_trimming_empty_classes_changes_no_series():
    # dropping the columns of empty-class states reads 0 where the
    # untrimmed system read a series that is 0 anyway
    rng = random.Random(240)
    states = trimmed = 0
    for _ in range(240):
        spec = random_spec(rng)
        system, full = derive_system(spec), untrimmed_system(spec)
        trimmed += system != full
        for u, st in enumerate(system.labels):
            series = series_from_system(system, st, 20, x_value="symbolic")
            assert series == series_from_system(full, st, 20, x_value="symbolic")
            empty = all(c == QSeries.zero(20) for c in series)
            column, full_column = ([row[u] for row in s.matrix]
                                   for s in (system, full))
            assert column == (full_column if not empty
                              else [RationalFunction.zero()] * len(column)), (spec, st)
            states += 1
    assert states >= 400 and trimmed >= 50


def test_empty_class_spec_has_an_all_zero_system():
    # no seeded state is reachable anywhere: every class is empty
    spec = load_spec(Path(__file__).parent / "cli_golden" / "specs" / "draw8.spec")
    system = derive_system(spec)
    assert system.seed == (0,) * len(system.labels)
    assert all(e.is_zero() for row in system.matrix for e in row)
    assert not all(e.is_zero()
                   for row in untrimmed_system(spec).matrix for e in row)


def test_series_from_system_rejects_zero_weight_self_feed():
    # F(x, q) = (1 + q) F(x q, q): the trivial symbol loops, so the constant
    # term is 1; q * 1 then lands on q^1, which the term 1 feeds back into
    # q^1 itself: a self-feed at zero weight
    system = QDifferenceSystem(
        1, (0,), rf_matrix([[1 + Q]]), (1,))
    for x_value in (1, "symbolic"):
        with pytest.raises(ValueError, match="feeds its own degree"):
            series_from_system(system, 0, 4, x_value=x_value)
    # the same loop on the constant term alone is the seeded exception
    loop = QDifferenceSystem(
        1, (0,), rf_matrix([[1]]), (1,))
    assert series_from_system(loop, 0, 4) == QSeries.one(4)


def test_system_seed_holds_a_0_or_1_per_label():
    matrix = rf_matrix([[1 + X * Q]])
    for seed in ((), (1, 1), (2,)):
        with pytest.raises(ValueError, match="seed must hold"):
            QDifferenceSystem(1, (0,), matrix, seed)


def test_system_matrix_has_one_row_and_column_per_distinct_label():
    # unchecked, a 1 x 1 matrix over two labels gives the second label the
    # series 0, a 2 x 2 matrix over one label fails deep in the walk, a
    # ragged row is read past its end, and an empty system has no state
    square = rf_matrix([[1, X], [Q, 1]])
    for labels, matrix, seed in (((0, 1), rf_matrix([[X * Q]]), (1, 0)),
                                 ((0,), square, (1,)),
                                 ((0,), rf_matrix([[1, X]]), (1,)),
                                 ((0, 0), square, (1, 1)),
                                 ((0, 1), rf_matrix([[1, X], [Q]]), (1, 0)),
                                 ((), (), ())):
        with pytest.raises(ValueError, match="labels must be distinct and the matrix"):
            QDifferenceSystem(1, labels, matrix, seed)


WITH_TRIVIAL = "alphabet: [0, 1]\npi: {0: [], 1: [1]}"
NO_TRIVIAL = "alphabet: [1, 2]\npi: {1: [1], 2: [0, 1]}"


@pytest.mark.parametrize("symbols, patterns, prefixes, seed", [
    # the trivial walk 0 -> 1 -> 3 -> 4 dies at the fourth "0"
    (WITH_TRIVIAL, "0000U1", "", (0, 0, 0, 0)),
    # a self-loop at the start beside a chain that dies ("1", then "10")
    (WITH_TRIVIAL, "100", "", (1, 0, 0)),
    # the two parities of "0"s before the first "1" form a cycle, and the
    # states after the first "1" chain into a self-loop
    (WITH_TRIVIAL, "11", "(00)*1", (1, 1, 1, 1)),
    # no class holds the empty partition
    (NO_TRIVIAL, "12U21", "", (0, 0, 0)),
], ids=["chain-dies", "self-loop-beside-dying-chain", "cycle-and-self-loop",
        "no-trivial-symbol"])
def test_seed_equals_trivial_walk_survival(symbols, patterns, prefixes, seed):
    spec = parse_spec_text(f"m: 2\n{symbols}\nforbidden_patterns: \"{patterns}\"\n"
                           f"forbidden_prefixes: \"{prefixes}\"\n")
    system = derive_system(spec)
    assert system.seed == seed
    assert list(system.seed) == trivial_walk_survival(system)


def test_distinct_parts_system():
    spec = parse_spec_text("""
m: 1
alphabet: [0, 1]
pi:
  0: []
  1: [1]
""")
    system = derive_system(spec)
    assert len(system.labels) == 1
    assert system.matrix[0][0] == RationalFunction._coerce(1 + X * Q)
    got = series_from_system(system, 0, 20)
    want = brute_partition_counts(
        20, lambda parts: len(set(parts)) == len(parts))
    assert got.coeffs == want
    five = series_from_system(system, 0, 5)
    assert five.coeffs == [1, 1, 1, 2, 2, 3]


def test_member_examples():
    spec = nandi_spec()
    assert member(Partition((5, 2)), spec)
    assert not member(Partition((2, 2, 2)), spec)
    for st in (0, 1, 2, 3, 4, 5, 7):
        assert member(EMPTY, spec, st)


def test_member_matches_predicates():
    spec = nandi_spec()
    for n in range(17):
        for p in partitions_of(n):
            assert member(p, spec) == satisfies_nandi(p)
            for a in (1, 2, 3):
                assert member(p, spec, CLASS_STATE[a]) == in_class(p, a)


def _specs_with_prefixes(seed, count):
    """Seeded random specs whose forbidden prefixes are a union of one or
    two words of length 1-2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        spec = random_spec(rng)
        prefixes = "U".join(
            "".join(rng.choice(spec.alphabet) for _ in range(rng.randint(1, 2)))
            for _ in range(rng.randint(1, 2)))
        out.append(dataclasses.replace(
            spec, forbidden_prefixes=parse_regex(prefixes, spec.alphabet)))
    return out


# block length 3, with images of pi that share the prefix (1,)
M3_SPECS = ("""
m: 3
alphabet: [0, 1, 2, 3, 4]
pi:
  0: []
  1: [1]
  2: [0, 0, 1]
  3: [1, 1]
  4: [0, 2, 1]
forbidden_patterns: "11U23U303U4"
""", """
m: 3
alphabet: [0, 1, 2, 3]
pi:
  0: []
  1: [0, 1]
  2: [3]
  3: [1, 0, 2]
forbidden_patterns: "12U21U3"
forbidden_prefixes: "2"
""")

# (1, 1) is an image of pi, but its prefix (1,) is not
DOUBLE_ONE_SPEC = """
m: 2
alphabet: [0, 1, 2]
pi:
  0: []
  1: [2]
  2: [0, 1]
forbidden_patterns: "11U202"
"""


def _skips_two_blocks(p, m):
    """Whether some part lies three or more blocks above the part before it
    (or above 0), leaving two whole blocks empty between them."""
    parts = p.parts[::-1]
    return any((b - 1) // m - (a - 1) // m > 2
               for a, b in zip((0, *parts), parts))


def test_member_matches_full_tail_reference():
    # from the start state (None) and from every state, the accepting ones
    # included, over specs with and without forbidden prefixes, and specs
    # for the edges of the block decoder
    unencodable = 0
    longest_tail = 0  # distinct states on a trivial trajectory before it repeats
    accepting = dying = 0
    skip_verdicts = set()
    edge_specs = [parse_spec_text(t) for t in (*M3_SPECS, DOUBLE_ONE_SPEC)]
    assert [spec.m for spec in edge_specs] == [3, 3, 2]
    for spec in (_reference_specs() + _specs_with_prefixes(1414, 10)
                 + edge_specs):
        dfa = build_forbidden_dfa(spec)
        states = [None, *range(dfa.num_states)]
        accepting += len(dfa.accept)
        triv = spec.trivial_symbol
        for v in range(dfa.num_states):
            if v in dfa.accept:
                continue
            seen = []
            u = v
            while u not in seen:
                seen.append(u)
                u = dfa.step(u, triv)
            longest_tail = max(longest_tail, len(seen))
            dying += any(u in dfa.accept for u in seen)
        for n in range(15):
            for p in partitions_of(n):
                try:
                    encode(p, spec)
                except BlockEncodingError:
                    unencodable += 1
                skips = _skips_two_blocks(p, spec.m)
                for v in states:
                    got = member(p, spec, v)
                    assert got == member_by_full_tail(p, spec, v), (spec, p, v)
                    if skips:
                        skip_verdicts.add(got)
    assert skip_verdicts == {False, True}
    assert _skips_two_blocks(Partition((9, 1)), 2)
    assert member(Partition((9, 1)), nandi_spec())
    assert unencodable
    assert longest_tail >= 2
    assert accepting and dying


def test_member_rejects_a_state_outside_the_machine():
    spec = nandi_spec()
    n = build_forbidden_dfa(spec).num_states
    # (2, 1) fails the block scan at offset 0; (1,) passes it
    for p in (Partition((2, 1)), Partition((1,))):
        for state in (-1, -n, n, 99):
            with pytest.raises(ValueError, match=f"state {state} is not"):
                member(p, spec, state)
        assert member(p, spec, n - 1) == member_by_full_tail(p, spec, n - 1)


def test_member_rejects_a_block_prefix_that_is_no_block():
    spec = parse_spec_text(DOUBLE_ONE_SPEC)
    dfa = build_forbidden_dfa(spec)
    # the open block (1,) takes a second 1 but closes to no block
    one = dfa.add_part[dfa.start * dfa.width][1]
    assert one is not None and dfa.add_part[one][1] is not None
    assert dfa.jump[one] is None and not dfa.final[one]
    assert not member(Partition((1,)), spec)
    assert not member(Partition((3, 1)), spec)
    assert member(Partition((1, 1)), spec)
    assert member(Partition((4, 1, 1)), spec)


def test_member_tables_live_on_the_cached_machine():
    # nothing is stored on the spec: the shipped spec is never cleared, so
    # tables kept there would survive build_forbidden_dfa.cache_clear()
    text = Path(nandi_spec_path()).read_text("utf-8")
    spec = parse_spec_text(text)
    fields = set(vars(spec))
    first = build_forbidden_dfa(spec)
    assert member(Partition((5, 2)), spec)
    assert set(vars(spec)) == fields
    build_forbidden_dfa.cache_clear()
    again = parse_spec_text(text)
    assert again == spec and again is not spec
    assert member(Partition((5, 2)), again)
    assert build_forbidden_dfa.cache_info().misses == 1
    fresh = build_forbidden_dfa(again)
    assert fresh is not first
    for name in ("add_part", "jump", "final"):
        assert getattr(fresh, name) == getattr(first, name)
        assert getattr(fresh, name) is not getattr(first, name)
    for n in range(13):
        for p in partitions_of(n):
            for v in (None, *range(fresh.num_states)):
                assert member(p, again, v) == member_by_full_tail(p, again, v)


def test_member_requires_trivial_symbol():
    spec = parse_spec_text("""
m: 1
alphabet: [1]
pi:
  1: [1]
""")
    with pytest.raises(MissingTrivialSymbolError):
        member(Partition((1,)), spec)


def test_series_agreement_with_membership_oracle(nandi_system):
    spec = nandi_spec()
    order = 25
    for st in nandi_system.labels:
        got = series_from_system(nandi_system, st, order)
        want = [0] * (order + 1)
        for n in range(order + 1):
            for p in partitions_of(n):
                if member(p, spec, st):
                    want[n] += 1
        assert got.coeffs == want, st


def test_series_agreement_on_random_specs_with_prefixes():
    import random
    rng = random.Random(4242)
    order = 10
    for _ in range(8):
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
        prefixes = ["".join(str(rng.randrange(k)) for _ in range(rng.randint(1, 2)))
                    for _ in range(rng.randint(1, 2))]
        lines.append('forbidden_prefixes: "' + "U".join(prefixes) + '"')
        spec = parse_spec_text("\n".join(lines))
        system = derive_system(spec)
        for st in system.labels:
            got = series_from_system(system, st, order)
            want = [0] * (order + 1)
            for n in range(order + 1):
                for p in partitions_of(n):
                    if member(p, spec, st):
                        want[n] += 1
            assert got.coeffs == want, (spec, st)


# ---------------------------------------------------------------------------
# finite linking data
# ---------------------------------------------------------------------------

def test_lpi_smallest():
    lpi = LpiData(1, (EMPTY,), ((0,),), (1,))
    spec = lpi_to_spec(lpi)
    assert isinstance(spec.forbidden_patterns, Empty)
    system = derive_system(spec)
    assert series_from_system(system, 0, 6) == QSeries.one(6)


def test_lpi_distinct_parts():
    lpi = LpiData(1, (EMPTY, Partition((1,))), ((0, 1), (0, 1)), (1, 1))
    spec = lpi_to_spec(lpi)
    assert isinstance(spec.forbidden_patterns, Empty)
    system = derive_system(spec)
    got = series_from_system(system, 0, 20)
    assert got.coeffs == brute_partition_counts(
        20, lambda parts: len(set(parts)) == len(parts))


def test_lpi_difference_two():
    lpi = LpiData(1, (EMPTY, Partition((1,))), ((0, 1), (0, 1)), (1, 2))
    spec = lpi_to_spec(lpi)
    # the early-detection rendering collapses to the single window "11"
    from reglinked.automata import Concat
    assert spec.forbidden_patterns == Concat(Symbol("1"), Symbol("1"))
    system = derive_system(spec)
    got = series_from_system(system, 0, 20)
    want = brute_partition_counts(
        20, lambda parts: all(parts[i] - parts[i + 1] >= 2
                              for i in range(len(parts) - 1)))
    assert got.coeffs == want
    assert got.coeffs[:10] == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5]


def test_lpi_validation():
    with pytest.raises(SpecError):
        LpiData(1, (), (), ())
    with pytest.raises(SpecError):
        LpiData(1, (Partition((1,)),), ((0,),), (1,))  # no empty block
    with pytest.raises(SpecError):
        LpiData(1, (EMPTY,), ((3,),), (1,))  # bad link target
