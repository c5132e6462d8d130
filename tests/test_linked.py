import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (CLASS_PREFIXES, CLASS_STATE, GOLDEN_DFA_ACCEPT,
                      GOLDEN_DFA_TABLE, GOLDEN_SYSTEM_ROWS,
                      brute_partition_counts, encode_by_multiplicities,
                      fixed_point_series, random_spec,
                      state_for_class_by_equivalence)
from reglinked import linked
from reglinked.automata import Dfa, Empty, Symbol, isomorphism, parse_regex
from reglinked.linked import (
    BlockEncodingError, LpiData, MissingTrivialSymbolError, QDifferenceSystem,
    SpecError, build_forbidden_dfa, decode, derive_system, encode, load_spec,
    lpi_to_spec, member, nandi_spec, nandi_spec_path, parse_spec_text,
    series_from_system, state_for_class,
)
from reglinked.partitions import (EMPTY, Partition, in_class, partitions_of,
                                  satisfies_nandi)
from reglinked.qalgebra import Q, QSeries, RationalFunction, RfMatrix, X


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def test_shipped_spec_loads():
    spec = nandi_spec()
    assert spec.m == 2
    assert spec.alphabet == ("0", "1", "2", "3", "4")
    assert spec.pi_map["2"] == Partition((2, 2))
    assert spec.pi_map["3"] == Partition((1,))
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
        assert back.pi_map == spec.pi_map
        assert back._symbol_of_block == spec._symbol_of_block
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


def test_encode_matches_multiplicity_route():
    diff_two = lpi_to_spec(
        LpiData(1, (EMPTY, Partition((1,))), ((0, 1), (0, 1)), (1, 2)))
    rng = random.Random(1729)
    specs = [nandi_spec(), diff_two] + [random_spec(rng) for _ in range(20)]
    outcomes = set()
    for spec in specs:
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
    assert series_from_system(system, system.start, 8) == QSeries.zero(8)

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
    assert system.start == 0
    want = RfMatrix([[RationalFunction._coerce(e) for e in row]
                     for row in GOLDEN_SYSTEM_ROWS])
    assert system.matrix == want


def test_system_row_sums_count_surviving_transitions():
    spec = nandi_spec()
    dfa = build_forbidden_dfa(spec)
    system = derive_system(spec)
    for i, v in enumerate(system.labels):
        expect = sum(1 for s in spec.alphabet if dfa.step(v, s) not in dfa.accept)
        total = 0
        for e in system.matrix.entries[i]:
            total += sum(e.num.terms.values())
        assert total == expect


def test_system_entries_polynomial_with_bounded_x_degree():
    spec = nandi_spec()
    max_len = max(len(p) for _, p in spec.pi)
    system = derive_system(spec)
    for row in system.matrix.entries:
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
    assert state_for_class(spec, Symbol("0")) is None


def test_state_for_class_matches_equivalence_route():
    # targets: the empty language, or a union of short words, some starred
    rng = random.Random(2718)
    found = {True: 0, False: 0}
    for _ in range(40):
        spec = random_spec(rng)
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
            assert state_for_class(spec, target) == want, (spec, target)
            found[want is not None] += 1
    assert min(found.values()) >= 40, found


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


def test_series_from_system_rejects_zero_weight_self_feed():
    # F(x, q) = (1 + q) F(x q, q): the trivial symbol loops, so the constant
    # term is 1; q * 1 then lands on q^1, which the term 1 feeds back into
    # q^1 itself: a self-feed at zero weight
    system = QDifferenceSystem(
        1, (0,), RfMatrix([[RationalFunction._coerce(1 + Q)]]), 0)
    for x_value in (1, "symbolic"):
        with pytest.raises(ValueError, match="feeds its own degree"):
            series_from_system(system, 0, 4, x_value=x_value)
    # the same loop on the constant term alone is the seeded exception
    loop = QDifferenceSystem(1, (0,), RfMatrix([[RationalFunction._coerce(1)]]), 0)
    assert series_from_system(loop, 0, 4) == QSeries.one(4)


def test_empty_word_survives_on_hand_built_successors():
    survives = linked._empty_word_survives
    # a chain of |Q| - 1 steps into a dead end: dies from every state
    assert survives([1, 2, 3, None]) == [0, 0, 0, 0]
    # a chain into a cycle, and a chain into a self-loop
    assert survives([1, 2, 3, 1]) == [1, 1, 1, 1]
    assert survives([1, 2, 3, 3]) == [1, 1, 1, 1]
    # a self-loop beside a chain into a dead end
    assert survives([0, 2, None]) == [1, 0, 0]
    assert survives([None, None]) == [0, 0]


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
    assert system.matrix.entries[0][0] == RationalFunction._coerce(1 + X * Q)
    got = series_from_system(system, system.start, 20)
    want = brute_partition_counts(
        20, lambda parts: len(set(parts)) == len(parts))
    assert got.coeffs == want
    five = series_from_system(system, system.start, 5)
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
    assert series_from_system(system, system.start, 6) == QSeries.one(6)


def test_lpi_distinct_parts():
    lpi = LpiData(1, (EMPTY, Partition((1,))), ((0, 1), (0, 1)), (1, 1))
    spec = lpi_to_spec(lpi)
    assert isinstance(spec.forbidden_patterns, Empty)
    system = derive_system(spec)
    got = series_from_system(system, system.start, 20)
    assert got.coeffs == brute_partition_counts(
        20, lambda parts: len(set(parts)) == len(parts))


def test_lpi_difference_two():
    lpi = LpiData(1, (EMPTY, Partition((1,))), ((0, 1), (0, 1)), (1, 2))
    spec = lpi_to_spec(lpi)
    # the early-detection rendering collapses to the single window "11"
    from reglinked.automata import Concat
    assert spec.forbidden_patterns == Concat(Symbol("1"), Symbol("1"))
    system = derive_system(spec)
    got = series_from_system(system, system.start, 20)
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
