import pickle
import random
from fractions import Fraction

import pytest

from conftest import (brute_partition_counts, check_modulus_conditions,
                      class_extra_by_scan, count_all_class_series_by_generator,
                      oplus, phi_minus, phi_plus, shifted, truncate_gt,
                      truncate_le)
from reglinked.partitions import (
    EMPTY, MultiplicityVector, Partition, weight_monomial,
    _class_extra_ok, _tail_signature, _window_ok, count_all_class_series,
    from_multiplicities, in_class, partitions_of, satisfies_nandi,
    satisfies_nandi_mult, to_multiplicities,
)
from reglinked.qseries import nandi_product

def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    p = Partition((3, 1))
    assert p.weight == 4 and len(p) == 2


@pytest.mark.parametrize("build, values, kind", [
    (Partition, (2.5, 1), "float"),
    (Partition, ("3", "1"), "str"),
    (Partition, (Fraction(5, 2),), "Fraction"),
    (Partition, (True,), "bool"),
    (Partition, (3, 2.0), "float"),
    (MultiplicityVector, [1.7, 0.2], "float"),
    (MultiplicityVector, [0, True], "bool"),
    (MultiplicityVector, ["1"], "str"),
    (MultiplicityVector, [Fraction(2)], "Fraction"),
])
def test_partition_types_take_only_ints(build, values, kind):
    # int() would truncate: Partition((2.5, 1)) was Partition(2, 1)
    with pytest.raises(TypeError, match=f"ints, got {kind}$"):
        build(values)


def test_pickle_round_trip():
    for value in (EMPTY, Partition((3, 1, 1)), MultiplicityVector(()),
                  MultiplicityVector((0, 2, 0, 1))):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value)
        assert type(back) is type(value)
        with pytest.raises(AttributeError):
            back.parts = ()


def test_multiplicities_examples():
    assert to_multiplicities(Partition((2, 2))) == MultiplicityVector((0, 2))
    assert to_multiplicities(EMPTY) == MultiplicityVector(())
    assert to_multiplicities(Partition((5, 2))) == MultiplicityVector((0, 1, 0, 0, 1))


def test_round_trip_all_small():
    # partitions_of and to_multiplicities skip the constructors' checks, so
    # each result must equal the validated object built from its field
    for n in range(17):
        for p in partitions_of(n):
            assert p == Partition(p.parts) and type(p.parts) is tuple
            f = to_multiplicities(p)
            assert f == MultiplicityVector(f.mults) and type(f.mults) is tuple
            assert from_multiplicities(f) == p
    f = MultiplicityVector((1, 0, 2))
    assert to_multiplicities(from_multiplicities(f)) == f


def test_phi_maps():
    assert phi_plus(Partition((2, 1)), 2) == Partition((4, 3))
    assert phi_minus(Partition((3, 1)), 1) == Partition((2,))
    rng = random.Random(3)
    for _ in range(30):
        parts = sorted((rng.randint(1, 9) for _ in range(rng.randint(0, 5))),
                       reverse=True)
        p = Partition(parts)
        k = rng.randint(0, 3)
        assert phi_minus(phi_plus(p, k), k) == p
        # on multiplicity vectors the maps are shifts
        assert to_multiplicities(phi_plus(p, k)) == shifted(to_multiplicities(p), k)
        assert to_multiplicities(phi_minus(p, k)) == shifted(to_multiplicities(p), -k)


def test_oplus_examples_and_monoid():
    assert oplus(Partition((3, 1)), Partition((2,))) == Partition((3, 2, 1))
    assert oplus(Partition((2, 2)), Partition((2,))) == Partition((2, 2, 2))
    rng = random.Random(11)
    for _ in range(40):
        ps = []
        for _ in range(3):
            parts = sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 4))),
                           reverse=True)
            ps.append(Partition(parts))
        a, b, c = ps
        assert oplus(a, EMPTY) == a
        assert oplus(a, b) == oplus(b, a)
        assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
        # pointwise sum on multiplicity vectors
        fa, fb = to_multiplicities(a), to_multiplicities(b)
        n = max(fa.support_bound(), fb.support_bound())
        summed = MultiplicityVector([fa[i] + fb[i] for i in range(1, n + 1)])
        assert to_multiplicities(oplus(a, b)) == summed


def test_truncations():
    p = Partition((5, 2, 2))
    assert truncate_le(p, 2) == Partition((2, 2))
    assert truncate_gt(p, 2) == Partition((5,))
    assert truncate_le(EMPTY, 3) == EMPTY
    for n in range(10):
        for pp in partitions_of(n):
            assert oplus(truncate_le(pp, 3), truncate_gt(pp, 3)) == pp


def test_weight_monomial_shifts_under_phi_plus():
    # wt = x^len q^weight; adding 1 to every part multiplies by q^len,
    # i.e. substitutes x -> x*q
    from reglinked.qalgebra import RationalFunction
    for n in range(9):
        for p in partitions_of(n):
            w = RationalFunction(weight_monomial(p))
            w2 = RationalFunction(weight_monomial(phi_plus(p, 1)))
            assert w2 == w.shift_x(1)


def test_difference_condition_window_equivalence():
    # parts differ by >= d at distance k iff every d-window of the
    # multiplicity vector sums to <= k
    for n in range(26):
        for p in partitions_of(n):
            f = to_multiplicities(p)
            sup = f.support_bound()
            for k in range(1, 5):
                for d in range(1, 5):
                    parts_ok = all(p.parts[i] - p.parts[i + k] >= d
                                   for i in range(len(p) - k))
                    mult_ok = all(sum(f[j + t] for t in range(d)) <= k
                                  for j in range(1, sup + 1))
                    assert parts_ok == mult_ok, (p, k, d)


def test_base_class_examples():
    assert satisfies_nandi(EMPTY)
    assert not satisfies_nandi(Partition((8, 5, 2, 2)))
    assert satisfies_nandi(Partition((5, 2)))
    # difference windows (3, 2^k, 3, 0); (11,8,6,3,3) fails only this way
    assert not satisfies_nandi(Partition((10, 7, 5, 2, 2)))
    assert not satisfies_nandi(Partition((11, 8, 6, 3, 3)))
    assert satisfies_nandi(Partition((11, 8, 6, 3)))
    assert satisfies_nandi_mult(MultiplicityVector(()))
    assert not satisfies_nandi_mult(MultiplicityVector((0, 1, 1, 1)))
    assert not satisfies_nandi_mult(to_multiplicities(Partition((11, 8, 6, 3, 3))))


def test_mult_form_catches_the_windows_of_twos_after_a_double_part():
    # (>=2, 0, 0, 1, (0, 1)^k, 0, 0, >=1), from an odd and an even start;
    # with a single part at the head, or one more zero before the end
    # from an odd start, the same vectors pass
    for k in range(4):
        for lead in ((), (0,)):
            middle = (0, 0, 1) + (0, 1) * k
            cases = {(2,) + middle + (0, 0, 1): False,
                     (2,) + middle + (0, 0, 2): False,
                     (1,) + middle + (0, 0, 1): True}
            if not lead:
                cases[(2,) + middle + (0, 0, 0, 1)] = True
            for mults, want in cases.items():
                f = MultiplicityVector(lead + mults)
                assert satisfies_nandi_mult(f) is want, f
                assert satisfies_nandi(from_multiplicities(f)) is want, f


def test_base_class_part_vs_mult_agreement():
    for n in range(19):
        for p in partitions_of(n):
            assert satisfies_nandi(p) == satisfies_nandi_mult(to_multiplicities(p)), p


def test_class_examples():
    for a in (1, 2, 3):
        assert in_class(EMPTY, a)
    p22 = Partition((2, 2))
    assert in_class(p22, 1)
    assert not in_class(p22, 2)
    assert not in_class(p22, 3)
    assert not in_class(Partition((5, 2)), 3)
    assert not in_class(Partition((9, 7, 4, 2)), 3)  # contains (7, 4, 2)


def test_class_index_is_checked_whatever_the_partition():
    # (2, 1) fails the base conditions, (5, 2) passes them
    for p in (Partition((2, 1)), Partition((5, 2)), EMPTY):
        assert satisfies_nandi(p) == (p != Partition((2, 1)))
        for a in (0, 4, 7):
            with pytest.raises(ValueError, match="class index must be 1, 2 or 3"):
                in_class(p, a)


def test_class_extra_conditions_agree_on_lists_and_tuples():
    # the tail predicate against the pattern scan, on every partition
    for n in range(31):
        for p in partitions_of(n):
            for a in (1, 2, 3):
                want = class_extra_by_scan(p.parts, a)
                assert class_extra_by_scan(list(p.parts), a) == want, (p, a)
                assert _class_extra_ok(p.parts, a) == want, (p, a)
                assert _class_extra_ok(list(p.parts), a) == want, (p, a)
    assert not _class_extra_ok([9, 6, 4, 2], 3)
    for a in (0, 4):
        with pytest.raises(ValueError):
            _class_extra_ok((2,), a)


def test_count_class_series_examples():
    assert count_all_class_series(6)[1] == [1, 0, 1, 1, 2, 1, 3]
    assert count_all_class_series(0)[1] == [1]
    allc = count_all_class_series(8)
    for a in (1, 2, 3):
        assert allc[a][:7] == count_all_class_series(6)[a]


def test_count_class_series_against_independent_enumeration():
    def predicate(a):
        return lambda parts: in_class(Partition(parts), a)

    counts = count_all_class_series(24)
    for a in (1, 2, 3):
        assert counts[a] == brute_partition_counts(24, predicate(a))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 13, 40, 50, 60])
def test_count_class_series_matches_the_generator_walk(order):
    # the signature counts against a generator walk that visits every
    # base-class partition and decides it by the pattern scan; the counts
    # are ints, not bools
    counts = count_all_class_series(order)
    assert counts == count_all_class_series_by_generator(order)
    assert {type(c) for cs in counts.values() for c in cs} == {int}


def test_count_class_series_equals_the_products_through_q200():
    counts = count_all_class_series(200)
    for a in (1, 2, 3):
        assert counts[a] == nandi_product(a, 200).coeffs, a


def test_tail_signature_decides_every_extension():
    # group the base-class partitions of weight <= 30 by signature, each
    # group with the signature itself as a member: for every next part x,
    # all members must agree on the window at x and on the signature after
    # x, and all on each class verdict
    groups = {}
    for n in range(1, 31):
        for p in partitions_of(n):
            if satisfies_nandi(p):
                groups.setdefault(_tail_signature(p.parts), []).append(p.parts)
    assert max(map(len, groups.values())) > 100

    def behaviour(parts):
        moves = []
        for x in range(1, parts[-1] + 1):
            longer = parts + (x,)
            ok = _window_ok(longer, len(parts))
            moves.append((x, ok, _tail_signature(longer) if ok else None))
        return [_class_extra_ok(parts, a) for a in (1, 2, 3)], moves

    for sig, members in groups.items():
        assert _tail_signature(sig) == sig
        want = behaviour(sig)
        for parts in members:
            assert behaviour(parts) == want, (sig, parts)


def test_enumeration_order_is_lex_decreasing():
    got = [p.parts for p in partitions_of(5)]
    assert got == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
                   (1, 1, 1, 1, 1)]
    assert [p.parts for p in partitions_of(0)] == [()]
    sizes = brute_partition_counts(30, lambda p: True)
    for n in range(31):
        got = [p.parts for p in partitions_of(n)]
        assert all(a > b for a, b in zip(got, got[1:])), n
        assert len(got) == sizes[n], n
    with pytest.raises(ValueError):
        next(partitions_of(-1))
    with pytest.raises(ValueError):
        count_all_class_series(-1)


def test_base_class_is_closed_under_prefixes():
    # the enumeration walk prunes a prefix as soon as it leaves the base
    # class; decided here on the multiplicity form, independent of the walk
    def ok(p):
        return satisfies_nandi_mult(to_multiplicities(p))

    for n in range(27):
        for p in partitions_of(n):
            if ok(p):
                assert all(ok(Partition(p.parts[:i])) for i in range(len(p))), p


def test_modulus_conditions():
    assert check_modulus_conditions(satisfies_nandi, 2, 25)
    assert check_modulus_conditions(lambda p: True, 3, 10)
    bad = check_modulus_conditions(lambda p: all(x == 3 for x in p.parts), 2, 8)
    assert not bad
    assert bad.witness == Partition((3,))
    assert bad.clause == "phi_minus"
