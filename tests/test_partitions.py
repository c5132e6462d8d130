import pickle
import random

import pytest

from conftest import brute_partition_counts
from reglinked.partitions import (
    EMPTY, MultiplicityVector, Partition, check_modulus_conditions, weight_monomial,
    count_all_class_series, from_multiplicities, in_class, oplus,
    partitions_of, phi_minus, phi_plus, satisfies_nandi, satisfies_nandi_mult,
    to_multiplicities, truncate_gt, truncate_le,
)

def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    p = Partition((3, 1))
    assert p.weight == 4 and len(p) == 2


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
    for n in range(13):
        for p in partitions_of(n):
            assert from_multiplicities(to_multiplicities(p)) == p
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
        assert to_multiplicities(phi_plus(p, k)) == to_multiplicities(p).shifted(k)
        assert to_multiplicities(phi_minus(p, k)) == to_multiplicities(p).shifted(-k)


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


def test_class_extra_conditions_agree_on_lists_and_tuples():
    from reglinked.partitions import _class_extra_ok
    for n in range(13):
        for p in partitions_of(n):
            for a in (1, 2, 3):
                want = _class_extra_ok(p.parts, a)
                assert _class_extra_ok(list(p.parts), a) == want, (p, a)
    assert not _class_extra_ok([9, 6, 4, 2], 3)


def test_count_class_series_examples():
    assert count_all_class_series(6)[1] == [1, 0, 1, 1, 2, 1, 3]
    assert count_all_class_series(0)[1] == [1]
    allc = count_all_class_series(8)
    for a in (1, 2, 3):
        assert allc[a][:7] == count_all_class_series(6)[a]


def test_count_class_series_against_independent_enumeration():
    def predicate(a):
        return lambda parts: in_class(Partition(parts), a)

    counts = count_all_class_series(14)
    for a in (1, 2, 3):
        assert counts[a] == brute_partition_counts(14, predicate(a))


def test_enumeration_order_is_lex_decreasing():
    got = [p.parts for p in partitions_of(5)]
    assert got == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
                   (1, 1, 1, 1, 1)]
    assert [p.parts for p in partitions_of(0)] == [()]


def test_modulus_conditions():
    assert check_modulus_conditions(satisfies_nandi, 2, 25)
    assert check_modulus_conditions(lambda p: True, 3, 10)
    bad = check_modulus_conditions(lambda p: all(x == 3 for x in p.parts), 2, 8)
    assert not bad
    assert bad.witness == Partition((3,))
    assert bad.clause == "phi_minus"
