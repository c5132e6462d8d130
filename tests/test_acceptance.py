"""Acceptance criteria, one test per criterion.

Every comparison is exact (integer/rational equality); the per-criterion
wall-clock budgets are asserted as well.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see one PASS line per criterion.
"""

import random
import time

import pytest

from conftest import (CLASS_PREFIXES, CLASS_STATE, GOLDEN_DFA_ACCEPT,
                      GOLDEN_DFA_TABLE, GOLDEN_EQUATION, GOLDEN_P5,
                      GOLDEN_SYSTEM_ROWS, NO_SWAP_ORDER, all_words,
                      random_spec, regex_match_words, rf_matrix)
from reglinked import linked, murraymiller as mm, partitions, qseries
from conftest import equivalent, isomorphism, restart
from reglinked.automata import Dfa, dfa_from_regex, minimize, parse_regex
from reglinked.murraymiller import QDifferenceEquation
from reglinked.qalgebra import QSeries, RationalFunction
from reglinked.qseries import XSeries


class _Budget:
    def __init__(self, number, limit, label):
        self.number = number
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status}  criterion {self.number} ({elapsed:.2f}s): {self.label}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget")
        return False


def test_criterion_1_minimal_dfa_reproduction():
    with _Budget(1, 1.0, "minimal DFA has 8 states and matches the table"):
        dfa = linked.build_forbidden_dfa(linked.nandi_spec())
        assert dfa.num_states == 8
        assert len(dfa.accept) == 1
        golden = Dfa(("0", "1", "2", "3", "4"), GOLDEN_DFA_TABLE, 0,
                     GOLDEN_DFA_ACCEPT)
        perm = isomorphism(dfa, golden)
        assert perm is not None
        print(f"      state permutation vs. the reference table: {perm}")


def test_criterion_2_state_identification():
    with _Budget(2, 1.0, "three prefix languages map to three distinct states"):
        spec = linked.nandi_spec()
        dfa = linked.build_forbidden_dfa(spec)
        found = {}
        for a in (1, 2, 3):
            extra = parse_regex(CLASS_PREFIXES[a], spec.alphabet)
            st = linked.state_for_class(spec, extra)
            assert st not in dfa.accept
            found[a] = st
            # restart-equivalence: the restarted machine recognizes
            # I* X I* union (prefixes) I*
            istar = parse_regex("(0U1U2U3U4)*", spec.alphabet)
            from reglinked.automata import Concat, Union
            target = dfa_from_regex(
                Union(Concat(istar, Concat(spec.forbidden_patterns, istar)),
                      Concat(extra, istar)), spec.alphabet)
            assert equivalent(restart(dfa, st), target)
        assert len(set(found.values())) == 3
        assert found == CLASS_STATE


def test_criterion_3_system_reproduction():
    with _Budget(3, 1.0, "derived 7x7 system equals the reference matrix"):
        system = linked.derive_system(linked.nandi_spec())
        assert system.labels == (0, 1, 2, 3, 4, 5, 7)
        assert system.matrix == rf_matrix(GOLDEN_SYSTEM_ROWS)


def test_criterion_4_elimination_goldens(nandi_system):
    with _Budget(4, 5.0, "triangularization and the 18 equation coefficients"):
        for a in (1, 2, 3):
            system = mm.reorder(nandi_system, NO_SWAP_ORDER[a])
            l_prime, p = mm.triangularize(system)
            assert l_prime == 5
            if a == 1:
                assert p == GOLDEN_P5[a]
            eq = mm.normalize_equation(mm.eliminate(l_prime, p, system.step))
            want = QDifferenceEquation(
                2, tuple(RationalFunction._coerce(c) for c in GOLDEN_EQUATION[a]))
            assert eq == want


def test_criterion_5_grand_identity():
    with _Budget(5, 60.0, "four series agree through q^80 for every class"):
        order = 80
        counts = partitions.count_all_class_series(order)
        for a in (1, 2, 3):
            brute = QSeries(counts[a], order)
            product = qseries.nandi_product(a, order)
            dsum = qseries.double_sum(a, order)
            solved = qseries.evaluate_x1(
                qseries.solve_equation(qseries.nandi_equation(a), order, order),
                order)
            assert brute == product, a
            assert product == dsum, a
            assert product == solved, a


def test_criterion_6_oracle_equivalence():
    with _Budget(6, 20.0, "DFA word oracle equals the direct predicates, |p| <= 30"):
        spec = linked.nandi_spec()
        for n in range(31):
            for p in partitions.partitions_of(n):
                base = partitions.satisfies_nandi(p)
                assert base == partitions.satisfies_nandi_mult(
                    partitions.to_multiplicities(p))
                assert base == linked.member(p, spec)
                for a in (1, 2, 3):
                    assert linked.member(p, spec, CLASS_STATE[a]) == \
                        partitions.in_class(p, a)


def test_criterion_7_transform_chain():
    with _Budget(7, 5.0, "closed form i_M and zero-residual recurrences"):
        x_order, order = 12, 40
        for a in (1, 2, 3):
            chain = qseries.transform_chain(a, x_order, order)
            for M in range(11):
                assert chain.I.coeff(M) == qseries.closed_form_i(a, M, order)
        # the worked four-term recurrence for the first class
        from reglinked.qalgebra import Q as q, X as x
        chain1 = qseries.transform_chain(1, x_order, order)
        heq = QDifferenceEquation(2, tuple(
            RationalFunction._coerce(c) for c in (
                q * (1 - x) * (1 - x * q**2) * (1 - x * q**4),
                (1 - x * q**2) * (1 - x * q**4) * (1 + x * q**2),
                -q * (1 - x * q**4),
                -1,
            )))
        assert qseries.equation_residual(heq, chain1.H).is_zero()
        geq = QDifferenceEquation(
            2, tuple(qseries.g_equation(qseries.nandi_equation(1))))
        assert qseries.equation_residual(geq, chain1.G).is_zero()


def test_criterion_8_classical_identities():
    with _Budget(8, 5.0, "single-sum, series-product and remark checks at q^40"):
        order = 40
        for bst in ((3, 0, 0), (1, 0, 1), (5, 1, 1)):
            assert qseries.slater_check(bst, order)
        for which in ("A", "B"):
            for k in (1, 2):
                assert qseries.euler_check(which, (1, k), order)
        for a in (1, 2, 3):
            assert qseries.remark_single_sum_check(a, order)


def test_criterion_9_property_suites():
    with _Budget(9, 60.0, "randomized property suites"):
        _property_automata()
        _property_ring_axioms()
        _property_murray_miller_random()
        _property_lpi_difference_two()


def test_criterion_10_verify_all_through_q200(capsys):
    with _Budget(10, 5.0, "verify all --order 200 passes every check"):
        from reglinked.cli import main
        code = main(["verify", "all", "--order", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith("all checks passed\n")
        assert out.count("PASS") == 19


def _property_automata():
    from reglinked.automata import Empty, Epsilon, Star, Symbol, Union, Concat
    rng = random.Random(314)

    def rand_regex(alpha, depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([Symbol(rng.choice(alpha)), Epsilon(), Empty()])
        kind = rng.randrange(3)
        if kind == 0:
            return Union(rand_regex(alpha, depth - 1), rand_regex(alpha, depth - 1))
        if kind == 1:
            return Concat(rand_regex(alpha, depth - 1), rand_regex(alpha, depth - 1))
        return Star(rand_regex(alpha, depth - 1))

    for _ in range(15):
        size = rng.randint(2, 5)
        alpha = ("0", "1", "2", "3", "4")[:size]
        r = rand_regex(alpha, 3)
        d = dfa_from_regex(r, alpha)
        assert minimize(d) == d  # idempotence on canonical minimal machines
        for w in all_words(alpha, 6):
            assert d.accepts(w) == regex_match_words(r, w)


def _property_ring_axioms():
    from reglinked.qalgebra import BiPoly
    rng = random.Random(2718)

    def rand_rf():
        def rand_poly():
            return BiPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                           rng.randint(-3, 3) for _ in range(3)})
        num = rand_poly()
        den = BiPoly()
        while den.is_zero():
            den = rand_poly()
        return num / den

    for _ in range(30):
        a, b, c = rand_rf(), rand_rf(), rand_rf()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _property_murray_miller_random():
    rng = random.Random(97)
    order = 25
    checked = 0
    while checked < 6:
        spec = random_spec(rng)
        system = linked.derive_system(spec)
        if len(system.labels) != 3:
            continue
        target = rng.choice(system.labels)
        moved = mm.reorder_first(system, target)
        l_prime, p = mm.triangularize(moved)
        eq = mm.normalize_equation(mm.eliminate(l_prime, p, moved.step))
        F = XSeries(linked.series_from_system(system, target, order,
                                              x_value="symbolic"))
        assert qseries.equation_residual(eq, F).is_zero()
        checked += 1


def _property_lpi_difference_two():
    from reglinked.partitions import EMPTY, Partition
    lpi = linked.LpiData(1, (EMPTY, Partition((1,))), ((0, 1), (0, 1)), (1, 2))
    spec = linked.lpi_to_spec(lpi)
    system = linked.derive_system(spec)
    got = linked.series_from_system(system, 0, 20)

    def gap_two(parts):
        return all(parts[i] - parts[i + 1] >= 2 for i in range(len(parts) - 1))

    want = [sum(1 for p in partitions.partitions_of(n) if gap_two(p.parts))
            for n in range(21)]
    assert got.coeffs == want
