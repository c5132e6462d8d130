import random
import time
from pathlib import Path

import pytest

from conftest import (CLASS_STATE, GOLDEN_EQUATION, GOLDEN_P5, NO_SWAP_ORDER,
                      bipoly_gcd_by_profiles, eliminate_by_flat_terms,
                      mat_inverse_T, mat_mul,
                      mat_shift_x, random_spec, rf_matrix,
                      triangularize_by_products, untrimmed_system)
from reglinked import murraymiller, qalgebra
from reglinked.linked import (QDifferenceSystem, derive_system, load_spec,
                              parse_spec_text, series_from_system)
from reglinked.murraymiller import (
    QDifferenceEquation, derive_equation, eliminate, equation_to_text,
    normalize_equation, reorder, reorder_first, triangularize,
)
from reglinked.qalgebra import Q as q, RationalFunction, X as x
from reglinked.qseries import equation_residual


@pytest.fixture(autouse=True)
def gcd_matches_two_copy_reference(monkeypatch):
    """Every gcd this module's derivations take, in reduced rational
    functions, lcms or normalize_equation, must equal the reference's, and
    every rational function they build must be in canonical form: coprime
    parts by the reference gcd and a positive leading denominator
    coefficient."""
    kernel = qalgebra.bipoly_gcd
    reduced = qalgebra._reduced

    def checked(a, b):
        got = kernel(a, b)
        assert got == bipoly_gcd_by_profiles(a, b), (a, b)
        return got

    def canonical(num, den):
        out = reduced(num, den)
        assert bipoly_gcd_by_profiles(out.num, out.den) == 1, (num, den)
        assert out.den.leading_coefficient() > 0, (num, den)
        return out

    monkeypatch.setattr(qalgebra, "bipoly_gcd", checked)
    monkeypatch.setattr(murraymiller, "bipoly_gcd", checked)
    monkeypatch.setattr(qalgebra, "_reduced", canonical)


def golden_equation(a):
    return QDifferenceEquation(
        2, tuple(RationalFunction._coerce(c) for c in GOLDEN_EQUATION[a]))


# ---------------------------------------------------------------------------
# reordering
# ---------------------------------------------------------------------------

def test_reorder_first(nandi_system):
    moved = reorder_first(nandi_system, 7)
    assert moved.labels == (7, 0, 1, 2, 3, 4, 5)
    # row for the old state 7: transitions to 0, 1, 2 with its weights
    assert moved.matrix[0][1] == RationalFunction._coerce(1)
    assert moved.matrix[0][2] == RationalFunction._coerce(x * q**2)
    assert moved.matrix[0][3] == RationalFunction._coerce(x**2 * q**4)
    assert reorder_first(nandi_system, 0).labels == nandi_system.labels
    assert reorder_first(nandi_system, 0) == nandi_system
    with pytest.raises(ValueError):
        reorder_first(nandi_system, 6)


def test_reorder_is_conjugation(nandi_system):
    moved = reorder(nandi_system, NO_SWAP_ORDER[2])
    # entry (i, j) of the permuted matrix is the old (order[i], order[j]) entry
    old = {lab: i for i, lab in enumerate(nandi_system.labels)}
    for i, ri in enumerate(NO_SWAP_ORDER[2]):
        for j, cj in enumerate(NO_SWAP_ORDER[2]):
            assert moved.matrix[i][j] == nandi_system.matrix[old[ri]][old[cj]]


HEAD_MATRIX = {
    1: ((0, x * q**2, x**2 * q**4, 0, 0, 0, 1),
        (0, x * q**2, 0, 0, 0, 1, 0),
        (1, 0, 0, 0, 0, 0, 0),
        (0, x * q**2, 0, x * q, 0, 1, 0),
        (1, 0, 0, 0, x * q**2, 0, 0),
        (0, x * q**2, x**2 * q**4, x * q, 0, 0, 1),
        (0, x * q**2, x**2 * q**4, x * q, x**2 * q**2, 0, 1)),
    2: ((x * q, x * q**2, 0, 0, 0, 1, 0),
        (0, x * q**2, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, x * q**2, 1, 0, 0),
        (0, x * q**2, x**2 * q**4, 0, 0, 0, 1),
        (x * q, x * q**2, x**2 * q**4, 0, 0, 0, 1),
        (x * q, x * q**2, x**2 * q**4, x**2 * q**2, 0, 0, 1)),
    3: ((x * q**2, 1, 0, 0, 0, 0, 0),
        (0, 0, x**2 * q**4, 0, 0, x * q**2, 1),
        (0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, x * q, 1, x * q**2, 0),
        (0, 0, x**2 * q**4, x * q, 0, x * q**2, 1),
        (0, 0, 0, 0, 1, x * q**2, 0),
        (x**2 * q**2, 0, x**2 * q**4, x * q, 0, x * q**2, 1)),
}


@pytest.mark.parametrize("a", [1, 2, 3])
def test_reordered_head_matrices(a, nandi_system):
    # the fully reordered systems the three eliminations start from
    got = reorder(nandi_system, NO_SWAP_ORDER[a]).matrix
    assert got == rf_matrix(HEAD_MATRIX[a])


def test_manual_first_conjugation_step(nandi_system):
    # carry out P2 = T1(x q^-2) P1 T1(x)^-1 by hand with the matrix
    # primitives, then let the loop finish from there
    system = reorder(nandi_system, NO_SWAP_ORDER[1])
    p1 = system.matrix
    n = len(p1)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(1, n):
        rows[1][j] = p1[0][j]
    t1 = rf_matrix(rows)
    p2 = mat_mul(mat_mul(mat_shift_x(t1, -2), p1), mat_inverse_T(t1))
    resumed = QDifferenceSystem(2, system.labels, p2, system.seed)
    l_prime, p_final = triangularize(resumed)
    assert l_prime == 5
    assert p_final == GOLDEN_P5[1]


# ---------------------------------------------------------------------------
# triangularization goldens
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [1, 2, 3])
def test_triangularize_matches_reduced_matrices(a, nandi_system):
    system = reorder(nandi_system, NO_SWAP_ORDER[a])
    l_prime, p = triangularize(system)
    assert l_prime == 5
    assert p == GOLDEN_P5[a]


@pytest.mark.parametrize("a", [1, 2, 3])
def test_triangularize_matches_matrix_products(a, nandi_system):
    # the shipped reorders: the hand-picked one without swaps, and the
    # target-first one the derivation uses, which swaps
    for system in (reorder(nandi_system, NO_SWAP_ORDER[a]),
                   reorder_first(nandi_system, CLASS_STATE[a])):
        assert triangularize(system) == triangularize_by_products(system)


def test_triangularize_matches_matrix_products_on_random_specs():
    # the untrimmed systems keep the entries into empty classes, which give
    # the conjugation more to do than the trimmed ones
    rng = random.Random(1956)
    checked = conjugated = 0
    while checked < 24:
        system = untrimmed_system(random_spec(rng))
        if len(system.labels) < 2:
            continue  # nothing to conjugate
        moved = reorder_first(system, rng.choice(system.labels))
        want = triangularize_by_products(moved)
        assert triangularize(moved) == want, moved
        checked += 1
        conjugated += want[0] > 1
    assert conjugated >= 15


def test_triangularize_one_by_one():
    system = _one_by_one(1 + x * q)
    l_prime, p = triangularize(system)
    assert l_prime == 1
    assert p == system.matrix


def _one_by_one(entry):
    return QDifferenceSystem(
        1, (0,), rf_matrix([[entry]]), (1,))


def test_triangularize_deterministic(nandi_system):
    for a in (1, 2, 3):
        s = reorder_first(nandi_system, CLASS_STATE[a])
        out1 = triangularize(s)
        out2 = triangularize(s)
        assert out1[0] == out2[0] and out1[1] == out2[1]


def test_intermediate_steps_reproduce_final(nandi_system):
    # running the loop is the same as running it from any intermediate state
    system = reorder(nandi_system, NO_SWAP_ORDER[1])
    l_prime, p = triangularize(system)
    relabeled = QDifferenceSystem(system.step, tuple(range(7)), p, system.seed)
    l2, p2 = triangularize(relabeled)
    assert (l2, p2) == (l_prime, p)


# ---------------------------------------------------------------------------
# elimination and normalization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [1, 2, 3])
def test_full_pipeline_matches_equation_table(a, nandi_system):
    for order in (NO_SWAP_ORDER[a], (CLASS_STATE[a],) + tuple(
            lab for lab in nandi_system.labels if lab != CLASS_STATE[a])):
        system = reorder(nandi_system, order)
        l_prime, p = triangularize(system)
        eq = normalize_equation(eliminate(l_prime, p, system.step))
        assert eq == golden_equation(a), order


def test_eliminate_one_by_one():
    system = _one_by_one(1 + x * q)
    l_prime, p = triangularize(system)
    eq = normalize_equation(eliminate(l_prime, p, 1))
    assert eq.coeffs == (RationalFunction._coerce(1),
                         RationalFunction._coerce(-(1 + x * q)))


def test_eliminate_rejects_l_prime_outside_the_system(nandi_system):
    system = reorder_first(nandi_system, CLASS_STATE[1])
    l_prime, p = triangularize(system)
    assert len(p) == 7
    for bad in (0, -1, len(p) + 1):
        with pytest.raises(ValueError, match=f"l_prime {bad} is not in 1..7"):
            eliminate(bad, p, system.step)
    assert normalize_equation(eliminate(l_prime, p, system.step)) == \
        golden_equation(1)


def test_eliminate_matches_flat_table_reference(nandi_system):
    # rational functions are kept in canonical form, so the per-component
    # tables and the flat table give the same equation before normalizing,
    # whatever order they add in
    def check(system, target):
        moved = reorder_first(system, target)
        l_prime, p = triangularize(moved)
        want = eliminate_by_flat_terms(l_prime, p, moved.step)
        assert eliminate(l_prime, p, moved.step) == want, moved
        return l_prime > 1

    for a in (1, 2, 3):
        assert check(nandi_system, CLASS_STATE[a])
    # every state of random systems of at most 3 states until 100 pairs
    # have l' >= 2, something to eliminate; with 4 states the reference gcd
    # this module checks every gcd against can take a minute on one pair
    rng = random.Random(28)
    eliminated = 0
    while eliminated < 100:
        system = derive_system(random_spec(rng))
        if len(system.labels) <= 3:
            eliminated += sum(check(system, t) for t in system.labels)


def test_normalize_idempotent_and_undoes_scaling():
    eq = golden_equation(1)
    assert normalize_equation(eq) == eq
    scaled = QDifferenceEquation(
        2, tuple(c * RationalFunction._coerce(1 + q) for c in eq.coeffs))
    assert normalize_equation(scaled) == eq
    # a rational scaling clears the same way
    scaled2 = QDifferenceEquation(
        2, tuple(c * ((1 + q) / (3 * q**2)) for c in eq.coeffs))
    assert normalize_equation(scaled2) == eq


def test_equation_invariants():
    with pytest.raises(ValueError):
        QDifferenceEquation(2, (RationalFunction.zero(),))
    eq = golden_equation(2)
    assert eq.order == 5
    assert not eq.coeffs[0].is_zero() and not eq.coeffs[-1].is_zero()


# ---------------------------------------------------------------------------
# solution preservation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [1, 2, 3])
def test_solution_preservation_for_derived_equations(a, nandi_system):
    order = 40
    series = series_from_system(nandi_system, CLASS_STATE[a], order,
                                x_value="symbolic")
    from reglinked.qseries import XSeries
    F = XSeries(series)
    eq = golden_equation(a)
    assert equation_residual(eq, F).is_zero()


def test_solution_preservation_random_systems():
    from reglinked.qseries import XSeries
    rng = random.Random(2024)
    checked = 0
    order = 20
    while checked < 8:
        spec = random_spec(rng)
        system = derive_system(spec)
        if not 2 <= len(system.labels) <= 4:
            continue
        target = rng.choice(system.labels)
        moved = reorder_first(system, target)
        l_prime, p = triangularize(moved)
        eq = normalize_equation(eliminate(l_prime, p, moved.step))
        F = XSeries(series_from_system(system, target, order, x_value="symbolic"))
        assert equation_residual(eq, F).is_zero(), spec
        checked += 1


def test_empty_class_spec_derives_f_equals_zero_at_once():
    # every class of this spec is empty; its untrimmed 6 x 6 system kept
    # Murray-Miller busy for over a minute, the trimmed one is all zeros
    from reglinked.qseries import XSeries
    spec = load_spec(Path(__file__).parent / "cli_golden" / "specs" / "draw8.spec")
    t0 = time.perf_counter()
    state, system, l_prime, _, eq = derive_equation(spec, spec.forbidden_prefixes)
    assert time.perf_counter() - t0 < 1.0
    assert (l_prime, eq.coeffs) == (1, (RationalFunction._coerce(1),))
    F = XSeries(series_from_system(system, state, 20, x_value="symbolic"))
    assert equation_residual(eq, F).is_zero()


def test_equation_text_round_trip():
    # the step, then one line per coefficient, each in its own rendering
    eq = golden_equation(3)
    assert equation_to_text(eq).splitlines() == [f"step: {eq.step}", *(
        f"coeff {i}: {c}" for i, c in enumerate(eq.coeffs))]
    assert equation_to_text(QDifferenceEquation(2, (RationalFunction(1),))) \
        == "step: 2\ncoeff 0: 1\n"
