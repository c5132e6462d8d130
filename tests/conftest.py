"""Shared golden data and independent oracles for the test suite."""

import pytest

from reglinked.qalgebra import (BiPoly, Q as q, QSeries, RationalFunction,
                                RfMatrix, X as x)

ONE = BiPoly.const(1)

# Transition table of the minimal 8-state forbidden-language DFA
# (rows = states 0..7, columns = symbols 0..4; accept state is 6).
GOLDEN_DFA_TABLE = (
    (0, 1, 2, 3, 4),
    (5, 1, 6, 6, 6),
    (7, 6, 6, 6, 6),
    (5, 1, 6, 3, 6),
    (7, 4, 6, 6, 6),
    (0, 1, 2, 3, 6),
    (6, 6, 6, 6, 6),
    (0, 1, 2, 6, 6),
)
GOLDEN_DFA_ACCEPT = frozenset({6})

# The 7x7 coupled-system matrix over the non-accepting states, in the
# order (0, 1, 2, 3, 4, 5, 7).
GOLDEN_SYSTEM_ROWS = (
    (1, x * q**2, x**2 * q**4, x * q, x**2 * q**2, 0, 0),
    (0, x * q**2, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
    (0, x * q**2, 0, x * q, 0, 1, 0),
    (0, 0, 0, 0, x * q**2, 0, 1),
    (1, x * q**2, x**2 * q**4, x * q, 0, 0, 0),
    (1, x * q**2, x**2 * q**4, 0, 0, 0, 0),
)

# Coefficients p_0, p_2, ..., p_10 of the single equation for each class.
GOLDEN_EQUATION = {
    1: (ONE,
        -1 - x * (q**2 + q**3 + q**4),
        x * q**4 * (1 - x + x * q**3 + x * q**4 + x * q**5),
        x**2 * q**6 * (-1 + x * q**4 * (1 + q + q**2 - q**5)),
        x**3 * q**13 * (1 + q + q**2) * (1 - x * q**6),
        x**3 * q**17 * (1 - x * q**6) * (1 - x * q**8)),
    2: (ONE,
        -1 - x * (q + q**2 + q**4),
        x * q**4 * (1 + x * q + x * q**3),
        x**2 * q**10 * (-1 + x * q**4 + x * q**6),
        x**3 * q**15 * (1 + q**2 + q**3) * (1 - x * q**6),
        x**3 * q**19 * (1 - x * q**6) * (1 - x * q**8)),
    3: (ONE,
        -1 - x * (q**2 + q**4 + q**5),
        x * q**4 * (1 + x * q**5 + x * q**7),
        x**2 * q**10 * (-1 + x * q**4 + x * q**6),
        x**3 * q**18 * (1 + q + q**3) * (1 - x * q**6),
        x**3 * q**23 * (1 - x * q**6) * (1 - x * q**8)),
}

# Hand-picked component orderings for which the reduced matrices below
# are reached without any swap.
NO_SWAP_ORDER = {1: (7, 1, 2, 3, 4, 5, 0), 2: (3, 1, 2, 4, 7, 5, 0),
               3: (4, 7, 2, 3, 5, 1, 0)}

CLASS_STATE = {1: 7, 2: 3, 3: 4}
CLASS_PREFIXES = {1: "3U4", 2: "2U4U04", 3: "2U3U4U04U1*03"}


def _rf_rows(rows):
    return RfMatrix([[RationalFunction._coerce(e) for e in row] for row in rows])


GOLDEN_P5 = {
    1: _rf_rows([
        [0, 1, 0, 0, 0, 0, 0],
        [x**2, x + ONE, 1, 0, 0, 0, 0],
        [(x**2 - x**3) / q**2, x / q, RationalFunction(1, q), 1, 0, 0, 0],
        [-x**2 / q**3, (-x * q**2 + x**2) / q**4, (x - q**2) / q**4,
         (x - q**2) / q**3, 1, 0, 0],
        [-x**3 / q**7, 0, 0, 0, x / q**4, 0, 0],
        [0, 1, 0, q / (x - ONE), q**3 / (x - x**2), 0, 0],
        [0, 1, 0, q / (x - ONE), q**3 / (ONE - x), 0, 0],
    ]),
    2: _rf_rows([
        [x * q, 1, 0, 0, 0, 0, 0],
        [x * q, x + ONE, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, x**2 / q**4, x**2 / q**4, x / q**2, 1, 0, 0],
        [0, (x**2 * q**2 - x**3) / q**8, (x**2 * q**2 - x**3) / q**8, 0, 0, 0, 0],
        [x * q, 1, 1, 0, 0, 0, 0],
        [x * q, 1, 1, 1, q**2 / (x - ONE), 0, 0],
    ]),
    3: _rf_rows([
        [x * q**2, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [x**2 * q**2, x**2, 1, 1, 0, 0, 0],
        [0, 0, x / q**2, (x * q + x) / q**2, 1, 0, 0],
        [0, 0, (x * q**2 - x**2) / q**5, (x * q**2 - x**2) / q**5, 0, 0, 0],
        [0, 0, 0, 0, q / (x - x**2), 0, 0],
        [x**2 * q**2, 0, 1, 1, -q / (ONE - x), 0, 0],
    ]),
}


# ---------------------------------------------------------------------------
# independent brute-force oracles
# ---------------------------------------------------------------------------

def brute_partition_counts(order, predicate):
    """Counts of partitions of n <= order satisfying the predicate, done by
    plain exhaustive enumeration over part lists (independent of the
    library's enumerator)."""
    def gen(n, maxpart):
        if n == 0:
            yield ()
            return
        for k in range(min(n, maxpart), 0, -1):
            for rest in gen(n - k, k):
                yield (k,) + rest

    return [sum(1 for p in gen(n, n) if predicate(p)) for n in range(order + 1)]


def regex_match_words(node, word, memo=None):
    """Direct semantic matcher for the regex AST (tuple words), used as the
    oracle for automaton constructions."""
    from reglinked import automata as A

    if memo is None:
        memo = {}
    key = (id(node), word)
    if key in memo:
        return memo[key]
    if isinstance(node, A.Empty):
        out = False
    elif isinstance(node, A.Epsilon):
        out = word == ()
    elif isinstance(node, A.Symbol):
        out = word == (node.name,)
    elif isinstance(node, A.Union):
        out = (regex_match_words(node.left, word, memo)
               or regex_match_words(node.right, word, memo))
    elif isinstance(node, A.Concat):
        out = any(regex_match_words(node.left, word[:k], memo)
                  and regex_match_words(node.right, word[k:], memo)
                  for k in range(len(word) + 1))
    elif isinstance(node, A.Star):
        if word == ():
            out = True
        else:
            out = any(regex_match_words(node.inner, word[:k], memo)
                      and regex_match_words(node, word[k:], memo)
                      for k in range(1, len(word) + 1))
    else:
        raise TypeError(node)
    memo[key] = out
    return out


def all_words(alphabet, max_len):
    import itertools
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def random_spec(rng, m=None):
    """A random block spec with 2-4 symbols and 1-3 forbidden words; m is
    drawn from {1, 2} unless given."""
    from reglinked.linked import parse_spec_text

    if m is None:
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
    return parse_spec_text("\n".join(lines))


# ---------------------------------------------------------------------------
# independent routes kept as test-only references
# ---------------------------------------------------------------------------

def encode_by_multiplicities(p, spec):
    """linked.encode by the multiplicity-vector route: every symbol's
    length-m block read off to_multiplicities(pi(symbol)), and the
    partition's multiplicity vector cut into length-m blocks."""
    from reglinked.linked import BlockEncodingError
    from reglinked.partitions import to_multiplicities

    m = spec.m

    def block(f, b):
        return tuple(f[m * b + i] for i in range(1, m + 1))

    lookup = {block(to_multiplicities(image), 0): s for s, image in spec.pi}
    f = to_multiplicities(p)
    word = []
    for b in range(-(-f.support_bound() // m)):
        here = block(f, b)
        if here not in lookup:
            raise BlockEncodingError(
                f"block {here} at offset {b} not in the image of pi")
        word.append(lookup[here])
    trivial = lookup.get((0,) * m)
    while word and word[-1] == trivial:
        word.pop()
    return tuple(word)


def rf_q_expand(rf, order):
    """Expand an x-free rational function as a truncated q-series; the
    denominator needs a nonzero constant term."""
    if rf.num.degree_x() or rf.den.degree_x():
        raise ValueError("rational function involves x; cannot expand in q alone")
    num = QSeries(rf.num.coefficient_in_x(0), order)
    den = QSeries(rf.den.coefficient_in_x(0), order)
    return num * den.invert()


def equivalent_via_product(m1, m2):
    """Language equality as emptiness of the symmetric difference."""
    from reglinked import automata as A

    if m1.alphabet != m2.alphabet:
        raise A.AlphabetError("automata over different alphabets")
    diff = A.product(m1, m2, A.XOR)
    return not any(v in diff.accept for v in diff.reachable())


def dfa_concat(m1, m2):
    """Concatenation via the epsilon-NFA construction, then determinized."""
    from reglinked.automata import AlphabetError, EpsNfa, subset_construction

    if m1.alphabet != m2.alphabet:
        raise AlphabetError("concatenation of automata over different alphabets")
    n1 = m1.num_states
    trans = {}
    for v in range(n1):
        for k, a in enumerate(m1.alphabet):
            trans.setdefault((v, a), set()).add(m1.transitions[v][k])
    for v in range(m2.num_states):
        for k, a in enumerate(m2.alphabet):
            trans.setdefault((n1 + v, a), set()).add(n1 + m2.transitions[v][k])
    for f in m1.accept:
        trans.setdefault((f, None), set()).add(n1 + m2.start)
    nfa = EpsNfa(m1.alphabet, n1 + m2.num_states, trans, m1.start,
                 frozenset(n1 + f for f in m2.accept))
    return subset_construction(nfa)


def min_forbidden_prefixes_by_products(m, v, x_pattern):
    """automata.min_forbidden_prefixes assembled from closure constructions:
    (L(M_v) & L(M_v)^c . Sigma) minus L(x_pattern), with Sigma a
    hand-written three-state table, then minimized."""
    from reglinked import automata as A

    if v in m.accept:
        raise ValueError("state is accepting; restarted language contains the empty word")
    if v not in m.reachable():
        raise ValueError("state is not reachable")
    k = len(m.alphabet)
    sigma = A.Dfa(m.alphabet, [(1,) * k, (2,) * k, (2,) * k], 0, {1})
    mv = A.restart(m, v)
    almost = dfa_concat(A.complement(mv), sigma)
    base = A.product(mv, almost, A.AND)
    return A.minimize(A.product(base, A.complement(x_pattern), A.AND))


def state_for_class_by_equivalence(spec, extra_prefixes):
    """linked.state_for_class by a language-equivalence test of every
    non-accepting restarted state against the class's forbidden language."""
    from reglinked import automata as A
    from reglinked.linked import build_forbidden_dfa, sigma_star

    istar = sigma_star(spec)
    target = A.dfa_from_regex(
        A.Union(A.concat_all([istar, spec.forbidden_patterns, istar]),
                A.Concat(extra_prefixes, istar)), spec.alphabet)
    dfa = build_forbidden_dfa(spec)
    for v in range(dfa.num_states):
        if v not in dfa.accept and A.equivalent(A.restart(dfa, v), target):
            return v
    return None


def fixed_point_series(system, state, order, x_value=1):
    """The per-state series of a q-difference system by fixed-point
    iteration: order + 1 sweeps of every state over bivariate series
    truncated at q^order, each sweep fixing one more q-order.  The
    x-degree-0 layer is seeded with 1 for the states whose trivial
    (weight-1) walk never dies.  Same return shape as
    linked.series_from_system, which solves the system in one pass."""
    terms = [[[(c, i, j) for (i, j), c in e.num.terms.items()] for e in row]
             for row in system.matrix.entries]
    n = len(terms)

    def trivial_successor(v):
        return next((u for u in range(n)
                     if any(i == j == 0 for _, i, j in terms[v][u])), None)

    def survives(v):
        for _ in range(n):
            v = trivial_successor(v)
            if v is None:
                return False
        return True

    m = system.step
    cur = [({(0, 0): 1} if survives(v) else {}) for v in range(n)]
    for _ in range(order + 1):
        new = [{} for _ in range(n)]
        for v in range(n):
            acc = new[v]
            for u in range(n):
                for c, dx, dq in terms[v][u]:
                    for (i, nq), val in cur[u].items():
                        n2 = nq + m * i + dq
                        if n2 <= order:
                            key = (i + dx, n2)
                            acc[key] = acc.get(key, 0) + c * val
        cur = [{k: val for k, val in d.items() if val} for d in new]
    d = cur[system.row_of(state)]
    if x_value == 1:
        out = [0] * (order + 1)
        for (_, nq), val in d.items():
            out[nq] += val
        return QSeries(out, order)
    top = max((i for i, _ in d), default=0)
    layers = [[0] * (order + 1) for _ in range(top + 1)]
    for (i, nq), val in d.items():
        layers[i][nq] = val
    return [QSeries(ql, order) for ql in layers]


def mat_identity(n):
    return RfMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def mat_shift_x(a, k):
    """Substitute x -> x*q^k in every entry."""
    return RfMatrix([[e.shift_x(k) for e in row] for row in a.entries])


def mat_mul(a, b):
    if a.ncols != b.nrows:
        raise ValueError("matrix dimension mismatch")
    zero = RationalFunction.zero()
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = zero
            for k in range(a.ncols):
                e = a.entries[i][k]
                f = b.entries[k][j]
                if e.is_zero() or f.is_zero():
                    continue
                acc = acc + e * f
            row.append(acc)
        out.append(row)
    return RfMatrix(out)


def mat_inverse_T(t):
    """Closed-form inverse of a matrix that is the identity except in one row.

    The special row r has zeros left of the diagonal; the inverse keeps every
    other row and replaces row r by (0,..,0, 1/p_rr, -p_rj/p_rr, ...).
    Raises ZeroDivisionError if the pivot p_rr is zero.
    """
    n = t.nrows
    if n != t.ncols:
        raise ValueError("not square")
    one = RationalFunction.one()
    zero = RationalFunction.zero()
    special = None
    for i in range(n):
        row_is_identity = all(
            (t[i, j] == one if j == i else t[i, j].is_zero()) for j in range(n)
        )
        if not row_is_identity:
            if special is not None:
                raise ValueError("matrix is not of the one-special-row shape")
            special = i
    if special is None:
        return mat_identity(n)
    r = special
    for j in range(r):
        if not t[r, j].is_zero():
            raise ValueError("special row has entries left of the diagonal")
    pivot = t[r, r]
    if pivot.is_zero():
        raise ZeroDivisionError("singular transform: pivot entry is zero")
    out = [[one if i == j else zero for j in range(n)] for i in range(n)]
    out[r][r] = one / pivot
    for j in range(r + 1, n):
        out[r][j] = -t[r, j] / pivot
    return RfMatrix(out)


def triangularize_by_products(system):
    """murraymiller.triangularize as explicit matrix products: at step s
    build the full transform T (the identity except row s, which holds
    P[s-1][j] for j >= s) and set P <- T(x q^-m) P T(x)^-1, with the same
    smallest-index swap.  Returns (l', P) like the library loop."""
    n = len(system.labels)
    p = system.matrix
    for s in range(1, n + 1):
        row = s - 1
        if all(p[row, j].is_zero() for j in range(s, n)):
            return s, p
        if p[row, s].is_zero():
            t = next(j for j in range(s + 1, n) if not p[row, j].is_zero())
            entries = [list(r) for r in p.entries]
            entries[s], entries[t] = entries[t], entries[s]
            for r in entries:
                r[s], r[t] = r[t], r[s]
            p = RfMatrix(entries)
        t_rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for j in range(s, n):
            t_rows[s][j] = p[row, j]
        t_mat = RfMatrix(t_rows)
        p = mat_mul(mat_mul(mat_shift_x(t_mat, -system.step), p),
                    mat_inverse_T(t_mat))
    raise AssertionError("loop left without returning")


def table_filling_minimize(m):
    """Minimal DFA by the table-filling algorithm: mark the pairs of
    reachable states separated by acceptance, propagate the marks to a
    fixed point, collapse the unmarked pairs, and renumber breadth-first
    like automata.minimize."""
    from reglinked.automata import Dfa

    order = m.reachable()
    index = {v: k for k, v in enumerate(order)}
    n = len(order)
    trans = [[index[t] for t in m.transitions[v]] for v in order]
    accept = [v in m.accept for v in order]
    marked = [[accept[i] != accept[j] for j in range(i)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(i):
                if marked[i][j]:
                    continue
                for a, b in zip(trans[i], trans[j]):
                    if a != b and marked[max(a, b)][min(a, b)]:
                        marked[i][j] = changed = True
                        break
    rep = [next(j for j in range(i + 1) if j == i or not marked[i][j])
           for i in range(n)]
    number = {rep[0]: 0}
    queue = [rep[0]]
    rows = []
    for c in queue:
        row = []
        for t in trans[c]:
            t = rep[t]
            if t not in number:
                number[t] = len(queue)
                queue.append(t)
            row.append(number[t])
        rows.append(row)
    return Dfa(m.alphabet, rows, 0,
               {number[c] for c in queue if accept[c]})


@pytest.fixture(scope="session")
def nandi_system():
    from reglinked import linked
    return linked.derive_system(linked.nandi_spec())
