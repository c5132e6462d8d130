"""The benchmark workloads: four parts, run in two pairs.

Each part is set up from the library modules and a seeded random
generator, then run repeatedly; one run is a closed loop of operations,
one at a time, on one thread.  Every operation compares the library's
result with an independent route and reports into an `Outcome`, and ends
with `lap(name)`, which times it on its own.  The library sees only the
generated inputs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import signal
import sys
import time
from types import SimpleNamespace

CLASSES = (1, 2, 3)
MODULES = ("partitions", "qalgebra", "automata", "linked", "murraymiller",
           "qseries", "cli")


def _library_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "reglinked" or name.startswith("reglinked.")}


def load_library(src):
    """Import reglinked afresh from `src`, dropping any loaded copy, and
    return its modules.  Refuses a copy found anywhere else."""
    for name in _library_modules():
        del sys.modules[name]
    src = str(src)
    if sys.path[0] != src:
        sys.path.insert(0, src)
    package = importlib.import_module("reglinked")
    if not package.__file__.startswith(src):
        raise ImportError(f"reglinked imported from {package.__file__}, not {src}")
    mods = {name: importlib.import_module(f"reglinked.{name}") for name in MODULES}
    return SimpleNamespace(modules=[package, *mods.values()], **mods)


@contextlib.contextmanager
def kept_library():
    """Put the loaded reglinked modules back into `sys.modules` after the
    body has loaded other copies, so that imports made inside library
    functions keep finding the copy under test."""
    saved = _library_modules()
    try:
        yield
    finally:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def clear_caches(lib):
    """The per-process caches a CLI user pays for in every process."""
    lib.linked.build_forbidden_dfa.cache_clear()
    lib.qseries.nandi_equation.cache_clear()
    lib.qseries.nandi_class_state.cache_clear()


class Outcome:
    """Operations attempted and failed.  A mismatch between routes or an
    exception also makes the run incorrect; a missed deadline only fails
    the operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def fail(self, what, n=1, wrong=True):
        self.attempted += n
        self.failed += n
        self.correct = self.correct and not wrong
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, ok, what):
        if ok:
            self.attempted += 1
        else:
            self.fail(what)


class DeadlineExceeded(BaseException):
    """Raised into the running operation when its deadline passes; a
    BaseException, so that no handler in the library swallows it."""


@contextlib.contextmanager
def deadline(seconds):
    """Interrupt the body after `seconds` of wall time (main thread only)."""
    def expire(signum, frame):
        raise DeadlineExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def no_lap(name, fixed=False):
    """The `lap` of a run that times nothing."""


def _mismatch(name, want, got):
    n = want.first_mismatch(got)
    return f"{name}: first mismatch at q^{n}"


# ---------------------------------------------------------------------------
# verify-q40
# ---------------------------------------------------------------------------

# q^40, not the headline q^60: the q^60 command is one 16 s call, which a
# measured window cannot repeat often enough to take its fastest time
# (see run.py), and q^40 is a column of the ROADMAP baseline table
VERIFY_ORDER = 40


class CheckLaps(io.StringIO):
    """Captured standard output that ends a lap at every PASS/FAIL line,
    so that each check of the command is timed on its own: the lap runs
    from the previous line to the check's line."""

    def __init__(self, lap):
        super().__init__()
        self.lap = lap

    def write(self, text):
        if text.startswith(("PASS ", "FAIL ")):
            self.lap(text[6:].split("  (")[0])
        return super().write(text)


class VerifyQ40:
    """`reglinked verify all --order 40`, in-process with stdout captured.

    One operation is one of its 19 PASS/FAIL checks.  After the command,
    the benchmark checks the product it vouched for against a route the
    command does not take, the automaton's transfer-matrix series (three
    more operations).  The command is fixed, so it takes no seed.
    """

    NAME = "verify-q40"
    CHECKS = 19

    def __init__(self, lib):
        self.lib = lib
        self.argv = ["verify", "all", "--order", str(VERIFY_ORDER)]

    def run(self, out, lap=no_lap):
        lib = self.lib
        clear_caches(lib)
        buf = CheckLaps(lap)
        try:
            with contextlib.redirect_stdout(buf):
                rc = lib.cli.main(self.argv)
        except Exception as e:
            out.fail(f"verify raised {e!r}", n=self.CHECKS)
            return
        lap("verify exit")
        lines = buf.getvalue().splitlines()
        checks = [l for l in lines if l.startswith(("PASS ", "FAIL "))]
        for line in checks[:self.CHECKS]:
            out.check(line.startswith("PASS "), line)
        if len(checks) != self.CHECKS:
            out.fail(f"verify printed {len(checks)} checks, not {self.CHECKS}",
                     n=max(1, self.CHECKS - len(checks)))
        if rc != 0 or lines[-1:] != ["all checks passed"]:
            out.fail(f"verify exited {rc}: {lines[-1:]}", n=0)
        system = lib.linked.derive_system(lib.linked.nandi_spec())
        for a in CLASSES:
            want = lib.qseries.nandi_product(a, VERIFY_ORDER)
            got = lib.linked.series_from_system(
                system, lib.qseries.nandi_class_state(a), VERIFY_ORDER)
            out.check(want == got, _mismatch(f"class {a} product vs transfer matrix",
                                             want, got))
            lap(f"class {a} transfer matrix")


# ---------------------------------------------------------------------------
# series-q100
# ---------------------------------------------------------------------------

CHAIN_X_ORDER = 12


class SeriesQ100:
    """The q-series routes through q^100, equations derived in set-up.

    Per class, the product, the solved equation at x = 1, the double sum
    and the transfer-matrix series must be equal; the classical identity
    checks must hold; and the transform chain must match its closed form
    for M <= 10.  The seed shuffles the order of the 16 operations.
    """

    NAME = "series-q100"

    def __init__(self, lib, rng, order=100, chain_terms=11):
        self.lib = lib
        self.order = order
        self.chain_terms = chain_terms
        self.system = lib.linked.derive_system(lib.linked.nandi_spec())
        self.states = {a: lib.qseries.nandi_class_state(a) for a in CLASSES}
        self.equations = {a: lib.qseries.nandi_equation(a) for a in CLASSES}
        ops = [(f"class {a} routes", self._routes, a) for a in CLASSES]
        ops += [(f"slater {bst}", self._slater, bst)
                for bst in ((3, 0, 0), (1, 0, 1), (5, 1, 1))]
        ops += [(f"euler {w} at q^{x[1]}", self._euler, (w, x))
                for w, x in (("A", (1, 1)), ("A", (1, 2)), ("B", (1, 1)), ("B", (1, 2)))]
        ops += [(f"class {a} single-sum route", self._remark, a) for a in CLASSES]
        ops += [(f"class {a} transform chain", self._chain, a) for a in CLASSES]
        rng.shuffle(ops)
        self.ops = ops

    def _routes(self, a, order):
        q = self.lib.qseries
        want = q.nandi_product(a, order)
        routes = {
            "solved equation": q.evaluate_x1(
                q.solve_equation(self.equations[a], order, order), order),
            "double sum": q.double_sum(a, order),
            "transfer matrix": self.lib.linked.series_from_system(
                self.system, self.states[a], order),
        }
        bad = [_mismatch(f"class {a} product vs {k}", want, v)
               for k, v in routes.items() if v != want]
        return not bad or "; ".join(bad)

    # library functions are looked up at call time, so that a traced run
    # calls them through the installed wrappers

    def _slater(self, bst, order):
        return self.lib.qseries.slater_check(bst, order)

    def _remark(self, a, order):
        return self.lib.qseries.remark_single_sum_check(a, order)

    def _euler(self, which_x, order):
        return self.lib.qseries.euler_check(*which_x, order)

    def _chain(self, a, order):
        q = self.lib.qseries
        chain = q.transform_chain(a, CHAIN_X_ORDER, order)
        return all(chain.I.coeff(M) == q.closed_form_i(a, M, order)
                   for M in range(self.chain_terms))

    def run(self, out, lap=no_lap):
        for name, fn, arg in self.ops:
            try:
                result = fn(arg, self.order)
            except Exception as e:
                out.fail(f"{name} raised {e!r}")
            else:
                out.check(result is True, name if result is False else str(result))
            lap(name)


# ---------------------------------------------------------------------------
# derive-specs
# ---------------------------------------------------------------------------

M2_BLOCKS = ([], [1], [0, 1], [1, 1], [2])
# the 9-state spec that ROADMAP item 3 reports as killed after 60 s
ROADMAP_PATTERNS = "423U323U410U441U421U132"
# The random draw is fixed, not taken from --seed: the number of specs
# that miss the deadline sets a run's length, so a per-seed draw would
# make run_s a property of the draw instead of the code, and a fixed draw
# lets a later change name the specs it flipped.  Every spec of this draw
# is decided in under 0.2 s or is still running at 10 s on the reference
# machine, so the 3 s deadline classifies each the same way on every run.
DRAW_SEED = 1
DRAW_SIZE = 8
DEADLINE_S = 3.0
RESIDUAL_ORDER = 20
PRODUCT_ORDER = 60


def m2_spec_text(patterns):
    lines = ["m: 2", "alphabet: [0, 1, 2, 3, 4]", "pi:"]
    lines += [f"  {s}: [{', '.join(map(str, b))}]" for s, b in enumerate(M2_BLOCKS)]
    lines.append(f'forbidden_patterns: "{patterns}"')
    return "\n".join(lines) + "\n"


def draw_specs(lib, rng, size):
    """`size` random m = 2 specs over all five blocks, 3-6 forbidden words
    of length 2-3, kept when the DFA has 3-10 non-accepting states."""
    texts = []
    while len(texts) < size:
        words = ["".join(str(rng.randrange(5)) for _ in range(rng.randint(2, 3)))
                 for _ in range(rng.randint(3, 6))]
        text = m2_spec_text("U".join(words))
        dfa = lib.linked.build_forbidden_dfa(lib.linked.parse_spec_text(text))
        if 3 <= dfa.num_states - len(dfa.accept) <= 10:
            texts.append(text)
    lib.linked.build_forbidden_dfa.cache_clear()
    return texts


class DeriveSpecs:
    """Cold derivations of single equations under a per-spec deadline.

    Specs: the shipped spec's three classes, the difference-2 spec from
    `lpi_to_spec`, the ROADMAP 9-state spec and a fixed random draw.  One
    operation derives one equation with the DFA cache cleared first; a
    missed deadline fails it, and a traced run keeps none of its spans or
    counts, so the per-layer figures are those of the decided specs.  A
    spec that missed its deadline is not run again in the same process:
    every later run counts the miss again without waiting it out, so that
    the decided specs and the series part repeat more often.  The
    equation must have zero residual against the transfer-matrix series
    through q^20, and for the shipped classes its x = 1 value must equal
    the product through q^60.  The seed shuffles the order of the specs.
    """

    NAME = "derive-specs"

    def __init__(self, lib, rng, tracer=None, deadline_s=DEADLINE_S,
                 draw_size=DRAW_SIZE):
        self.lib = lib
        self.tracer = tracer
        self.deadline_s = deadline_s
        linked, parse = lib.linked, lib.automata.parse_regex
        nandi = linked.nandi_spec()
        cases = [(f"shipped class {a}", "nandi.spec target "
                  + lib.qseries.CLASS_PREFIX_REGEX[a], nandi,
                  parse(lib.qseries.CLASS_PREFIX_REGEX[a], nandi.alphabet), a)
                 for a in CLASSES]
        P = lib.partitions
        diff2 = linked.lpi_to_spec(linked.LpiData(
            1, (P.EMPTY, P.Partition((1,))), ((0, 1), (0, 1)), (1, 2)))
        cases.append(("difference-2", "lpi_to_spec difference-2", diff2,
                      diff2.forbidden_prefixes, None))
        texts = [m2_spec_text(ROADMAP_PATTERNS)]
        texts += draw_specs(lib, random.Random(DRAW_SEED), draw_size)
        for i, text in enumerate(texts):
            spec = linked.parse_spec_text(text)
            cases.append(("roadmap 9-state" if i == 0 else f"draw {i}", text,
                          spec, spec.forbidden_prefixes, None))
        rng.shuffle(cases)
        self.cases = cases
        self.missed = set()
        self.draw = {"draw_seed": DRAW_SEED, "deadline_s": deadline_s,
                     "specs": {c[0]: {"spec": c[1], "runs": []} for c in cases}}

    def _derive(self, spec, extra):
        lib = self.lib
        mm = lib.murraymiller
        state = lib.linked.state_for_class(spec, extra)
        if state is None:
            raise ValueError("no state matches the target")
        system = lib.linked.derive_system(spec)
        moved = mm.reorder_first(system, state)
        l_prime, p = mm.triangularize(moved)
        return state, system, mm.normalize_equation(mm.eliminate(l_prime, p, moved.step))

    def run(self, out, lap=no_lap):
        for name, _, spec, extra, a in self.cases:
            if name in self.missed:
                out.fail(f"{name}: missed the {self.deadline_s} s deadline", wrong=False)
                continue
            # the only cache on the derivation path; clearing nandi_equation
            # too would make the series part that runs next in the same
            # workload re-derive its equations on every run but the first
            self.lib.linked.build_forbidden_dfa.cache_clear()
            self._case(out, name, spec, extra, a)
            lap(name, fixed=name in self.missed)

    def _case(self, out, name, spec, extra, a):
        q = self.lib.qseries
        record = self.draw["specs"][name]["runs"]
        mark = self.tracer.mark() if self.tracer else None
        t0 = time.perf_counter()
        try:
            with deadline(self.deadline_s):
                state, system, eq = self._derive(spec, extra)
        except DeadlineExceeded:
            if self.tracer:
                self.tracer.discard(mark)
            record.append(["deadline", time.perf_counter() - t0])
            self.missed.add(name)
            out.fail(f"{name}: missed the {self.deadline_s} s deadline", wrong=False)
            return
        except Exception as e:
            record.append(["raised", time.perf_counter() - t0])
            out.fail(f"{name} raised {e!r}")
            return
        record.append(["decided", time.perf_counter() - t0])
        try:
            F = q.XSeries(self.lib.linked.series_from_system(
                system, state, RESIDUAL_ORDER, x_value="symbolic"))
            ok = q.equation_residual(eq, F).is_zero()
            what = f"{name}: nonzero residual against the transfer matrix"
            if ok and a is not None:
                o = PRODUCT_ORDER
                want = q.nandi_product(a, o)
                got = q.evaluate_x1(q.solve_equation(eq, o, o), o)
                ok = want == got
                what = _mismatch(f"{name} product vs equation", want, got)
        except Exception as e:
            ok, what = False, f"{name} check raised {e!r}"
        out.check(ok, what)


# ---------------------------------------------------------------------------
# oracle-w24
# ---------------------------------------------------------------------------

def partition_numbers(n):
    """p(0..n) by Euler's pentagonal recurrence, independent of the
    library's enumerator."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


# partitions per timed batch, about 20 ms of work: the shorter the timed
# piece, the likelier some repetition of it ran undisturbed (see run.py)
BATCH = 100


class OracleW24:
    """Word-membership oracle against the part-form predicates.

    For every partition of weight <= 24, `member` from the start state and
    from the three class states must equal `satisfies_nandi`,
    `satisfies_nandi_mult` and `in_class`.  One operation is one
    partition, timed in batches of BATCH within a weight; the
    enumerator's count per weight must equal p(n).  The seed shuffles the
    order of the weights.
    """

    NAME = "oracle-w24"

    def __init__(self, lib, rng, max_weight=24):
        self.lib = lib
        self.expected = partition_numbers(max_weight)
        self.weights = list(range(max_weight + 1))
        rng.shuffle(self.weights)

    def run(self, out, lap=no_lap):
        lib = self.lib
        clear_caches(lib)
        spec = lib.linked.nandi_spec()
        states = [(a, lib.qseries.nandi_class_state(a)) for a in CLASSES]
        lap("class states")
        for n in self.weights:
            seen = self._weight(out, n, spec, states, lap)
            if seen != self.expected[n]:
                out.fail(f"weight {n}: enumerated {seen} partitions, p(n) = "
                         f"{self.expected[n]}", n=abs(seen - self.expected[n]))
            lap(f"weight {n} end")

    def _weight(self, out, n, spec, states, lap):
        P, L = self.lib.partitions, self.lib.linked
        seen = 0
        for p in P.partitions_of(n):
            if seen % BATCH == 0 and seen:
                lap(f"weight {n} to #{seen}")
            seen += 1
            try:
                base = P.satisfies_nandi(p)
                got = [P.satisfies_nandi_mult(P.to_multiplicities(p)), L.member(p, spec)]
                want = [base, base]
                for a, state in states:
                    got.append(L.member(p, spec, state))
                    want.append(P.in_class(p, a))
            except Exception as e:
                out.fail(f"{p} raised {e!r}")
                continue
            out.check(got == want, f"{p}: routes {got} != predicates {want}")
        return seen


# Two workloads of two parts each, not four: on a shared 2-vCPU Xeon the
# CPU speed drifts by up to a third over tens of seconds, so a process must
# measure for most of a minute to be steady, and the time budget for all
# runs allows that for two workloads.  Each pair keeps one side of the
# library: the partition side (enumeration, predicates, membership) and
# the algebra side (QSeries kernel, gcd).  One run of a workload runs its
# parts one after the other.
WORKLOADS = {
    "verify-oracle": lambda lib, rng, tracer=None: (
        VerifyQ40(lib), OracleW24(lib, rng)),
    "series-derive": lambda lib, rng, tracer=None: (
        SeriesQ100(lib, rng), DeriveSpecs(lib, rng, tracer)),
}
