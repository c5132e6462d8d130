"""Batch front end: automaton inspection, system derivation and
elimination, and identity verification.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from . import automata, linked, murraymiller, partitions, qseries
from .linked import SpecError


def _load_spec(path):
    if path is None:
        return linked.nandi_spec()
    return linked.load_spec(path)


def _state_arg(value):
    try:
        return int(value[1:]) if value.startswith("q") else int(value)
    except ValueError:
        raise ValueError(f"bad state label {value!r} (expected qN or N)") from None


def _print_dfa(title, dfa, fmt, out):
    if fmt == "structured":
        out.write(automata.dfa_to_text(dfa))
        return 0
    print(title, file=out)
    accept = "".join(f" q{v}" for v in sorted(dfa.accept))
    print(f"states: {dfa.num_states}   start: q{dfa.start}   accept:{accept}",
          file=out)
    head = "v\\j |" + "".join(f"{s:>4}" for s in dfa.alphabet)
    print(head, file=out)
    print("-" * len(head), file=out)
    for v, row in enumerate(dfa.transitions):
        print(f"q{v:<3}|" + "".join(f"{t:>4}" for t in row), file=out)
    return 0


def cmd_dfa(args, out):
    spec = _load_spec(args.spec)
    dfa = linked.build_forbidden_dfa(spec)
    if args.action == "table":
        return _print_dfa("minimal forbidden-language DFA", dfa, args.format, out)
    # prefixes <state>: every word with a match of X is forbidden, so the
    # cached machine of I*XI* serves as the pattern machine
    try:
        v = _state_arg(args.state)
        result = automata.min_forbidden_prefixes(
            dfa, v, linked.build_forbidden_dfa(spec.pattern_spec))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return _print_dfa(f"minimal forbidden prefixes from state q{v}", result,
                      args.format, out)


def cmd_derive(args, out):
    spec = _load_spec(args.spec)
    if args.target is None:
        # default: the spec's own prefix language, i.e. the start state
        target = spec.forbidden_prefixes
    else:
        try:
            target = automata.parse_regex(args.target, spec.alphabet)
        except ValueError as e:
            print(f"error: bad target regex: {e}", file=sys.stderr)
            return 2
    state, system, l_prime, p, eq = murraymiller.derive_equation(spec, target)
    if args.format == "structured":
        out.write(f"target-state: {state}\n")
        out.write(f"labels: {' '.join(str(v) for v in system.labels)}\n")
        for i, row in enumerate(system.matrix):
            out.write(f"system row {i}: " + " | ".join(str(e) for e in row) + "\n")
        out.write(f"l-prime: {l_prime}\n")
        for i, row in enumerate(p):
            out.write(f"reduced row {i}: " + " | ".join(str(e) for e in row) + "\n")
        out.write(murraymiller.equation_to_text(eq))
        return 0
    print(f"target state: q{state}", file=out)
    print(f"\ncoupled system (step {system.step}), rows/cols "
          + " ".join(f"q{v}" for v in system.labels), file=out)
    for row in system.matrix:
        print("  [" + ", ".join(str(e) for e in row) + "]", file=out)
    steps = "step" if l_prime == 1 else "steps"
    print(f"\ntriangularized after {l_prime} {steps}:", file=out)
    for row in p:
        print("  [" + ", ".join(str(e) for e in row) + "]", file=out)
    print("\nsingle equation, 0 = sum_i p_i(x,q) F(x*q^(step*i)):", file=out)
    for i, c in enumerate(eq.coeffs):
        print(f"  p{eq.step * i}: {c}", file=out)
    return 0


def _check(out, fmt, label, mismatch, details=""):
    """Print one check line.  mismatch is None for a pass, else the first
    exponent where the routes differ, or "unknown" for a derivation that
    raised."""
    ok = mismatch is None
    verdict = "PASS" if ok else "FAIL"
    if fmt == "structured":
        print(f"check: {label} | {verdict} | first-mismatch: "
              f"{'none' if ok else mismatch}", file=out)
        return ok
    tail = f"  ({details})" if details else ""
    print(f"{verdict}  {label}{tail}", file=out)
    return ok


def _check_agree(out, fmt, label, want, got):
    n = want.first_mismatch(got)
    return _check(out, fmt, label, n,
                  "" if n is None else f"first mismatch at q^{n}")


def _equation_series(spec, a, order):
    """Class a's derived equation, solved and set to x = 1 through q^order,
    or the error that stopped it (a failed check).  A class target the spec
    cannot express (it does not parse, or no state has its prefix language)
    is an input error instead."""
    try:
        eq = qseries.class_equation(spec, a)
        return qseries.evaluate_x1(qseries.solve_equation(eq, order, order), order)
    except (SpecError, automata.RegexSyntaxError, automata.AlphabetError) as e:
        raise SpecError(f"class {a}: target "
                        f"{qseries.CLASS_PREFIX_REGEX[a]!r}: {e}") from e
    except (RuntimeError, ValueError, ZeroDivisionError) as e:
        return e


def _verify_class(out, fmt, a, order, counts, derived):
    product = qseries.nandi_product(a, order)
    ok = _check_agree(out, fmt,
                      f"class {a}: enumeration vs product through q^{order}",
                      qseries.QSeries(counts, order), product)
    ok &= _check_agree(out, fmt, f"class {a}: product vs double sum",
                       product, qseries.double_sum(a, order))
    label = f"class {a}: product vs derived equation at x=1"
    if isinstance(derived, Exception):
        return ok & _check(out, fmt, label, "unknown", str(derived))
    return ok & _check_agree(out, fmt, label, product, derived)


def cmd_verify(args, out):
    spec = _load_spec(args.spec)
    order, fmt = args.order, args.format
    classes = (1, 2, 3) if args.which == "all" else (int(args.which),)
    # derive first: a spec that cannot express a class stops before any check
    derived = {a: _equation_series(spec, a, order) for a in classes}
    all_counts = partitions.count_all_class_series(order)
    ok = True
    for a in classes:
        ok &= _verify_class(out, fmt, a, order, all_counts[a], derived[a])
    if args.which == "all":
        for bst in ((3, 0, 0), (1, 0, 1), (5, 1, 1)):
            ok &= _check_agree(out, fmt, f"single-sum/product identity {bst}",
                               *qseries.slater_series(bst, order))
        for which, x in (("A", (1, 1)), ("A", (1, 2)), ("B", (1, 1)), ("B", (1, 2))):
            ok &= _check_agree(out, fmt,
                               f"series-product identity ({which}) at x=q^{x[1]}",
                               *qseries.euler_series(which, x, order))
        for a in classes:
            ok &= _check_agree(out, fmt, f"class {a}: single-sum route",
                               *qseries.remark_single_sum_series(a, order))
    print("all checks passed" if ok else "verification FAILED", file=out)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reglinked",
        description="derive and verify q-difference equations for "
                    "automaton-defined partition classes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dfa = sub.add_parser("dfa", help="build/inspect the forbidden-language DFA")
    p_dfa.add_argument("--spec", default=None, help="spec file (default: shipped mod-14 spec)")
    p_dfa.add_argument("--format", choices=("text", "structured"), default="text")
    p_dfa.add_argument("action", choices=("table", "prefixes"))
    p_dfa.add_argument("state", nargs="?", help="state label for 'prefixes' (e.g. q7)")

    p_der = sub.add_parser("derive", help="derive the single q-difference equation")
    p_der.add_argument("--spec", default=None)
    p_der.add_argument("--target", default=None,
                       help="prefix regex selecting the class (e.g. '3U4'); "
                            "omitted: the spec's own prefixes (its start state)")
    p_der.add_argument("--format", choices=("text", "structured"), default="text")

    p_ver = sub.add_parser("verify", help="run the truncated identity checks")
    p_ver.add_argument("which", choices=("1", "2", "3", "all"))
    p_ver.add_argument("--spec", default=None)
    p_ver.add_argument("--order", type=int, default=40)
    p_ver.add_argument("--format", choices=("text", "structured"), default="text")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "dfa":
            if args.action == "prefixes" and not args.state:
                parser.error("'prefixes' needs a state label")
            return cmd_dfa(args, out)
        if args.command == "derive":
            return cmd_derive(args, out)
        if args.order < 0:
            parser.error("--order must be >= 0")
        return cmd_verify(args, out)
    except (SpecError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
