import pytest

from reglinked import qseries
from reglinked.automata import dfa_from_text
from reglinked.cli import main
from reglinked.linked import build_forbidden_dfa, nandi_spec, nandi_spec_path
from reglinked.murraymiller import equation_from_text
from reglinked.qseries import nandi_equation


DIFF2_SPEC = """m: 1
alphabet: [0, 1]
pi:
  0: []
  1: [1]
forbidden_patterns: "11U101"
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dfa_table(capsys):
    code, out, _ = run(capsys, "dfa", "table")
    assert code == 0
    assert "states: 8" in out
    assert "accept: q6" in out
    # the row of the start state
    assert "q0  |   0   1   2   3   4" in out


def test_dfa_structured_round_trip(capsys):
    code, out, _ = run(capsys, "dfa", "--format", "structured", "table")
    assert code == 0
    assert dfa_from_text(out) == build_forbidden_dfa(nandi_spec())


def test_dfa_prefixes(capsys):
    code, out, _ = run(capsys, "dfa", "--format", "structured", "prefixes", "q7")
    assert code == 0
    got = dfa_from_text(out)
    from conftest import equivalent
    from reglinked.automata import dfa_from_regex, parse_regex
    want = dfa_from_regex(parse_regex("3U4", nandi_spec().alphabet),
                          nandi_spec().alphabet)
    assert equivalent(got, want)


@pytest.mark.parametrize("action", ["build", "minimize"])
def test_dfa_actions_are_table_and_prefixes(capsys, action):
    with pytest.raises(SystemExit) as exc:
        main(["dfa", action])
    assert exc.value.code == 2
    assert f"invalid choice: '{action}'" in capsys.readouterr().err


def test_dfa_prefixes_accepting_state_fails(capsys):
    code, _, err = run(capsys, "dfa", "prefixes", "q6")
    assert code == 2
    assert "error" in err


def test_dfa_prefixes_bad_state_label(capsys):
    code, out, err = run(capsys, "dfa", "prefixes", "zz")
    assert code == 2
    assert out == ""
    assert err == "error: bad state label 'zz' (expected qN or N)\n"


@pytest.mark.parametrize("label", ["q99", "q8", "q-1"])
def test_dfa_prefixes_state_outside_the_machine(capsys, label):
    code, out, err = run(capsys, "dfa", "prefixes", label)
    assert code == 2
    assert out == ""
    assert err == f"error: state {label[1:]} is not a state of the machine\n"


def test_derive_matches_pipeline(capsys):
    code, out, _ = run(capsys, "derive", "--target", "3U4",
                       "--format", "structured")
    assert code == 0
    assert "target-state: 7" in out
    tail = out[out.index("step:"):]
    assert equation_from_text(tail) == nandi_equation(1)
    # the emitted system rows parse back to the reordered matrix
    from reglinked.linked import derive_system
    from reglinked.murraymiller import reorder_first
    from reglinked.qalgebra import parse_rational
    system = reorder_first(derive_system(nandi_spec()), 7)
    rows = [line.partition(":")[2] for line in out.splitlines()
            if line.startswith("system row ")]
    assert len(rows) == 7
    for i, line in enumerate(rows):
        got = [parse_rational(entry) for entry in line.split(" | ")]
        assert got == list(system.matrix[i])


def test_derive_class3(capsys):
    code, out, _ = run(capsys, "derive", "--target", "2U3U4U04U1*03")
    assert code == 0
    assert "target state: q4" in out
    assert "p10: x^3*q^23" in out


def test_derive_default_target_one_state_spec(tmp_path, capsys):
    path = tmp_path / "distinct.spec"
    path.write_text("m: 1\nalphabet: [0, 1]\npi:\n  0: []\n  1: [1]\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "derive", "--spec", str(path))
    assert code == 0
    assert "target state: q0" in out
    assert "p0: 1" in out and "p1: -1 - x*q" in out


def test_derive_unmatched_target(capsys):
    code, _, err = run(capsys, "derive", "--target", "0")
    assert code == 2
    assert "no state matches" in err


def test_derive_bad_regex(capsys):
    code, _, err = run(capsys, "derive", "--target", "9U(")
    assert code == 2


def test_verify_single_class(capsys):
    code, out, _ = run(capsys, "verify", "1", "--order", "15")
    assert code == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_verify_all_small_order(capsys):
    code, out, _ = run(capsys, "verify", "all", "--order", "10")
    assert code == 0
    assert "FAIL" not in out
    assert "all checks passed" in out


def test_verify_trivial_order(capsys):
    code, out, _ = run(capsys, "verify", "2", "--order", "0")
    assert code == 0


def _broken_spec(tmp_path):
    # a deliberately wrong spec: one block weight changed
    with open(nandi_spec_path(), encoding="utf-8") as fh:
        text = fh.read()
    bad = text.replace("3: [1, 0]", "3: [1, 1]")
    assert bad != text
    path = tmp_path / "broken.spec"
    path.write_text(bad, encoding="utf-8")
    return str(path)


def test_verify_detects_corruption(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "2", "--order", "20",
                       "--spec", _broken_spec(tmp_path))
    assert code == 1
    assert "FAIL" in out
    assert "first mismatch at q^1" in out


def test_verify_structured_names_the_first_mismatch(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "2", "--order", "20", "--format",
                       "structured", "--spec", _broken_spec(tmp_path))
    assert code == 1
    assert out.splitlines() == [
        "check: class 2: enumeration vs product through q^20 | PASS | first-mismatch: none",
        "check: class 2: product vs double sum | PASS | first-mismatch: none",
        "check: class 2: product vs derived equation at x=1 | FAIL | first-mismatch: 1",
        "verification FAILED",
    ]


@pytest.mark.parametrize("family, key, label", [
    ("slater_series", ((1, 0, 1),), "single-sum/product identity (1, 0, 1)"),
    ("euler_series", ("B", (1, 1)), "series-product identity (B) at x=q^1"),
    ("remark_single_sum_series", (3,), "class 3: single-sum route"),
], ids=["slater", "euler", "remark"])
def test_verify_identity_checks_name_their_first_mismatch(monkeypatch, capsys,
                                                          family, key, label):
    # these checks used to give only a verdict: first-mismatch: unknown
    real = getattr(qseries, family)

    def corrupted(*args):
        lhs, rhs = real(*args)
        if args[:-1] == key:  # the last argument is the order
            rhs = rhs + qseries.QSeries.monomial(1, 7, rhs.order)
        return lhs, rhs

    monkeypatch.setattr(qseries, family, corrupted)
    code, out, _ = run(capsys, "verify", "all", "--order", "12", "--format",
                       "structured")
    assert code == 1
    fails = [line for line in out.splitlines() if "PASS" not in line]
    assert fails == [f"check: {label} | FAIL | first-mismatch: 7",
                     "verification FAILED"]
    code, out, _ = run(capsys, "verify", "all", "--order", "12")
    assert f"FAIL  {label}  (first mismatch at q^7)" in out.splitlines()


def test_verify_spec_without_the_class_targets_is_an_input_error(tmp_path, capsys):
    # the difference-2 spec has no symbol 3 for class 1's target 3U4, and
    # with the patterns "44" no state has that target's prefix language
    diff2 = tmp_path / "diff2.spec"
    diff2.write_text(DIFF2_SPEC, encoding="utf-8")
    with open(nandi_spec_path(), encoding="utf-8") as fh:
        nandi = fh.read()
    patterns = next(l for l in nandi.splitlines()
                    if l.startswith("forbidden_patterns:"))
    no_state = tmp_path / "no-state.spec"
    no_state.write_text(nandi.replace(patterns, 'forbidden_patterns: "44"'),
                        encoding="utf-8")
    for path, which, why in ((diff2, "all", "unknown symbol '3'"),
                             (no_state, "1", "no state matches")):
        for fmt in ("text", "structured"):
            code, out, err = run(capsys, "verify", which, "--order", "10",
                                 "--format", fmt, "--spec", str(path))
            assert code == 2
            assert out == ""
            assert err.startswith("error: class 1: target '3U4': ")
            assert why in err


def test_verify_x_order_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "1", "--order", "30", "--x-order", "2"])
    assert exc.value.code == 2
    assert "--x-order" in capsys.readouterr().err


def test_verify_determinism(capsys):
    _, out1, _ = run(capsys, "verify", "1", "--order", "12")
    _, out2, _ = run(capsys, "verify", "1", "--order", "12")
    assert out1 == out2


def test_missing_spec_file(capsys):
    code, _, err = run(capsys, "dfa", "--spec", "/nonexistent.spec", "table")
    assert code == 2


@pytest.mark.parametrize("old, new, field", [
    ("m: 1", "m: abc", "m: "),
    ("1: [1]", "1: [x]", "pi['1']: "),
    ("1: [1]", "1: [-1]", "pi['1']: "),
])
def test_malformed_spec_value_is_an_input_error(tmp_path, capsys, old, new, field):
    path = tmp_path / "bad.spec"
    path.write_text(DIFF2_SPEC.replace(old, new), encoding="utf-8")
    code, out, err = run(capsys, "dfa", "--spec", str(path), "table")
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + field)


@pytest.mark.parametrize("old, new, field", [
    ("m: 2", "m: 2.5", "m: "),
    ("m: 2", "m: true", "m: "),
    ("1: [1]", "1: [0, 1.7]", "pi['1']: "),
    ("1: [1]", "1: [0, true]", "pi['1']: "),
    ("0: []", "0: 0", "pi['0']: "),
    ("0: []", "0: false", "pi['0']: "),
])
def test_spec_value_of_the_wrong_type_is_an_input_error(tmp_path, capsys, old,
                                                        new, field):
    # each of these was truncated by int() or, for a falsy scalar, read as
    # the empty list, and derived an equation with exit 0
    path = tmp_path / "bad.spec"
    text = DIFF2_SPEC.replace("m: 1", "m: 2").replace(old, new)
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "derive", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + field)


def test_pi_symbol_outside_the_alphabet_is_an_input_error(tmp_path, capsys):
    # an extra pi entry, here also longer than m, used to be ignored
    path = tmp_path / "bad.spec"
    path.write_text(DIFF2_SPEC.replace("  1: [1]\n", "  1: [1]\n  7: [0, 0, 1]\n"),
                    encoding="utf-8")
    code, out, err = run(capsys, "dfa", "--spec", str(path), "table")
    assert code == 2
    assert out == ""
    assert err == "error: pi: symbol '7' is not in the alphabet\n"


@pytest.mark.parametrize("line, message", [
    ("forbidden_patterns: 0", "forbidden_patterns: expected a quoted string, got 0"),
    ("forbidden_patterns: 012", "forbidden_patterns: expected a quoted string, got 10"),
    ("forbidden_patterns: 1_0", "forbidden_patterns: expected a quoted string, got 10"),
    ("forbidden_patterns: false",
     "forbidden_patterns: expected a quoted string, got False"),
    ('forbidden_patterns: "11U101"\nforbidden_prefixes: 1',
     "forbidden_prefixes: expected a quoted string, got 1"),
], ids=["zero", "octal", "underscore", "false", "prefixes"])
def test_unquoted_regex_field_is_an_input_error(tmp_path, capsys, line, message):
    # YAML reads these as numbers or booleans: 0 and false used to give the
    # empty language, 012 (octal) and 1_0 the regex 10
    path = tmp_path / "bad.spec"
    path.write_text(DIFF2_SPEC.replace('forbidden_patterns: "11U101"', line),
                    encoding="utf-8")
    code, out, err = run(capsys, "dfa", "--spec", str(path), "table")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("pattern, states", [
    ("1" + "0" * 600 + "1", 603),
    # the binary numerals of 4..1503: a 1 followed by two more symbols
    ("U".join(format(k, "b") for k in range(4, 1504)), 4),
    ("10" + "*" * 1500 + "1", 3),
], ids=["602-symbol-word", "1500-word-union", "1500-star-run"])
def test_long_patterns_build_their_machine(tmp_path, capsys, pattern, states):
    # each used to end in a RecursionError traceback and exit 1
    path = tmp_path / "long.spec"
    path.write_text(DIFF2_SPEC.replace("11U101", pattern), encoding="utf-8")
    code, out, err = run(capsys, "dfa", "--spec", str(path), "table")
    assert (code, err) == (0, "")
    assert f"states: {states} " in out


def test_deeply_nested_pattern_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "nested.spec"
    path.write_text(DIFF2_SPEC.replace("11U101", "(" * 1200 + "1" + ")" * 1200),
                    encoding="utf-8")
    code, out, err = run(capsys, "dfa", "--spec", str(path), "table")
    assert (code, out) == (2, "")
    assert err == ("error: forbidden_patterns: expression nested too deeply"
                   " at position 0\n")


def test_repeated_alphabet_symbol_is_an_input_error(tmp_path, capsys):
    # used to be reported as "pi must be injective"
    path = tmp_path / "bad.spec"
    path.write_text(DIFF2_SPEC.replace("alphabet: [0, 1]", "alphabet: [0, 1, 1]"),
                    encoding="utf-8")
    code, out, err = run(capsys, "dfa", "--spec", str(path), "table")
    assert code == 2
    assert out == ""
    assert err == "error: alphabet: symbol '1' is repeated\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
