import pytest

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
    from reglinked.automata import dfa_from_regex, equivalent, parse_regex
    want = dfa_from_regex(parse_regex("3U4", nandi_spec().alphabet),
                          nandi_spec().alphabet)
    assert equivalent(got, want)


def test_dfa_prefixes_accepting_state_fails(capsys):
    code, _, err = run(capsys, "dfa", "prefixes", "q6")
    assert code == 2
    assert "error" in err


def test_dfa_prefixes_bad_state_label(capsys):
    code, out, err = run(capsys, "dfa", "prefixes", "zz")
    assert code == 2
    assert out == ""
    assert err == "error: bad state label 'zz' (expected qN or N)\n"


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
        assert got == list(system.matrix.entries[i])


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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
