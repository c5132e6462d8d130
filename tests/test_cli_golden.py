"""Byte-exact CLI output for the shipped spec and seven other specs.

Each case runs one command and compares its stdout with a file under
tests/cli_golden/.  The other specs live in tests/cli_golden/specs/: the
difference-2 spec, the same spec with the forbidden prefix 01 (so its
machine of I*XI* alone differs from its own machine), a spec with
multi-character symbols, an m = 2 spec with a 6-state DFA, an m = 2 spec
whose classes are all empty (it forbids the all-trivial tail 000), so it
derives the equation F = 0, an m = 2 spec with a 4-state DFA whose
triangularized rows have denominators of several terms in both x and q,
and a second m = 2 spec with a 6-state DFA (draw5) whose derivation runs
long chains of gcds with large contents over Z[q].
The files hold the output of the commands as they stand; any change to
the text or structured reports shows up here.
"""

from pathlib import Path

import pytest

from reglinked.cli import main

GOLDEN_DIR = Path(__file__).parent / "cli_golden"

TARGETS = {"default": None, "class1": "3U4", "class2": "2U4U04",
           "class3": "2U3U4U04U1*03"}

CASES = {"dfa-table": ["dfa", "table"],
         "verify-all-order12": ["verify", "all", "--order", "12"],
         "verify-all-order12-structured": ["verify", "all", "--order", "12",
                                           "--format", "structured"],
         "verify-all-order40": ["verify", "all", "--order", "40"],
         "verify-all-order40-structured": ["verify", "all", "--order", "40",
                                           "--format", "structured"],
         "verify-all-order100": ["verify", "all", "--order", "100"]}
# every non-accepting state of the shipped DFA (q6 is its accepting sink)
for _v in (0, 1, 2, 3, 4, 5, 7):
    CASES[f"dfa-prefixes-q{_v}"] = ["dfa", "prefixes", f"q{_v}"]
# q0 has no forbidden prefixes: a machine in which no state accepts
CASES["dfa-prefixes-q0-structured"] = ["dfa", "--format", "structured",
                                       "prefixes", "q0"]
for _name, _target in TARGETS.items():
    for _fmt in ("text", "structured"):
        CASES[f"derive-{_name}-{_fmt}"] = (
            ["derive", "--format", _fmt]
            + ([] if _target is None else ["--target", _target]))
# the non-accepting states of each other spec's DFA
SPEC_STATES = {"diff2": (0, 1, 2), "diff2-prefixes": (0, 1, 2, 3),
               "multichar": (0, 1, 2), "draw1": (0, 1, 2),
               "draw3": (0, 1, 2, 3, 4), "draw5": (0, 1, 2, 3, 4),
               "draw8": (0, 1, 2, 3, 4, 6)}
for _spec, _states in SPEC_STATES.items():
    _path = str(GOLDEN_DIR / "specs" / f"{_spec}.spec")
    CASES[f"spec-{_spec}-dfa-table"] = ["dfa", "--spec", _path, "table"]
    for _v in _states:
        CASES[f"spec-{_spec}-dfa-prefixes-q{_v}"] = ["dfa", "--spec", _path,
                                                     "prefixes", f"q{_v}"]
    for _fmt in ("text", "structured"):
        CASES[f"spec-{_spec}-derive-{_fmt}"] = ["derive", "--spec", _path,
                                                "--format", _fmt]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    want = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert captured.out == want
