"""Byte-exact CLI output for the shipped spec.

Each case runs one command and compares its stdout with a file under
tests/cli_golden/.  The files hold the output of the commands as they
stand; any change to the text or structured reports shows up here.
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
                                           "--format", "structured"]}
# every non-accepting state of the shipped DFA (q6 is its accepting sink)
for _v in (0, 1, 2, 3, 4, 5, 7):
    CASES[f"dfa-prefixes-q{_v}"] = ["dfa", "prefixes", f"q{_v}"]
for _name, _target in TARGETS.items():
    for _fmt in ("text", "structured"):
        CASES[f"derive-{_name}-{_fmt}"] = (
            ["derive", "--format", _fmt]
            + ([] if _target is None else ["--target", _target]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    want = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert captured.out == want
