"""Golden help and usage errors, at an 80-column terminal.

``golden_help.json`` maps each case, written as its argv joined by
spaces, to ``[exit code, stdout, stderr]``: every ``--help`` page and the
argparse errors of a set of bad command lines. A change to the parser
must leave every entry as it is.

argparse words its help and errors a little differently from one Python
version to the next, so the file records the version it was made with,
and the cases run only on that version.
"""

import json
import sys
from pathlib import Path

import pytest

from lampclock.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_help.json").read_text(encoding="utf-8"))

HELP_CASES = [["--help"]] + [[command, "--help"]
                             for command in ("show", "tick", "decode", "schemes", "validate")]

ERROR_CASES = [
    [],
    ["frobnicate"],
    ["schemes"],
    ["decode"],
    ["show", "--format", "xml"],
    ["show", "--color", "sometimes"],
    ["show", "--layout", "hex"],
    ["show", "--bogus"],
    ["tick", "--interval", "0"],
    ["tick", "--interval", "86401"],
    ["tick", "--interval", "soon"],
    ["decode", "0/11/100/1110/10000", "--am", "--pm"],
    ["schemes", "720", "--count", "--triangular"],
    ["schemes", "720", "--triangular", "--irregular"],
    ["schemes", "seven"],
    ["schemes", "720", "--limit", "0"],
    ["schemes", "720", "--limit", "abc"],
]

CASES = HELP_CASES + ERROR_CASES


def case_key(argv):
    return " ".join(argv)


def run(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    out, err = capsys.readouterr()
    return [code, out, err]


def test_matrix_is_complete():
    assert sorted(case_key(argv) for argv in CASES) == sorted(GOLDEN["cases"])


@pytest.mark.skipif(f"{sys.version_info[0]}.{sys.version_info[1]}" != GOLDEN["python"],
                    reason=f"golden recorded with Python {GOLDEN['python']}")
@pytest.mark.parametrize("argv", CASES, ids=case_key)
def test_help_and_usage_errors(argv, monkeypatch, capsys):
    assert run(argv, monkeypatch, capsys) == GOLDEN["cases"][case_key(argv)]
