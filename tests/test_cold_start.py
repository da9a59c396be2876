"""What a cold start of the CLI imports, checked in fresh interpreters,
because pytest itself has already imported ``dataclasses``, ``json``,
``datetime`` and ``pathlib``."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lampclock

SRC = Path(lampclock.__file__).resolve().parent.parent

# Runs each command in-process, with stdout discarded, then prints which
# of the watched modules are loaded. It passes data with ast and repr, not
# json, which is watched.
PROBE = """
import ast, contextlib, io, sys
import lampclock.cli as cli
watched = ("dataclasses", "lampclock.schemes", "json", "datetime", "pathlib")
loaded = {"import": [m for m in watched if m in sys.modules]}
for name, argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        args = cli.build_parser().parse_args(argv)
        code = cli.cmd_tick(args, sys.stdout, max_polls=1) if argv[0] == "tick" else cli.main(argv)
    loaded[name] = [code] + [m for m in watched if m in sys.modules]
print(repr(loaded))
"""


def probe(*commands):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, repr(commands)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return ast.literal_eval(result.stdout)


def test_importing_the_cli_loads_none_of_the_watched_modules():
    assert probe()["import"] == []


def test_only_the_schemes_command_loads_schemes():
    loaded = probe(
        ("show", ["show", "--time", "04:49", "--format", "bits"]),
        ("svg", ["show", "--time", "04:49", "--format", "svg"]),
        ("ansi", ["show", "--time", "04:49", "--format", "ansi", "--color", "always"]),
        ("decode", ["decode", "0/11/100/1110/10000", "--am"]),
        ("validate", ["validate", "--scheme", "berlin"]),
        ("tick", ["tick", "--time", "04:49", "--format", "json"]),
        ("schemes", ["schemes", "12"]),
    )
    assert loaded["import"] == []
    for name in ("show", "svg", "ansi", "decode", "validate"):  # svg and ansi: only a JSON render loads json
        assert loaded[name] == [0], name
    assert loaded["tick"] == [0, "json"]  # for the JSON format
    assert loaded["schemes"] == [0, "lampclock.schemes", "json"]


def test_no_command_loads_datetime_or_pathlib(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text('{"name": "ok", "cycle_minutes": 2, "rows": [{"lamps": 1}]}')
    loaded = probe(
        ("now", ["show", "--format", "bits"]),  # reads the clock
        ("file", ["validate", str(path)]),
    )
    assert loaded["now"] == [0]
    assert loaded["file"] == [0, "json"]  # for the file


def test_schemes_count_loads_schemes():
    assert probe(("count", ["schemes", "720", "--count"]))["count"] == [0, "lampclock.schemes"]


PUBLIC_NAMES = [
    "BERLIN", "BUILTIN_SCHEMES", "BitsParseError", "ClockError", "DisplayState",
    "EnumerationCapError", "InvalidSchemeError", "InvalidStateError", "Layout", "Meridiem",
    "MonotoneFillError", "RenderError", "RenderFormat", "RenderSpec", "RowScheme", "RowSpec",
    "SchemeShape", "ScriptedTimeSource", "ShapeClass", "SystemTimeSource", "TimeOfDay",
    "TimeSource", "TRIANGULAR", "ValidationReport", "capacity", "count_shapes", "decode",
    "derive_units", "encode", "enumerate_shapes", "is_triangular_feasible",
    "load_scheme", "make_scheme", "parse_bits", "render", "resolve_scheme", "shape_to_scheme",
    "validate",
]


def test_public_names_unchanged():
    assert lampclock.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from lampclock import *", namespace)
    assert set(lampclock.__all__) <= set(namespace)
    from lampclock import schemes

    assert namespace["enumerate_shapes"] is schemes.enumerate_shapes
    assert namespace["ShapeClass"] is schemes.ShapeClass


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lampclock.no_such_name
    assert not hasattr(lampclock, "MAX_TARGET")


# validate's one rule needs one record, decode alone reads a state's time, and no code uses the
# shape, time and scheme helpers that only tests called
@pytest.mark.parametrize("module, owner, name", [
    ("lampclock", None, "Violation"), ("lampclock.codec", None, "Violation"),
    ("lampclock", None, "classify"), ("lampclock.schemes", None, "classify"),
    ("lampclock.schemes", "SchemeShape", "from_lamp_counts"), ("lampclock.schemes", "SchemeShape", "state_count"),
    ("lampclock", None, "decode_minutes"), ("lampclock.codec", None, "decode_minutes"),
    ("lampclock", "TimeOfDay", "hour"), ("lampclock", "TimeOfDay", "minute"),
    ("lampclock", "RowScheme", "lamp_counts"),
])
def test_removed_names_stay_gone(module, owner, name):
    found = importlib.import_module(module)
    if owner:
        found = getattr(found, owner)
    assert not hasattr(found, name)


def test_readme_library_example_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert example, "README.md has no python block under ## Library"
    namespace = {}
    exec(example.group(1), namespace)
    assert namespace["state"].digits == (0, 2, 1, 3, 1)
