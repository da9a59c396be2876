"""Golden CLI outputs: exit code and sha256 of stdout for a matrix of calls.

``golden_cli.json`` maps each case, written as its argv joined by spaces
with ``{custom}`` and ``{short}`` standing for the two scheme files
below, to ``[exit code, sha256 of stdout]``. A refactor of the CLI or the
layers under it must leave every entry as it is.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from lampclock.cli import build_parser, cmd_tick, main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))

# A 24-hour face with an 11-lamp row (accented like Berlin's) and 4 rows,
# so that every layout applies; and one whose capacity falls short.
SCHEME_FILES = {
    "custom": {"name": "custom", "cycle_minutes": 1440,
               "rows": [{"lamps": 5}, {"lamps": 11}, {"lamps": 4}, {"lamps": 4}]},
    "short": {"name": "short", "cycle_minutes": 720, "rows": [{"lamps": 2}, {"lamps": 3}]},
}

TIMES = ["04:49", "10:31", "00:00", "12:00", "23:59", "24:00"]
FORMATS = ["ansi", "svg", "bits", "json"]
LAYOUTS = [[], ["--layout", "left"], ["--layout", "triangle"], ["--layout", "berlin"]]


def _show_cases():
    for scheme in ["triangular", "berlin", "{custom}"]:
        for t in TIMES:
            for fmt in FORMATS:
                for color in ["always", "never"]:
                    for layout in LAYOUTS:
                        yield ["show", "--scheme", scheme, "--time", t, "--format", fmt,
                               "--color", color, *layout]


def _decode_cases():
    tri, berlin = [], ["--scheme", "berlin"]
    custom = ["--scheme", "{custom}"]
    for bits, extra in [
        ("0/11/100/1110/10000", tri + ["--am"]),
        ("0/11/100/1110/10000", tri + ["--pm"]),
        ("1/11/111/1111/11111", tri + ["--pm"]),
        ("0/00/000/0000/00000", tri),
        ("0/01/000/0000/00000", tri + ["--am"]),
        ("0/11/100", tri + ["--am"]),
        ("0/11/1x0/1110/10000", tri + ["--am"]),
        ("1100/0000/11111100000/1000", berlin),
        ("1100/0000/11111100000/1000", berlin + ["--pm"]),
        ("1111/1111/11111111111/1111", berlin),
        ("1110/1111/11111111111/1111", berlin),
        ("0000/0000/00000000000/0000", berlin),
        ("11000/00000000000/0000/0000", custom),
        ("11111/11111111111/1111/1111", custom),
        ("110/00000000000/0000/0000", custom),
    ]:
        yield ["decode", bits, *extra]


def _schemes_cases():
    for target in ["6", "720", "5040", "40320", "0"]:
        for extra in [[], ["--triangular"], ["--rectangular"], ["--irregular"],
                      ["--count"], ["--limit", "5"]]:
            yield ["schemes", target, *extra]
    yield ["schemes", "6", "--limit", "1000000000"]
    yield ["schemes", "720", "--count", "--triangular"]


def _validate_cases():
    yield ["validate"]
    yield ["validate", "--scheme", "berlin"]
    yield ["validate", "{custom}"]
    yield ["validate", "--scheme", "{custom}"]
    yield ["validate", "{short}"]
    yield ["validate", "--scheme", "sundial"]
    yield ["show", "--scheme", "{short}", "--time", "04:49"]
    yield ["show", "--format", "xml"]
    yield ["tick", "--interval", "0"]


def _tick_cases():
    for scheme in ["triangular", "berlin", "{custom}"]:
        for fmt in FORMATS:
            yield ["tick", "--scheme", scheme, "--time", "10:31", "--format", fmt,
                   "--color", "always"]
    yield ["tick", "--time", "23:59", "--format", "bits", "--interval", "60"]
    yield ["tick", "--time", "24:00"]


MAIN_CASES = [*_show_cases(), *_decode_cases(), *_schemes_cases(), *_validate_cases()]
TICK_CASES = list(_tick_cases())


def case_key(argv):
    return " ".join(argv)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def scheme_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, payload in SCHEME_FILES.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        paths["{" + name + "}"] = str(path)
    return paths


def resolve(argv, paths):
    return [paths.get(arg, arg) for arg in argv]


def run_tick_case(argv):
    """Exit code and stdout of three polls of ``tick`` with no sleeping."""
    out = io.StringIO()
    try:
        code = cmd_tick(build_parser().parse_args(argv), out=out,
                        sleep=lambda seconds: None, max_polls=3)
    except ValueError:
        code = 2
    return code, out.getvalue()


def test_matrix_is_complete():
    keys = [case_key(argv) for argv in MAIN_CASES + TICK_CASES]
    assert len(keys) == len(set(keys))
    assert sorted(keys) == sorted(GOLDEN)


@pytest.mark.parametrize("argv", MAIN_CASES, ids=case_key)
def test_main(argv, scheme_paths, capsys):
    code = main(resolve(argv, scheme_paths))
    assert [code, digest(capsys.readouterr().out)] == GOLDEN[case_key(argv)]


@pytest.mark.parametrize("argv", TICK_CASES, ids=case_key)
def test_pinned_tick(argv, scheme_paths):
    code, out = run_tick_case(resolve(argv, scheme_paths))
    assert [code, digest(out)] == GOLDEN[case_key(argv)]
