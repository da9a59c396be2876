import json
import pathlib
import time

import pytest

from lampclock import (
    BERLIN,
    BUILTIN_SCHEMES,
    TRIANGULAR,
    InvalidSchemeError,
    load_scheme,
    make_scheme,
    resolve_scheme,
    validate,
)
from lampclock.codec import MAX_LAMPS_PER_ROW


def write_scheme(tmp_path, payload, name="scheme.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_builtin_names():
    assert set(BUILTIN_SCHEMES) == {"triangular", "berlin"}
    assert BUILTIN_SCHEMES["triangular"] is TRIANGULAR
    assert BUILTIN_SCHEMES["berlin"] is BERLIN


def test_builtin_units():
    assert [r.unit_value for r in TRIANGULAR.rows] == [360, 120, 30, 6, 1]
    assert [r.unit_value for r in BERLIN.rows] == [300, 60, 5, 1]
    assert TRIANGULAR.cycle_minutes == 720
    assert BERLIN.cycle_minutes == 1440


def test_make_scheme_reads_an_iterator_once():
    assert make_scheme("triangular", (lamps for lamps in range(1, 6)), 720) == TRIANGULAR


def test_load_scheme_derives_units(tmp_path):
    path = write_scheme(
        tmp_path,
        {
            "name": "mini",
            "base_unit_minutes": 1,
            "cycle_minutes": 24,
            "rows": [{"lamps": 3}, {"lamps": 5}],
        },
    )
    scheme = load_scheme(path)
    assert scheme.name == "mini"
    assert [r.unit_value for r in scheme.rows] == [6, 1]
    assert validate(scheme).ok


def test_load_scheme_default_base_unit(tmp_path):
    path = write_scheme(
        tmp_path, {"name": "x", "cycle_minutes": 2, "rows": [{"lamps": 1}]}
    )
    assert load_scheme(path).base_unit_minutes == 1


def test_load_scheme_capacity_shortfall_rejected(tmp_path):
    path = write_scheme(
        tmp_path, {"name": "tiny", "cycle_minutes": 720, "rows": [{"lamps": 1}]}
    )
    with pytest.raises(InvalidSchemeError, match="capacity"):
        load_scheme(path)


@pytest.mark.parametrize(
    "payload",
    [
        {"cycle_minutes": 720, "rows": [{"lamps": 1}]},  # no name
        {"name": "x", "rows": [{"lamps": 1}]},  # no cycle
        {"name": "x", "cycle_minutes": 720},  # no rows
        {"name": "x", "cycle_minutes": 720, "rows": []},
        {"name": "x", "cycle_minutes": 720, "rows": [{"lamps": "two"}]},
        {"name": "x", "cycle_minutes": 720, "rows": [{"bulbs": 2}]},
        {"name": "x", "cycle_minutes": "720", "rows": [{"lamps": 1}]},
        {"name": "", "cycle_minutes": 720, "rows": [{"lamps": 1}]},
        {"name": "x", "cycle_minutes": 2, "rows": [{"lamps": True}]},  # JSON booleans
        {"name": "x", "cycle_minutes": True, "rows": [{"lamps": 1}]},
        {"name": "x", "cycle_minutes": 2, "base_unit_minutes": True, "rows": [{"lamps": 1}]},
        {"name": "x", "cycle_minutes": 2.0, "rows": [{"lamps": 1}]},
        {"name": "x", "cycle_minutes": [2], "rows": [{"lamps": 1}]},
        {"name": "x", "cycle_minutes": 2, "base_unit_minutes": 1.5, "rows": [{"lamps": 1}]},
        {"name": "x", "cycle_minutes": 2, "rows": [{"lamps": 1.0}]},
        {"name": "x", "cycle_minutes": 2, "rows": {"lamps": 1}},  # rows not a list
        {"name": "x", "cycle_minutes": 2, "rows": [1]},  # a row not an object
        {"name": 5, "cycle_minutes": 2, "rows": [{"lamps": 1}]},
        {"name": None, "cycle_minutes": 2, "rows": [{"lamps": 1}]},
    ],
)
def test_load_scheme_malformed_payloads(tmp_path, payload):
    with pytest.raises(InvalidSchemeError):
        load_scheme(write_scheme(tmp_path, payload))


@pytest.mark.parametrize("lamps", [MAX_LAMPS_PER_ROW + 1, 10**9, 10**100])
def test_load_scheme_rejects_overlong_rows(tmp_path, lamps):
    # derive_units sees a row of 10**100 lamps, past 2**64 states, before RowSpec does
    message = r"capacity must be below 2\*\*64" if lamps == 10**100 else "at most 1440"
    payload = {"name": "wide", "cycle_minutes": 1440, "rows": [{"lamps": 1}, {"lamps": lamps}]}
    path = write_scheme(tmp_path, payload)
    start = time.perf_counter()
    with pytest.raises(InvalidSchemeError, match=message):
        load_scheme(path)
    assert time.perf_counter() - start < 1.0


def test_load_scheme_accepts_the_longest_row(tmp_path):
    payload = {"name": "wide", "cycle_minutes": 1440, "rows": [{"lamps": MAX_LAMPS_PER_ROW}]}
    scheme = load_scheme(write_scheme(tmp_path, payload))
    assert tuple(row.lamp_count for row in scheme.rows) == (1440,)


def test_load_scheme_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidSchemeError, match="JSON"):
        load_scheme(path)


class _PathLike:
    def __init__(self, path):
        self._path = path

    def __fspath__(self):
        return str(self._path)


@pytest.mark.parametrize("wrap", [str, pathlib.Path, _PathLike], ids=["str", "Path", "PathLike"])
def test_load_scheme_takes_any_path(tmp_path, wrap):
    rows = [{"lamps": row.lamp_count} for row in TRIANGULAR.rows]
    path = write_scheme(tmp_path, {"name": "triangular", "cycle_minutes": 720, "rows": rows})
    assert load_scheme(wrap(path)) == TRIANGULAR


def test_load_scheme_missing_file(tmp_path):
    with pytest.raises(InvalidSchemeError):
        load_scheme(tmp_path / "nowhere.json")


def test_path_with_nul_byte_is_a_scheme_error():
    with pytest.raises(InvalidSchemeError, match="null byte"):
        resolve_scheme("nul\0.json")


def test_resolve_builtin_and_path(tmp_path):
    assert resolve_scheme("berlin") is BERLIN
    path = write_scheme(
        tmp_path, {"name": "mine", "cycle_minutes": 2, "rows": [{"lamps": 1}]}
    )
    assert resolve_scheme(str(path)).name == "mine"


def test_resolve_unknown_name():
    with pytest.raises(InvalidSchemeError, match="built-ins"):
        resolve_scheme("sundial")
