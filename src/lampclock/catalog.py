"""Built-in schemes and loading of user scheme files.

A scheme file is JSON with the shape::

    {"name": "...", "base_unit_minutes": 1, "cycle_minutes": 720,
     "rows": [{"lamps": 1}, {"lamps": 2}, ...]}

A scheme is its lamp counts: ``RowScheme`` derives the row units from
them, so no file or caller gives a unit, and none can be wrong. A capacity
shortfall against the declared cycle is still possible and is rejected at
load time.
"""

from __future__ import annotations

import os
from typing import Iterable

from .codec import RowScheme, validate
from .errors import InvalidSchemeError

# A scheme has at most 64 rows (its capacity is below 2**64), far less than this in JSON.
MAX_SCHEME_FILE_BYTES = 64 * 1024


def make_scheme(
    name: str,
    lamp_counts: Iterable[int],
    cycle_minutes: int,
    base_unit_minutes: int = 1,
) -> RowScheme:
    """Build a scheme from lamp counts and validate it."""
    scheme = RowScheme(name, lamp_counts, cycle_minutes, base_unit_minutes)
    report = validate(scheme)
    if not report.ok:
        raise InvalidSchemeError(f"scheme {name!r} is invalid:\n{report}")
    return scheme


# 12-hour triangular face: rows of 1..5 lamps worth 6h/2h/30min/6min/1min.
TRIANGULAR = make_scheme("triangular", [1, 2, 3, 4, 5], cycle_minutes=720)

# 24-hour Berlin clock: rows of 4/4/11/4 lamps worth 5h/1h/5min/1min.
BERLIN = make_scheme("berlin", [4, 4, 11, 4], cycle_minutes=1440)

BUILTIN_SCHEMES: dict[str, RowScheme] = {
    TRIANGULAR.name: TRIANGULAR,
    BERLIN.name: BERLIN,
}


def load_scheme(path: str | os.PathLike[str]) -> RowScheme:
    """Load and validate a scheme definition file of at most
    ``MAX_SCHEME_FILE_BYTES`` bytes."""
    import json  # here, so that built-in schemes start without it

    path = os.fspath(path)
    try:
        # O_NONBLOCK: a FIFO with no writer opens at once and then reads as empty, where a
        # blocking open would wait for a writer. Reads block again, so a pipe's data arrives.
        with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as f:
            os.set_blocking(f.fileno(), True)
            raw = f.read(MAX_SCHEME_FILE_BYTES + 1)
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        raise InvalidSchemeError(f"cannot read scheme file {path}: {exc}") from exc
    if len(raw) > MAX_SCHEME_FILE_BYTES:
        raise InvalidSchemeError(f"scheme file {path} is larger than {MAX_SCHEME_FILE_BYTES} bytes")
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too long an int, too deep a nesting
        raise InvalidSchemeError(f"scheme file {path} is not valid JSON: {exc}") from exc

    if not isinstance(data, dict):
        raise InvalidSchemeError(f"scheme file {path} must contain a JSON object")
    try:
        name = data["name"]
        cycle_minutes = data["cycle_minutes"]
        row_entries = data["rows"]
    except KeyError as exc:
        raise InvalidSchemeError(f"scheme file {path} is missing key {exc}") from exc
    base_unit_minutes = data.get("base_unit_minutes", 1)

    if not isinstance(row_entries, list):
        raise InvalidSchemeError(f"scheme file {path}: 'rows' must be a list")
    # Name, lamp counts and bounds are checked as the scheme is built, as for a scheme in code
    lamp_counts = [entry.get("lamps") if isinstance(entry, dict) else None for entry in row_entries]

    return make_scheme(name, lamp_counts, cycle_minutes, base_unit_minutes)


def resolve_scheme(selector: str) -> RowScheme:
    """Turn a built-in name or a file path into a scheme."""
    if selector in BUILTIN_SCHEMES:
        return BUILTIN_SCHEMES[selector]
    if selector.endswith(".json") or os.path.exists(selector):  # False, not OSError, for a name too long
        return load_scheme(selector)
    known = ", ".join(sorted(BUILTIN_SCHEMES))
    raise InvalidSchemeError(f"unknown scheme {selector!r} (built-ins: {known})")
