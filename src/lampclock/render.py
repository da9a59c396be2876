"""Serialization of display states: terminal art, SVG, bit strings, JSON.

All formats honor monotone left-fill: a row's lit lamps are always its
leftmost ones, so the canonical bit string of a row is '1' * digit
followed by '0' * rest, and no renderer can emit a lit lamp to the right
of an unlit one.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter

from .codec import (_AM, DisplayState, Meridiem, RowScheme, _check_meridiem, _check_state, _Record, _set, _state,
                    decode)
from .errors import BitsParseError, InvalidStateError, MonotoneFillError, RenderError


class RenderFormat(Enum):
    ANSI = "ansi"
    SVG = "svg"
    BITS = "bits"
    JSON = "json"


class Layout(Enum):
    TRIANGLE_CENTERED = "triangle"
    LEFT_ALIGNED = "left"
    BERLIN_BLOCKS = "berlin"


ANSI_COLOR_CODES = {"red": 31, "green": 32, "yellow": 33}

# The fixed face. A lit lamp takes its half's color, AM or PM; with no meridiem
# (24h Berlin-style faces) it is yellow, except that every third lamp of an
# 11-lamp row is red, echoing the quarter-hour marks of the Berlin clock.
AM_COLOR, PM_COLOR = "green", "red"
DEFAULT_LIT_COLOR, ACCENT_COLOR = "yellow", "red"
LIT_GLYPH, UNLIT_GLYPH = "●", "○"
UNLIT_SVG_FILL = "#dddddd"
SVG_PITCH = 40  # even, so that circle centres (multiples of half the pitch) are whole numbers

# Module names for the hot path's enum members, by the rule stated at codec's _AM and _PM
_ANSI, _BITS, _JSON = RenderFormat.ANSI, RenderFormat.BITS, RenderFormat.JSON
_TRIANGLE, _LEFT, _BLOCKS = Layout.TRIANGLE_CENTERED, Layout.LEFT_ALIGNED, Layout.BERLIN_BLOCKS
_SVG_PAINT = {c: c for c in ANSI_COLOR_CODES}  # an SVG lamp is filled with its color's name
# ANSI cells, bracketed in the block layout: unlit by ``blocks``, lit by ``(blocks, use_color)`` and color
_ANSI_UNLIT = {False: UNLIT_GLYPH, True: f"[{UNLIT_GLYPH}]"}
_ANSI_PAINT = {(blocks, use_color): {c: unlit.replace(UNLIT_GLYPH, f"\x1b[{code}m{LIT_GLYPH}\x1b[0m" if use_color
                                                      else LIT_GLYPH) for c, code in ANSI_COLOR_CODES.items()}
               for blocks, unlit in _ANSI_UNLIT.items() for use_color in (False, True)}
_lamp_count = attrgetter("lamp_count")
_quote = None  # json.dumps's escaper, bound on the first JSON render so that only JSON loads json


class RenderSpec(_Record):
    """What a caller chooses for a render: format, layout, and color on or off."""

    __slots__ = ("format", "layout", "use_color")

    def __init__(self, format: RenderFormat = RenderFormat.ANSI,
                 layout: Layout = Layout.TRIANGLE_CENTERED, use_color: bool = True):
        for value, kind in ((format, RenderFormat), (layout, Layout), (use_color, bool)):
            if not isinstance(value, kind):
                raise ValueError(f"{kind.__name__} expected, got {value!r}")
        _set(self, "format", format)
        _set(self, "layout", layout)
        _set(self, "use_color", use_color)


def default_layout(scheme: RowScheme) -> Layout:
    """Blocks for the Berlin clock, a 4-row scheme named "berlin"; a centered triangle otherwise."""
    berlin = scheme.name == "berlin" and len(scheme.rows) == 4
    return Layout.BERLIN_BLOCKS if berlin else Layout.TRIANGLE_CENTERED


def render(state: DisplayState, scheme: RowScheme, spec: RenderSpec) -> str:
    """Serialize a state in the format chosen by ``spec``."""
    fmt = spec.format
    if fmt is _JSON:
        return _render_json(state, scheme)  # whose call to decode checks the state
    _check_state(state, scheme)
    if fmt is _BITS:
        return "/".join(["1" * digit + "0" * (row.lamp_count - digit)
                         for digit, row in zip(state.digits, scheme.rows)])
    if spec.layout is _BLOCKS and len(scheme.rows) != 4:
        raise RenderError(f"berlin block layout needs a 4-row scheme, {scheme.name!r} has {len(scheme.rows)}")
    return (_render_ansi if fmt is _ANSI else _render_svg)(state, scheme, spec)


def _render_json(state: DisplayState, scheme: RowScheme) -> str:
    global _quote
    if _quote is None:
        from json.encoder import encode_basestring_ascii as _quote
    try:
        time = f'"{decode(state, scheme)}"'
    except InvalidStateError:  # a surplus state, which is no time, or one that does not fit its scheme
        time = "null"
    if time == "null":  # outside the except, so that a state that does not fit raises decode's error alone
        _check_state(state, scheme)
    meridiem = state.meridiem
    meridiem = "null" if meridiem is None else '"AM"' if meridiem is _AM else '"PM"'
    return (f'{{"scheme": {_quote(scheme.name)}, "digits": [{", ".join(map(str, state.digits))}], '
            f'"meridiem": {meridiem}, "time": {time}}}')


def _lit_cells(state: DisplayState, scheme: RowScheme, paint: dict[str, str]) -> list[list[str]]:
    """Each row's lit cells, top row first, where ``paint`` maps each lamp color to its cell."""
    meridiem = state.meridiem
    if meridiem is not None:
        cell = paint[AM_COLOR if meridiem is _AM else PM_COLOR]
        return [[cell] * digit for digit in state.digits]
    cell = paint[DEFAULT_LIT_COLOR]
    accented = [cell, cell, paint[ACCENT_COLOR]] * 4  # an 11-lamp row's lit lamps are a slice of this
    return [accented[:digit] if row.lamp_count == 11 else [cell] * digit
            for digit, row in zip(state.digits, scheme.rows)]


def _render_ansi(state: DisplayState, scheme: RowScheme, spec: RenderSpec) -> str:
    max_lamps = max(map(_lamp_count, scheme.rows))
    blocks = spec.layout is _BLOCKS
    unlit, paint = _ANSI_UNLIT[blocks], _ANSI_PAINT[blocks, spec.use_color]

    # Center each row over the widest row (the bottom row of a triangle),
    # half a cell per lamp it lacks, unless the layout is left-aligned.
    # Padding is computed from lamp counts, not rendered text, so that
    # invisible ANSI escape bytes do not skew the alignment.
    cell_width = 0 if spec.layout is _LEFT else 3 if blocks else 2
    joiner = "" if blocks else " "
    return "\n".join([
        " " * ((max_lamps - row.lamp_count) * cell_width // 2)
        + joiner.join(cells + [unlit] * (row.lamp_count - len(cells)))
        for cells, row in zip(_lit_cells(state, scheme, paint), scheme.rows)
    ])


def _render_svg(state: DisplayState, scheme: RowScheme, spec: RenderSpec) -> str:
    pitch = SVG_PITCH
    max_lamps = max(map(_lamp_count, scheme.rows))
    width = max_lamps * pitch
    height = len(scheme.rows) * pitch
    blocks = spec.layout is _BLOCKS
    centered = spec.layout is _TRIANGLE

    # one plain loop per row: a comprehension or range per row cost more than the row's lamps
    shapes = ['<?xml version="1.0" encoding="UTF-8"?>\n'
              f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
              f'viewBox="0 0 {width} {height}">']
    add = shapes.append
    for y, fills, row in zip(range(0, height, pitch), _lit_cells(state, scheme, _SVG_PAINT), scheme.rows):
        lamps = row.lamp_count
        fills += [UNLIT_SVG_FILL] * (lamps - len(fills))
        if blocks:
            # ints, where the width divides evenly, print as :g prints them below 10**6, for a third of the cost
            cell, g = (width // lamps, "") if width % lamps == 0 else (width / lamps, "g")
            rest = f'" y="{y + 2}" width="{cell - 4:{g}}" height="{pitch - 4}" fill="'
            for i, fill in enumerate(fills):
                add(f'  <rect x="{i * cell + 2:{g}}{rest}{fill}"/>')
        else:
            cx = ((max_lamps - lamps) * pitch // 2 if centered else 0) + pitch // 2
            rest = f'" cy="{y + pitch // 2}" r="{pitch * 2 // 5}" fill="'
            for fill in fills:
                add(f'  <circle cx="{cx}{rest}{fill}"/>')
                cx += pitch
    add("</svg>\n")
    return "\n".join(shapes)


def parse_bits(text: str, scheme: RowScheme, meridiem: Meridiem | None = None) -> DisplayState:
    """Parse a '/'-separated bit string back into a display state.

    Bit strings carry no meridiem, so for a 12-hour scheme the flag must
    be supplied by the caller. Rows must match the scheme's widths exactly
    and be monotonically left-filled.
    """
    rows = text.split("/")
    if len(rows) != len(scheme.rows):
        raise BitsParseError(f"expected {len(scheme.rows)} rows separated by '/', got {len(rows)}")

    digits, units = [], 0
    for bits, row in zip(rows, scheme.rows):
        n = row.lamp_count
        zeros = bits.lstrip("1")  # what follows the lit lamps, all 0s in a left-filled row
        if len(bits) != n or zeros.strip("0"):  # the happy path's one test of all 3 rules
            k = scheme.rows.index(row) + 1  # rows differ in unit_value, so this is the row's own number
            if len(bits) != n:
                raise BitsParseError(f"row {k} must have {n} bits, got {len(bits)}")
            if bits.strip("01"):
                raise BitsParseError(f"row {k} contains characters other than 0/1: {bits!r}")
            raise MonotoneFillError(
                k, f"row {k} is not left-filled: {bits!r} has a lit lamp right of an unlit one")
        ones = n - len(zeros)
        digits.append(ones)
        units = units * (n + 1) + ones  # Horner's rule on the unit recurrence: the weighted digit sum

    _check_meridiem(scheme, meridiem)
    if meridiem is not None and type(meridiem) is not Meridiem:  # as DisplayState checks it
        raise ValueError(f"Meridiem or None expected, got {meridiem!r}")
    return _state(tuple(digits), meridiem, scheme, units)
