"""Serialization of display states: terminal art, SVG, bit strings, JSON.

``render`` checks a state against its scheme once, at its entry, then serializes it. All formats
honor monotone left-fill: a row's lit lamps are always its leftmost ones, so the canonical bit
string of a row is '1' * digit followed by '0' * rest, and no renderer can emit a lit lamp to the
right of an unlit one.
"""

from __future__ import annotations

from enum import Enum

from .codec import _AM, DisplayState, RowScheme, _check_state, _Record, decode
from .errors import InvalidStateError, RenderError


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
# ANSI cells by ``(blocks, use_color)``, then lamp color or None for unlit: bracketed in blocks, else ending in " "
_ANSI_CELLS = {(blocks, use_color): {color: cell.format(f"\x1b[{code}m{LIT_GLYPH}\x1b[0m" if use_color else LIT_GLYPH)
                                     for color, code in ANSI_COLOR_CODES.items()} | {None: cell.format(UNLIT_GLYPH)}
               for blocks, cell in ((False, "{} "), (True, "[{}]")) for use_color in (False, True)}
_quote = None  # json.dumps's escaper, bound on the first JSON render so that only JSON loads json


class RenderSpec(_Record):
    """What a caller chooses for a render: format, layout, and color on or off."""

    __slots__ = ("format", "layout", "use_color")

    def __init__(self, format: RenderFormat = RenderFormat.ANSI,
                 layout: Layout = Layout.TRIANGLE_CENTERED, use_color: bool = True):
        for value, kind in ((format, RenderFormat), (layout, Layout), (use_color, bool)):
            if not isinstance(value, kind):
                raise ValueError(f"{kind.__name__} expected, got {value!r}")
        self._store(format, layout, use_color)


def default_layout(scheme: RowScheme) -> Layout:
    """Blocks for the Berlin clock, a 4-row scheme named "berlin"; a centered triangle otherwise."""
    berlin = scheme.name == "berlin" and len(scheme.lamp_counts) == 4
    return Layout.BERLIN_BLOCKS if berlin else Layout.TRIANGLE_CENTERED


def render(state: DisplayState, scheme: RowScheme, spec: RenderSpec) -> str:
    """Check the state against the scheme, then serialize it in the format chosen by ``spec``."""
    _check_state(state, scheme)
    fmt = spec.format
    if fmt is _JSON:
        return _render_json(state, scheme)
    if fmt is _BITS:
        return "/".join(["1" * digit + "0" * (lamps - digit) for digit, lamps in zip(state.digits, scheme.lamp_counts)])
    if spec.layout is _BLOCKS and len(scheme.lamp_counts) != 4:
        raise RenderError(f"berlin block layout needs a 4-row scheme, {scheme.name!r} has {len(scheme.lamp_counts)}")
    meridiem = state.meridiem  # which sets the one lit color, and whether 11-lamp rows are accented
    color = DEFAULT_LIT_COLOR if meridiem is None else AM_COLOR if meridiem is _AM else PM_COLOR
    return (_render_ansi if fmt is _ANSI else _render_svg)(state, scheme, spec, color, meridiem is None)


def _render_json(state: DisplayState, scheme: RowScheme) -> str:
    global _quote
    if _quote is None:
        from json.encoder import encode_basestring_ascii as _quote
    try:
        time = f'"{decode(state, scheme)}"'
    except InvalidStateError:  # a surplus state, which is no time: render checked that the state fits
        time = "null"
    meridiem = state.meridiem
    meridiem = "null" if meridiem is None else '"AM"' if meridiem is _AM else '"PM"'
    return (f'{{"scheme": {_quote(scheme.name)}, "digits": [{", ".join(map(str, state.digits))}], '
            f'"meridiem": {meridiem}, "time": {time}}}')


def _render_ansi(state: DisplayState, scheme: RowScheme, spec: RenderSpec, color: str, accent: bool) -> str:
    max_lamps = max(scheme.lamp_counts)
    blocks = spec.layout is _BLOCKS
    cells = _ANSI_CELLS[blocks, spec.use_color]
    # Center each row over the widest row, half a cell per lamp it lacks, unless the layout is left-aligned:
    # from lamp counts, not rendered text, so that invisible ANSI escape bytes do not skew the alignment.
    cell_width = 0 if spec.layout is _LEFT else 3 if blocks else 2
    cut = None if blocks else -1  # each cell ends in its joiner, which the last cell of a row drops
    lit, unlit = cells[color], cells[None]
    accented = [lit, lit, cells[ACCENT_COLOR]] * 4 if accent else None  # an accented row's lit cells are a prefix
    lines = []
    for digit, lamps in zip(state.digits, scheme.lamp_counts):
        run = "".join(accented[:digit]) if lamps == 11 and accent else lit * digit
        lines.append(" " * ((max_lamps - lamps) * cell_width // 2) + (run + unlit * (lamps - digit))[:cut])
    return "\n".join(lines)


def _render_svg(state: DisplayState, scheme: RowScheme, spec: RenderSpec, color: str, accent: bool) -> str:
    pitch = SVG_PITCH
    max_lamps = max(scheme.lamp_counts)
    width, height = max_lamps * pitch, len(scheme.lamp_counts) * pitch
    blocks, centered = spec.layout is _BLOCKS, spec.layout is _TRIANGLE
    radius = f'" r="{pitch * 2 // 5}" fill="'

    # A lit run, then an unlit run, of position + fixed tail per row: a range per row costs more than its lamps
    shapes = [f'<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
              f'height="{height}" viewBox="0 0 {width} {height}">']
    add = shapes.append
    for y, digit, lamps in zip(range(0, height, pitch), state.digits, scheme.lamp_counts):
        if blocks:
            # ints, where the width divides evenly, print as :g prints them below 10**6, for a third of the cost
            cell, g = (width // lamps, "") if width % lamps == 0 else (width / lamps, "g")
            rest = f'" y="{y + 2}" width="{cell - 4:{g}}" height="{pitch - 4}" fill="'
            i, tail = 0, f'{rest}{color}"/>'
            while i < digit:
                add(f'  <rect x="{i * cell + 2:{g}}{tail}')
                i += 1
            tail = f'{rest}{UNLIT_SVG_FILL}"/>'
            while i < lamps:
                add(f'  <rect x="{i * cell + 2:{g}}{tail}')
                i += 1
        else:
            cx = ((max_lamps - lamps) * pitch // 2 if centered else 0) + pitch // 2
            lit_end, end = cx + digit * pitch, cx + lamps * pitch
            rest = f'" cy="{y + pitch // 2}{radius}'
            tail = f'{rest}{color}"/>'
            while cx < lit_end:
                add(f'  <circle cx="{cx}{tail}')
                cx += pitch
            tail = f'{rest}{UNLIT_SVG_FILL}"/>'
            while cx < end:
                add(f'  <circle cx="{cx}{tail}')
                cx += pitch
        if lamps == 11 and accent:  # every third lamp of the lit run just drawn turns red
            for k in range(len(shapes) - lamps + 2, len(shapes) - lamps + digit, 3):
                shapes[k] = shapes[k].replace(color, ACCENT_COLOR)
    add("</svg>\n")
    return "\n".join(shapes)
