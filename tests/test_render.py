import copy
import hashlib
import json
import pickle
import re
import time
import xml.etree.ElementTree as ET
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from lampclock import (
    BERLIN,
    TRIANGULAR,
    BitsParseError,
    DisplayState,
    InvalidSchemeError,
    InvalidStateError,
    Layout,
    Meridiem,
    MonotoneFillError,
    RenderError,
    RenderFormat,
    RenderSpec,
    RowScheme,
    RowSpec,
    TimeOfDay,
    decode,
    encode,
    make_scheme,
    parse_bits,
    render,
)
from lampclock.codec import MAX_LAMPS_PER_ROW
from lampclock.render import ANSI_COLOR_CODES, UNLIT_SVG_FILL, default_layout
from oracles import ansi_render, json_render, svg_render
from strategies import faces_of, scheme_and_time, valid_schemes

ANSI_ESCAPES = re.compile(r"\x1b\[[0-9;]*m")

BITS = RenderSpec(format=RenderFormat.BITS)
PLAIN = RenderSpec(use_color=False)


def strip_ansi(text):
    return ANSI_ESCAPES.sub("", text)


def state_at(text, scheme=TRIANGULAR):
    return encode(TimeOfDay.parse(text), scheme)


class TestBits:
    def test_4_49(self):
        assert render(state_at("04:49"), TRIANGULAR, BITS) == "0/11/100/1110/10000"

    def test_all_off(self):
        assert render(state_at("00:00"), TRIANGULAR, BITS) == "0/00/000/0000/00000"

    def test_berlin_10_31(self):
        state = state_at("10:31", BERLIN)
        assert render(state, BERLIN, BITS) == "1100/0000/11111100000/1000"


# states that do not fit their scheme: a digit over its row's lamps, a digit too many or too
# few, a 12-hour face's missing meridiem and a meridiem on a 24-hour face
MISFITS = [(TRIANGULAR, DisplayState((9, 0, 0, 0, 0), Meridiem.AM)),
           (BERLIN, DisplayState((0, 0, 5, 5))),
           (TRIANGULAR, DisplayState((0, 0, 0, 0, 0, 0), Meridiem.PM)),
           (BERLIN, DisplayState((0, 0, 0))),
           (TRIANGULAR, DisplayState((0, 2, 1, 3, 1))),
           (BERLIN, DisplayState((2, 0, 6, 1), Meridiem.AM))]


@pytest.mark.parametrize("fmt", list(RenderFormat), ids=lambda f: f.value)
@pytest.mark.parametrize("scheme, state", MISFITS, ids=["over-full", "over-full-berlin", "too-many", "too-few",
                                                     "no-meridiem", "meridiem"])
def test_every_format_refuses_a_state_that_does_not_fit(fmt, scheme, state):
    with pytest.raises(InvalidStateError) as refused:
        decode(state, scheme)
    with pytest.raises(InvalidStateError) as info:
        render(state, scheme, RenderSpec(format=fmt))
    assert type(info.value) is InvalidStateError and str(info.value) == str(refused.value)
    assert info.value.__context__ is None  # one error, not a second raised while handling a first


class TestParseBits:
    def test_4_49(self):
        state = parse_bits("0/11/100/1110/10000", TRIANGULAR, Meridiem.AM)
        assert state.digits == (0, 2, 1, 3, 1)
        assert state.meridiem is Meridiem.AM

    def test_all_off(self):
        assert parse_bits("0/00/000/0000/00000", TRIANGULAR, Meridiem.AM).digits == (0,) * 5

    def test_berlin_needs_no_meridiem(self):
        assert parse_bits("1100/0000/11111100000/1000", BERLIN).digits == (2, 0, 6, 1)

    def test_gapped_row_rejected_with_row_number(self):
        with pytest.raises(MonotoneFillError) as exc_info:
            parse_bits("0/01/000/0000/00000", TRIANGULAR, Meridiem.AM)
        assert exc_info.value.row == 2
        assert "row 2" in str(exc_info.value)

    # so that a worker process can send the error back, as multiprocessing pickles it
    @pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_gapped_row_error_survives_pickle_and_copy(self, clone):
        with pytest.raises(MonotoneFillError) as exc_info:
            parse_bits("0/01/000/0000/00000", TRIANGULAR, Meridiem.AM)
        error = exc_info.value
        twin = clone(error)
        assert type(twin) is MonotoneFillError and twin is not error
        assert (twin.row, str(twin), twin.args) == (error.row, str(error), error.args)

    def test_row_count_mismatch(self):
        with pytest.raises(BitsParseError):
            parse_bits("0/11/100", TRIANGULAR, Meridiem.AM)

    def test_row_width_mismatch(self):
        with pytest.raises(BitsParseError, match="row 3"):
            parse_bits("0/11/1000/1110/10000", TRIANGULAR, Meridiem.AM)

    def test_bad_characters(self):
        with pytest.raises(BitsParseError, match="row 1"):
            parse_bits("x/11/100/1110/10000", TRIANGULAR, Meridiem.AM)

    def test_meridiem_required_for_half_day_scheme(self):
        with pytest.raises(InvalidStateError):
            parse_bits("0/00/000/0000/00000", TRIANGULAR)

    def test_meridiem_rejected_for_full_day_scheme(self):
        with pytest.raises(InvalidStateError):
            parse_bits("0000/0000/00000000000/0000", BERLIN, Meridiem.AM)

    def test_meridiem_must_be_a_meridiem(self):
        # the check DisplayState would make: a string is not a Meridiem
        with pytest.raises(ValueError, match="Meridiem or None expected, got 'AM'"):
            parse_bits("0/11/100/1110/10000", TRIANGULAR, "AM")
        with pytest.raises(InvalidStateError):  # on a 24-hour face any flag is one too many
            parse_bits("0000/0000/00000000000/0000", BERLIN, "AM")


@given(valid_schemes(), st.data())
def test_each_row_reports_its_first_broken_rule(scheme, data):
    # width comes first, then characters; without its own width test, a row of n + 1 ones
    # would pass for n lamps, as it is left-filled
    meridiem = Meridiem.AM if scheme.has_meridiem else None
    lamp_counts = tuple(row.lamp_count for row in scheme.rows)
    digits = [data.draw(st.integers(0, n)) for n in lamp_counts]
    rows = ["1" * d + "0" * (n - d) for d, n in zip(digits, lamp_counts)]
    assert parse_bits("/".join(rows), scheme, meridiem).digits == tuple(digits)
    for k, (row, n) in enumerate(zip(rows, lamp_counts), start=1):
        def parse_with(bad):
            return parse_bits("/".join(rows[:k - 1] + [bad] + rows[k:]), scheme, meridiem)
        for bad in (row + "1", row + "0", "1" * (n + 1), row[:-1], row + "2"):
            with pytest.raises(BitsParseError, match=f"^row {k} must have {n} bits, got {len(bad)}$"):
                parse_with(bad)
        with pytest.raises(BitsParseError, match=f"^row {k} contains characters other than 0/1"):
            parse_with("2" + row[1:])


@pytest.mark.parametrize("scheme", [TRIANGULAR, BERLIN], ids=lambda s: s.name)
def test_bits_round_trip_every_state(scheme):
    meridiem = Meridiem.AM if scheme.has_meridiem else None
    ranges = [range(row.lamp_count + 1) for row in scheme.rows]
    for digits in product(*ranges):
        state = DisplayState(digits, meridiem)
        assert parse_bits(render(state, scheme, BITS), scheme, meridiem) == state


@pytest.mark.parametrize("scheme", [TRIANGULAR, BERLIN], ids=lambda s: s.name)
def test_built_states_pass_the_constructors_checks(scheme):
    # encode and parse_bits build their states without DisplayState's checks
    for minutes in range(1440):
        state = encode(TimeOfDay(minutes), scheme)
        assert state == DisplayState(state.digits, state.meridiem)
        assert type(state.digits) is tuple and all(type(digit) is int for digit in state.digits)
        parsed = parse_bits(render(state, scheme, BITS), scheme, state.meridiem)
        assert parsed == state and all(type(digit) is int for digit in parsed.digits)


class TestAnsi:
    def test_triangle_centered_plain(self):
        art = render(state_at("04:49"), TRIANGULAR, PLAIN)
        assert art == "\n".join(
            [
                "    ○",
                "   ● ●",
                "  ● ○ ○",
                " ● ● ● ○",
                "● ○ ○ ○ ○",
            ]
        )

    def test_left_aligned(self):
        spec = RenderSpec(layout=Layout.LEFT_ALIGNED, use_color=False)
        art = render(state_at("04:49"), TRIANGULAR, spec)
        assert art.splitlines()[0] == "○"
        assert all(not line.startswith(" ") for line in art.splitlines())

    def test_am_colors_lit_glyphs_green(self):
        art = render(state_at("04:49"), TRIANGULAR, RenderSpec())
        assert art.count("\x1b[32m") == 7  # 0+2+1+3+1 lit lamps
        assert "\x1b[31m" not in art

    def test_pm_colors_lit_glyphs_red(self):
        art = render(state_at("16:49"), TRIANGULAR, RenderSpec())
        assert art.count("\x1b[31m") == 7
        assert "\x1b[32m" not in art

    def test_unlit_glyphs_never_colored(self):
        art = render(state_at("00:00"), TRIANGULAR, RenderSpec())
        assert "\x1b[" not in art

    def test_berlin_blocks_layout(self):
        spec = RenderSpec(layout=Layout.BERLIN_BLOCKS, use_color=False)
        art = render(state_at("10:31", BERLIN), BERLIN, spec)
        lines = art.splitlines()
        assert len(lines) == 4
        assert lines[0].strip() == "[●][●][○][○]"
        assert lines[2] == "[●]" * 6 + "[○]" * 5

    def test_berlin_quarter_accents(self):
        art = render(state_at("10:31", BERLIN), BERLIN, RenderSpec())
        # six lit five-minute lamps: the 3rd and 6th are accented red
        assert art.count("\x1b[31m") == 2
        assert art.count("\x1b[33m") == 7  # remaining lit lamps are yellow

    def test_berlin_blocks_needs_four_rows(self):
        spec = RenderSpec(layout=Layout.BERLIN_BLOCKS)
        with pytest.raises(RenderError):
            render(state_at("04:49"), TRIANGULAR, spec)


# The lamp colors are constants of the face: a render draws each lit lamp in
# its half's color, or yellow and red with no meridiem, and nothing else.
@pytest.mark.parametrize("fmt", [RenderFormat.ANSI, RenderFormat.SVG])
@pytest.mark.parametrize("text, scheme, palette", [
    ("04:49", TRIANGULAR, {"green"}), ("16:49", TRIANGULAR, {"red"}), ("10:31", BERLIN, {"yellow", "red"}),
], ids=["am", "pm", "no-meridiem"])
def test_lit_lamps_take_only_the_fixed_colors(fmt, text, scheme, palette):
    state = state_at(text, scheme)
    rendered = render(state, scheme, RenderSpec(format=fmt, layout=default_layout(scheme)))
    if fmt is RenderFormat.ANSI:
        names = {code: name for name, code in ANSI_COLOR_CODES.items()}
        lit = [names[int(code)] for code in re.findall(r"\x1b\[(\d+)m●\x1b\[0m", rendered)]
        assert len(re.findall(r"\x1b\[", rendered)) == 2 * len(lit)  # every escape paints or resets a lamp
    else:
        lit = [shape.get("fill") for shape in ET.fromstring(rendered)]
        lit = [fill for fill in lit if fill != UNLIT_SVG_FILL]
    assert len(lit) == sum(state.digits) and set(lit) == palette


class TestJson:
    def test_fields(self):
        doc = json.loads(render(state_at("10:31", BERLIN), BERLIN, RenderSpec(format=RenderFormat.JSON)))
        assert doc == {
            "scheme": "berlin",
            "digits": [2, 0, 6, 1],
            "meridiem": None,
            "time": "10:31",
        }

    def test_meridiem_serialized(self):
        doc = json.loads(render(state_at("16:49"), TRIANGULAR, RenderSpec(format=RenderFormat.JSON)))
        assert doc["meridiem"] == "PM"
        assert doc["time"] == "16:49"
        assert doc["digits"] == [0, 2, 1, 3, 1]

    def test_surplus_state_has_a_null_time(self):
        # berlin's all-on state reads 24:59, past the end of the day: it
        # renders in every format, with no HH:MM time in JSON
        all_on = DisplayState((4, 4, 11, 4))
        text = render(all_on, BERLIN, RenderSpec(format=RenderFormat.JSON))
        assert text == '{"scheme": "berlin", "digits": [4, 4, 11, 4], "meridiem": null, "time": null}'
        assert render(all_on, BERLIN, BITS) == "1111/1111/11111111111/1111"
        last = DisplayState((4, 3, 11, 4))  # 23:59, the last minute of the day
        assert json.loads(render(last, BERLIN, RenderSpec(format=RenderFormat.JSON)))["time"] == "23:59"

    def test_state_outside_a_12_hour_cycle_has_a_null_time(self):
        # a 12-hour face of 1296 states: its all-on AM state reads 21:35, which is no morning time
        scheme = make_scheme("x", [5, 5, 5, 5], 720)
        text = render(DisplayState((5, 5, 5, 5), Meridiem.AM), scheme, RenderSpec(format=RenderFormat.JSON))
        assert text == '{"scheme": "x", "digits": [5, 5, 5, 5], "meridiem": "AM", "time": null}'
        last = DisplayState((3, 1, 5, 5), Meridiem.AM)  # 3 * 216 + 36 + 30 + 5 == 719, 11:59
        assert json.loads(render(last, scheme, RenderSpec(format=RenderFormat.JSON)))["time"] == "11:59"


# names that JSON must escape: a quote, a backslash, control characters and non-ASCII text
@pytest.mark.parametrize("name", ['say "hi"', "back\\slash", "tab\there", "new\nline", "nul\x00",
                                  "café", "grin \U0001F600"], ids=repr)
def test_json_bytes_match_json_dumps(name):
    # every state of a 12-hour triangle (AM and PM), of a 24-hour Berlin face, of a 12-hour and a
    # 1000-minute face of 1296 states and of a 24-hour face of 432 five-minute states, surplus included
    spec = RenderSpec(format=RenderFormat.JSON)
    faces = [((1, 2, 3, 4, 5), 720, 1, (360, 120, 30, 6, 1)), ((4, 4, 11, 4), 1440, 1, (300, 60, 5, 1)),
             ((5, 5, 5, 5), 720, 1, (216, 36, 6, 1)), ((5, 5, 5, 5), 1000, 1, (216, 36, 6, 1)),
             ((2, 11, 11), 1440, 5, (144, 12, 1))]
    surplus = 0
    for lamps, cycle, base_unit, units in faces:
        scheme = make_scheme(name, lamps, cycle, base_unit)
        for digits in product(*(range(n + 1) for n in lamps)):
            value = sum(d * u for d, u in zip(digits, units)) * base_unit
            for meridiem, offset in ((("AM", 0), ("PM", 720)) if cycle == 720 else ((None, 0),)):
                state = DisplayState(digits, meridiem and Meridiem(meridiem))
                expected = json_render(name, digits, meridiem, value + offset, cycle)
                assert render(state, scheme, spec) == expected
            surplus += value >= cycle
    # berlin shows 24:00 to 24:59, the 1296-state faces 12:00 to 21:35 and 16:40 to 21:35,
    # and the five-minute face 24:00 to 35:55
    assert surplus == 60 + 576 + 296 + 144


class TestSvg:
    def test_well_formed_with_one_shape_per_lamp(self):
        svg = render(state_at("04:49"), TRIANGULAR, RenderSpec(format=RenderFormat.SVG))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        circles = root.findall("{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 15
        lit = [c for c in circles if c.get("fill") == "green"]
        assert len(lit) == 7

    def test_berlin_blocks_are_rects(self):
        spec = RenderSpec(format=RenderFormat.SVG, layout=Layout.BERLIN_BLOCKS)
        svg = render(state_at("10:31", BERLIN), BERLIN, spec)
        root = ET.fromstring(svg)
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        assert len(rects) == 23
        assert not root.findall("{http://www.w3.org/2000/svg}circle")

    def test_pm_fill(self):
        svg = render(state_at("12:00"), TRIANGULAR, RenderSpec(format=RenderFormat.SVG))
        assert "green" not in svg
        state = state_at("12:01")
        svg = render(state, TRIANGULAR, RenderSpec(format=RenderFormat.SVG))
        assert svg.count('fill="red"') == 1

    def test_berlin_blocks_needs_four_rows(self):
        spec = RenderSpec(format=RenderFormat.SVG, layout=Layout.BERLIN_BLOCKS)
        with pytest.raises(RenderError):
            render(state_at("04:49"), TRIANGULAR, spec)


# Faces for the SVG and ANSI oracles: the shared strategy's, and faces whose rows reach 12 lamps, about half
# of them 11-lamp rows, where the accent applies; 4-row faces are the only ones the block layout takes
lamps_up_to_12 = st.one_of(st.just(11), st.integers(1, 12))
SVG_FACES = st.one_of(valid_schemes(), faces_of(st.lists(lamps_up_to_12, min_size=1, max_size=5)),
                      faces_of(st.lists(lamps_up_to_12, min_size=4, max_size=4)))


def layouts_of(lamps):
    """Every layout a face with rows of ``lamps`` accepts: the block layout takes 4-row faces only."""
    return list(Layout) if len(lamps) == 4 else [Layout.TRIANGLE_CENTERED, Layout.LEFT_ALIGNED]


def drawn_state(data, lamps, scheme):
    """Any digits on the face and, on a 12-hour face, either meridiem."""
    digits = data.draw(st.tuples(*(st.integers(0, n) for n in lamps)))
    meridiem = data.draw(st.sampled_from(list(Meridiem))) if scheme.has_meridiem else None
    return DisplayState(digits, meridiem)


@given(SVG_FACES, st.data(), st.booleans())
def test_svg_matches_the_geometry_oracle(scheme, data, use_color):
    lamps = [row.lamp_count for row in scheme.rows]
    layout = data.draw(st.sampled_from(layouts_of(lamps)))
    state = drawn_state(data, lamps, scheme)
    svg = render(state, scheme, RenderSpec(RenderFormat.SVG, layout, use_color))
    assert svg == svg_render(lamps, state.digits, state.meridiem and state.meridiem.value, layout.value)
    shape = "rect" if layout is Layout.BERLIN_BLOCKS else "circle"
    assert [element.tag for element in ET.fromstring(svg)] == [f"{{http://www.w3.org/2000/svg}}{shape}"] * sum(lamps)


@given(SVG_FACES, st.data())
def test_ansi_matches_the_geometry_oracle(scheme, data):
    lamps = [row.lamp_count for row in scheme.rows]
    state = drawn_state(data, lamps, scheme)
    meridiem = state.meridiem and state.meridiem.value
    for layout in layouts_of(lamps):
        for use_color in (False, True):
            text = render(state, scheme, RenderSpec(RenderFormat.ANSI, layout, use_color))
            assert text == ansi_render(lamps, state.digits, meridiem, layout.value, use_color), (layout, use_color)


class TestExactBytes:
    """Whole outputs pinned byte for byte, on faces that golden_cli.json does not reach:
    fractional block cells, the widest row, a cy past 10**6 and every accent."""

    HEAD = '<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '

    def test_blocks_with_fractional_cells(self):
        scheme = make_scheme("w", [3, 7, 11, 5], 1440)
        state = state_at("10:31", scheme)
        assert state.digits == (1, 0, 9, 1)
        spec = RenderSpec(format=RenderFormat.SVG, layout=Layout.BERLIN_BLOCKS)
        assert render(state, scheme, spec) == self.HEAD + (
            'width="440" height="160" viewBox="0 0 440 160">\n'
            '  <rect x="2" y="2" width="142.667" height="36" fill="yellow"/>\n'
            '  <rect x="148.667" y="2" width="142.667" height="36" fill="#dddddd"/>\n'
            '  <rect x="295.333" y="2" width="142.667" height="36" fill="#dddddd"/>\n'
            '  <rect x="2" y="42" width="58.8571" height="36" fill="#dddddd"/>\n'
            '  <rect x="64.8571" y="42" width="58.8571" height="36" fill="#dddddd"/>\n'
            '  <rect x="127.714" y="42" width="58.8571" height="36" fill="#dddddd"/>\n'
            '  <rect x="190.571" y="42" width="58.8571" height="36" fill="#dddddd"/>\n'
            '  <rect x="253.429" y="42" width="58.8571" height="36" fill="#dddddd"/>\n'
            '  <rect x="316.286" y="42" width="58.8571" height="36" fill="#dddddd"/>\n'
            '  <rect x="379.143" y="42" width="58.8571" height="36" fill="#dddddd"/>\n'
            '  <rect x="2" y="82" width="36" height="36" fill="yellow"/>\n'
            '  <rect x="42" y="82" width="36" height="36" fill="yellow"/>\n'
            '  <rect x="82" y="82" width="36" height="36" fill="red"/>\n'
            '  <rect x="122" y="82" width="36" height="36" fill="yellow"/>\n'
            '  <rect x="162" y="82" width="36" height="36" fill="yellow"/>\n'
            '  <rect x="202" y="82" width="36" height="36" fill="red"/>\n'
            '  <rect x="242" y="82" width="36" height="36" fill="yellow"/>\n'
            '  <rect x="282" y="82" width="36" height="36" fill="yellow"/>\n'
            '  <rect x="322" y="82" width="36" height="36" fill="red"/>\n'
            '  <rect x="362" y="82" width="36" height="36" fill="#dddddd"/>\n'
            '  <rect x="402" y="82" width="36" height="36" fill="#dddddd"/>\n'
            '  <rect x="2" y="122" width="84" height="36" fill="yellow"/>\n'
            '  <rect x="90" y="122" width="84" height="36" fill="#dddddd"/>\n'
            '  <rect x="178" y="122" width="84" height="36" fill="#dddddd"/>\n'
            '  <rect x="266" y="122" width="84" height="36" fill="#dddddd"/>\n'
            '  <rect x="354" y="122" width="84" height="36" fill="#dddddd"/>\n'
            '</svg>\n'
        )

    @pytest.mark.parametrize("layout,x0", [(Layout.TRIANGLE_CENTERED, 28740), (Layout.LEFT_ALIGNED, 0)])
    def test_widest_row_circles(self, layout, x0):
        scheme = make_scheme("wide", [3, MAX_LAMPS_PER_ROW], 1440)
        state = DisplayState((2, MAX_LAMPS_PER_ROW - 1))
        spec = RenderSpec(format=RenderFormat.SVG, layout=layout)
        top = [f'  <circle cx="{x0 + 40 * i + 20}" cy="20" r="16" fill="{fill}"/>'
               for i, fill in enumerate(["yellow", "yellow", "#dddddd"])]
        bottom = [f'  <circle cx="{40 * i + 20}" cy="60" r="16" fill="yellow"/>'
                  for i in range(MAX_LAMPS_PER_ROW - 1)]
        last = '  <circle cx="57580" cy="60" r="16" fill="#dddddd"/>'  # the largest cx
        assert render(state, scheme, spec) == self.HEAD + (
            'width="57600" height="80" viewBox="0 0 57600 80">\n'
            + "\n".join(top + bottom + [last]) + "\n</svg>\n"
        )

    def test_tallest_scheme_has_whole_centres(self):
        # a cy past a million would need 25,001 rows; such a scheme fails at once as it is built
        start = time.perf_counter()
        with pytest.raises(InvalidSchemeError, match=r"^scheme 'tall': capacity must be below 2\*\*64"):
            RowScheme("tall", tuple(RowSpec(1, 1) for _ in range(25_001)), 1440)
        assert time.perf_counter() - start < 1
        rows = 63  # 2**63 states: one row more reaches 2**64
        scheme = make_scheme("tall", [1] * rows, 1440)
        svg = render(DisplayState((1,) * rows), scheme, RenderSpec(format=RenderFormat.SVG))
        lines = svg.splitlines()
        assert lines[1] == ('<svg xmlns="http://www.w3.org/2000/svg" width="40" height="2520" '
                            'viewBox="0 0 40 2520">')
        assert lines[2] == '  <circle cx="20" cy="20" r="16" fill="yellow"/>'
        assert lines[-2] == '  <circle cx="20" cy="2500" r="16" fill="yellow"/>'
        assert lines[-1] == "</svg>"
        assert len(lines) == rows + 3

    @pytest.mark.parametrize("meridiem", [None, Meridiem.AM, Meridiem.PM], ids=str)
    @pytest.mark.parametrize("digit", range(12))
    def test_ansi_eleven_lamp_row_in_color(self, digit, meridiem):
        cycle = 1440 if meridiem is None else 720
        scheme = RowScheme("eleven", (RowSpec(11, 1),), cycle)
        painted = {"yellow": "\x1b[33m●\x1b[0m", "red": "\x1b[31m●\x1b[0m", "green": "\x1b[32m●\x1b[0m"}
        if meridiem is None:  # every third lamp accented red, the rest yellow
            colors = ["red" if i % 3 == 2 else "yellow" for i in range(digit)]
        else:
            colors = ["green" if meridiem is Meridiem.AM else "red"] * digit
        expected = " ".join([painted[c] for c in colors] + ["○"] * (11 - digit))
        assert render(DisplayState((digit,), meridiem), scheme, RenderSpec()) == expected

    def test_ansi_berlin_blocks_in_color(self):
        spec = RenderSpec(layout=Layout.BERLIN_BLOCKS)
        assert render(state_at("10:31", BERLIN), BERLIN, spec).splitlines()[2] == (
            "[\x1b[33m●\x1b[0m][\x1b[33m●\x1b[0m][\x1b[31m●\x1b[0m]"
            "[\x1b[33m●\x1b[0m][\x1b[33m●\x1b[0m][\x1b[31m●\x1b[0m]" + "[○]" * 5
        )


# Every minute of the day on four faces, in every layout each face can draw, with and without
# color, each combination pinned as one SHA-256 of its renders. Bits and JSON take neither a
# layout nor a color, so each is rendered once per face.
PINNED_FACES = {
    "triangular": TRIANGULAR,
    "berlin": BERLIN,
    "w": make_scheme("w", [3, 7, 11, 5], 1440),  # fractional block cells and accents
    "h": make_scheme("h", [2, 11, 4], 720, 4),  # an 11-lamp row on a 12-hour face
}


def pinned_specs(scheme):
    layouts = [layout for layout in Layout if layout is not Layout.BERLIN_BLOCKS or len(scheme.rows) == 4]
    for fmt, layout, use_color in product([RenderFormat.ANSI, RenderFormat.SVG], layouts, [True, False]):
        key = f"{fmt.value} {layout.value} {'color' if use_color else 'plain'}"
        yield key, RenderSpec(format=fmt, layout=layout, use_color=use_color)
    yield "bits", BITS
    yield "json", RenderSpec(format=RenderFormat.JSON)


PINNED_RENDERS = [(f"{name} {key}", name, spec)
                  for name, scheme in PINNED_FACES.items() for key, spec in pinned_specs(scheme)]

RENDER_DIGESTS = {
    "triangular ansi triangle color": "fb6c39bdacce40bdae94cac14e48283896e17542db6cbc2650f83f18120889d7",
    "triangular ansi triangle plain": "bd816080c88716829b9129355e939e3f99d3abad13cd44047b00611351620b4f",
    "triangular ansi left color": "f315c12d0004835e3c7808ac6a7e934162ecb59cabf71af129291b55dcf366ca",
    "triangular ansi left plain": "b6f3a19b127c0c94d9753b5c5f83370bb92c20f953684e77508ab2a2ffe49229",
    "triangular svg triangle color": "8144b3dd6d9c205023f17e7cb512f7fa6f19f5ca520aa3a1b7ed635de925469f",
    "triangular svg triangle plain": "8144b3dd6d9c205023f17e7cb512f7fa6f19f5ca520aa3a1b7ed635de925469f",
    "triangular svg left color": "5d18d1043556627da354952fa588de037f779e0c71072beeded57b81664fbb52",
    "triangular svg left plain": "5d18d1043556627da354952fa588de037f779e0c71072beeded57b81664fbb52",
    "triangular bits": "dd21221c3dd8a5e222a3f23a699b219edf1c9aa8b13a0388c908d9e16a07ea5f",
    "triangular json": "0926c7a1b9ff32a44a987bc8f1e7c60e04063b8fb9806a86bd6b64837d923f51",
    "berlin ansi triangle color": "79af632046b6b20f125acfc3565b0f596835369a5209e56ccb69dd105ef4fcc6",
    "berlin ansi triangle plain": "c18b68f43102d22d49d0b7b66f5266c633055ab05349c31a0adefc54e7f91995",
    "berlin ansi left color": "3b12c27c392838d25e203d8de47debbc88060cf13ed8aceb7f5a5b078cde865e",
    "berlin ansi left plain": "390c8ac5f6b96fd2f7f3b4b6ac509e5d49e1ad76542dbd462c47c0ec3095dd67",
    "berlin ansi berlin color": "34beedfdd344f2c253093fd3677b4b365f9e53ea82bba25721457abc983d1f45",
    "berlin ansi berlin plain": "8a940600d77542653c52970c05cebaa6a98f0423dfde27dfa607d7fbb6356def",
    "berlin svg triangle color": "b3f8d88cf3f53b9dc16a42c9e0a89d97ebb010f6c59c6c15681a4b0fae91e53b",
    "berlin svg triangle plain": "b3f8d88cf3f53b9dc16a42c9e0a89d97ebb010f6c59c6c15681a4b0fae91e53b",
    "berlin svg left color": "0e1198f126e9503dad24ac6d2427e2165b4e360b57dc255cc820b6a538fb9829",
    "berlin svg left plain": "0e1198f126e9503dad24ac6d2427e2165b4e360b57dc255cc820b6a538fb9829",
    "berlin svg berlin color": "700012bbe7ff689cbf08d9d59b08bc0c24ca14e41ec0a2371a2ae807cc55a2aa",
    "berlin svg berlin plain": "700012bbe7ff689cbf08d9d59b08bc0c24ca14e41ec0a2371a2ae807cc55a2aa",
    "berlin bits": "a4a4b0f77ebad4f91349317db458b70cf55a795d154a679f35cccb89563df844",
    "berlin json": "e5ef242b325f8e8bbdbb754703a96c8476a67d2304d18e9b2c302eb239af626d",
    "w ansi triangle color": "5225a7d22e8ba89fd3f89eaa58de74dc08569517e1258f8b2b3231f8664c539c",
    "w ansi triangle plain": "a9afba8431146781fe4872b6d55a6937726cef5ec611ee892eafc65722d73905",
    "w ansi left color": "081db339bdd43627d8e944bd03636cb797c151132a0b32349643e3b44ccaf806",
    "w ansi left plain": "a0849f4a54f476db7e170349b9073f9533dcac716f1cb78c7173966da2745683",
    "w ansi berlin color": "a315febcb2f345d6d5482b334b35e4ed9aa357fe3744671ea7dde99c30b4a445",
    "w ansi berlin plain": "e5edb61bfdd1d228f1da050657252efddc03142f67cf3d9f576af3dedece125b",
    "w svg triangle color": "afef7b990f1ee84acc540ebbc7bbe124e79761fffe2101b1cd3123d9102a412c",
    "w svg triangle plain": "afef7b990f1ee84acc540ebbc7bbe124e79761fffe2101b1cd3123d9102a412c",
    "w svg left color": "e7dccc265126353f3a1f4fe1737f8a2653e7bbb313eef886cc664d12f2990e6a",
    "w svg left plain": "e7dccc265126353f3a1f4fe1737f8a2653e7bbb313eef886cc664d12f2990e6a",
    "w svg berlin color": "479b3d94e92725e7213866806a76ab583e902c14b6eb8972175a38ec562ba918",
    "w svg berlin plain": "479b3d94e92725e7213866806a76ab583e902c14b6eb8972175a38ec562ba918",
    "w bits": "886f2812cf7abae7a8ac0bb483b31fffd5c2e21db50958a10dc25cd03e326170",
    "w json": "f1699c2cc637b62063046fbf2c9e5a37bdcfbd5c22129b70ec86ff217a94260f",
    "h ansi triangle color": "2f5dcff3a6e83c5f9ee56788e4b8403b312df5fa3648f27b1db05b40cce30656",
    "h ansi triangle plain": "99d71fd028a763fa6faea97b12d62507878386607ba5fe4bbc8ba518fe36fd63",
    "h ansi left color": "d7da8f27ff86db6d829306570838ce2b445e2febe48039b216e9972f87d825bb",
    "h ansi left plain": "6601e791775fe73d57a79735d84bf1742067bd51f6cf5eb1875cad3789084bbc",
    "h svg triangle color": "709945143bb9ac77bcdaa71a12a97b4cd06acd73ba8e3136e29401270f2a0716",
    "h svg triangle plain": "709945143bb9ac77bcdaa71a12a97b4cd06acd73ba8e3136e29401270f2a0716",
    "h svg left color": "3d9b19d58a315eb6d8b409ffd7349fce461f60a004bb798ed546031b68732215",
    "h svg left plain": "3d9b19d58a315eb6d8b409ffd7349fce461f60a004bb798ed546031b68732215",
    "h bits": "a957c6573755d14564bd58b35979c73fc621baf25e57d7f520a901a47d69d2da",
    "h json": "37e716b4b48270bc90c8b35ced907ca527eeb95da1b4a5c2e01495758f7fe25e",
}


@pytest.mark.parametrize("key, name, spec", PINNED_RENDERS, ids=[key for key, _, _ in PINNED_RENDERS])
def test_every_minute_renders_the_pinned_bytes(key, name, spec):
    scheme = PINNED_FACES[name]
    renders = "\0".join(render(encode(TimeOfDay(m), scheme), scheme, spec) for m in range(1440))
    assert hashlib.sha256(renders.encode()).hexdigest() == RENDER_DIGESTS[key]


class TestRowWidthBound:
    # RowSpec bounds every row, so no renderer, JSON included, is handed an overlong one
    @pytest.mark.parametrize("fmt", list(RenderFormat), ids=lambda f: f.value)
    @pytest.mark.parametrize("lamps", [MAX_LAMPS_PER_ROW + 1, 10**6, 10**7])
    def test_overlong_row_fails_before_drawing(self, fmt, lamps):
        start = time.perf_counter()
        with pytest.raises(InvalidSchemeError, match="at most 1440"):
            render(DisplayState((1, lamps)), make_scheme("wide", [2, lamps], 1440), RenderSpec(format=fmt))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("fmt", list(RenderFormat), ids=lambda f: f.value)
    def test_longest_row_is_drawn(self, fmt):
        scheme = make_scheme("wide", [MAX_LAMPS_PER_ROW], 1440)
        state = encode(TimeOfDay(1439), scheme)
        spec = RenderSpec(format=fmt, use_color=False)
        assert lit_counts_per_row(render(state, scheme, spec), fmt, scheme) == [1439]


# Lamp counts the row bound and the int rule must sort out, among ordinary ones
ODD_LAMPS = [0, MAX_LAMPS_PER_ROW, MAX_LAMPS_PER_ROW + 1, 10**9, True, None, "3", 2.0]


@given(st.lists(st.one_of(st.integers(1, 12), st.sampled_from(ODD_LAMPS)), min_size=1, max_size=4),
       st.sampled_from([2, 720, 1440]))
@example([2, 2000], 1440)
@settings(deadline=None)  # four rows of 1440 lamps take milliseconds, more on a loaded machine
def test_make_scheme_builds_only_drawable_schemes(lamps, cycle):
    try:
        scheme = make_scheme("w", lamps, cycle)
    except InvalidSchemeError:
        return
    state = encode(TimeOfDay(cycle - 1), scheme)
    for fmt in RenderFormat:
        assert render(state, scheme, RenderSpec(format=fmt, layout=default_layout(scheme)))


def lit_counts_per_row(rendered, fmt, scheme):
    """Extract per-row lit-lamp counts from any rendered format."""
    if fmt is RenderFormat.BITS:
        return [row.count("1") for row in rendered.split("/")]
    if fmt is RenderFormat.JSON:
        return json.loads(rendered)["digits"]
    if fmt is RenderFormat.ANSI:
        return [strip_ansi(line).count("●") for line in rendered.splitlines()]
    root = ET.fromstring(rendered)
    counts = []
    shapes = list(root)
    for row in scheme.rows:
        row_shapes, shapes = shapes[: row.lamp_count], shapes[row.lamp_count :]
        counts.append(sum(1 for s in row_shapes if s.get("fill") != "#dddddd"))
    return counts


@pytest.mark.parametrize("fmt", list(RenderFormat), ids=lambda f: f.value)
@pytest.mark.parametrize("text,scheme", [("04:49", TRIANGULAR), ("10:31", BERLIN), ("23:59", TRIANGULAR)])
def test_lit_glyph_count_equals_digits_in_every_format(fmt, text, scheme):
    state = state_at(text, scheme)
    spec = RenderSpec(format=fmt)
    rendered = render(state, scheme, spec)
    assert lit_counts_per_row(rendered, fmt, scheme) == list(state.digits)


@given(scheme_and_time())
def test_monotone_fill_in_bits(pair):
    scheme, t = pair
    bits = render(encode(t, scheme), scheme, RenderSpec(format=RenderFormat.BITS))
    for row in bits.split("/"):
        assert "01" not in row  # no lit lamp right of an unlit one


@given(scheme_and_time())
def test_monotone_fill_in_ansi(pair):
    scheme, t = pair
    art = render(encode(t, scheme), scheme, RenderSpec(use_color=False))
    for line in art.splitlines():
        glyphs = line.strip().replace(" ", "")
        assert "○●" not in glyphs


@given(scheme_and_time())
def test_bits_round_trip_random_schemes(pair):
    scheme, t = pair
    state = encode(t, scheme)
    bits = render(state, scheme, RenderSpec(format=RenderFormat.BITS))
    assert parse_bits(bits, scheme, state.meridiem) == state


@given(scheme_and_time(), st.sampled_from(list(RenderFormat)), st.sampled_from(list(Layout)),
       st.booleans())
def test_every_format_renders_and_reads_back(pair, fmt, layout, use_color):
    scheme, t = pair
    assume(layout is not Layout.BERLIN_BLOCKS or len(scheme.rows) == 4)
    state = encode(t, scheme)
    out = render(state, scheme, RenderSpec(format=fmt, layout=layout, use_color=use_color))
    if fmt is RenderFormat.SVG:
        assert len(list(ET.fromstring(out))) == sum(row.lamp_count for row in scheme.rows)
    elif fmt is RenderFormat.BITS:
        back = parse_bits(out, scheme, state.meridiem)
        assert back == state and decode(back, scheme) == t
    elif fmt is RenderFormat.JSON:
        doc = json.loads(out)
        meridiem = state.meridiem.value if state.meridiem else None
        assert (doc["digits"], doc["meridiem"], doc["time"]) == (list(state.digits), meridiem, str(t))
