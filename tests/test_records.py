"""Value semantics of the seven record types: equality, hashing, repr,
immutability, pickling, copying and construction checks; and the check
that a state built by encode or parse_bits, or that passed once, carries
into render and decode."""

import copy
import pickle

import pytest

import lampclock.codec
from lampclock import (
    BERLIN,
    TRIANGULAR,
    DisplayState,
    InvalidSchemeError,
    InvalidStateError,
    Layout,
    Meridiem,
    RenderFormat,
    RenderSpec,
    RowScheme,
    RowSpec,
    SchemeShape,
    ShapeClass,
    TimeOfDay,
    ValidationReport,
    decode,
    encode,
    make_scheme,
    parse_bits,
    render,
)
from lampclock.codec import _Record, _set

# (value, an equal value built afresh, a value differing in one field,
#  the plain tuple of its fields, its exact repr)
CASES = {
    "RowSpec": (
        RowSpec(1, 360), RowSpec(lamp_count=1, unit_value=360), RowSpec(1, 120),
        (1, 360), "RowSpec(lamp_count=1, unit_value=360)",
    ),
    "RowScheme": (
        RowScheme("s", (RowSpec(2, 1),), 3), RowScheme("s", [RowSpec(2, 1)], 3, 1),
        RowScheme("s", (RowSpec(2, 1),), 3, 2),
        ("s", (RowSpec(2, 1),), 3, 1),
        "RowScheme(name='s', rows=(RowSpec(lamp_count=2, unit_value=1),), "
        "cycle_minutes=3, base_unit_minutes=1)",
    ),
    "TimeOfDay": (
        TimeOfDay(289), TimeOfDay.parse("04:49"), TimeOfDay(290),
        (289,), "TimeOfDay(minutes_since_midnight=289)",
    ),
    "DisplayState": (
        DisplayState((0, 2, 1, 3, 1), Meridiem.AM), DisplayState([0, 2, 1, 3, 1], meridiem=Meridiem.AM),
        DisplayState((0, 2, 1, 3, 1), Meridiem.PM),
        ((0, 2, 1, 3, 1), Meridiem.AM),
        "DisplayState(digits=(0, 2, 1, 3, 1), meridiem=<Meridiem.AM: 'AM'>)",
    ),
    "ValidationReport": (
        ValidationReport(6, 720), ValidationReport(capacity_minutes=6, cycle_minutes=720),
        ValidationReport(6, 6),
        (6, 720), "ValidationReport(capacity_minutes=6, cycle_minutes=720)",
    ),
    "RenderSpec": (
        RenderSpec(), RenderSpec(RenderFormat.ANSI, Layout.TRIANGLE_CENTERED, True),
        RenderSpec(use_color=False),
        (RenderFormat.ANSI, Layout.TRIANGLE_CENTERED, True),
        "RenderSpec(format=<RenderFormat.ANSI: 'ansi'>, layout=<Layout.TRIANGLE_CENTERED: 'triangle'>, "
        "use_color=True)",
    ),
    "SchemeShape": (
        SchemeShape((2, 1), ShapeClass.IRREGULAR, 3),
        SchemeShape(lamp_counts=(2, 1), classification=ShapeClass.IRREGULAR, total_lamps=3),
        SchemeShape((1, 2), ShapeClass.IRREGULAR, 3),
        ((2, 1), ShapeClass.IRREGULAR, 3),
        "SchemeShape(lamp_counts=(2, 1), classification=<ShapeClass.IRREGULAR: 'IRREGULAR'>, "
        "total_lamps=3)",
    ),
}
NAMES = sorted(CASES)
FIELD = {"RowSpec": "unit_value", "RowScheme": "rows", "TimeOfDay": "minutes_since_midnight",
         "DisplayState": "digits", "ValidationReport": "capacity_minutes",
         "RenderSpec": "layout", "SchemeShape": "lamp_counts"}


@pytest.mark.parametrize("name", NAMES)
def test_equality(name):
    value, same, other, plain, _ = CASES[name]
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != plain and plain != value
    assert value.__eq__(plain) is NotImplemented
    assert all(value != CASES[n][0] for n in NAMES if n != name)


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_hash_equal(name):
    value, same, other, _, _ = CASES[name]
    assert hash(value) == hash(same)
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    value, _, _, _, text = CASES[name]
    assert repr(value) == text


@pytest.mark.parametrize("name", NAMES)
def test_immutable(name):
    value, field = CASES[name][0], FIELD[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trip(name):
    value = CASES[name][0]
    clones = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(value), copy.deepcopy(value)]
    for clone in clones:
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == repr(value)


class TestConstructors:
    @pytest.mark.parametrize("lamps, unit", [
        (0, 1), (1, 0), (-1, 5), (1.5, 1), (2.0, 1), (True, 1), ("2", 1), (1, 1.0), (1, True),
        (1441, 1), (10**9, 1),
    ])
    def test_row_spec_rejects(self, lamps, unit):
        with pytest.raises(InvalidSchemeError):
            RowSpec(lamps, unit)

    @pytest.mark.parametrize("rows, cycle, base", [
        ((), 1, 1), ((RowSpec(1, 1),), 0, 1), ((RowSpec(1, 1),), 2, 0),
        ((RowSpec(1, 1),), 6.0, 1), ((RowSpec(1, 1),), True, 1), ((RowSpec(1, 1),), "2", 1),
        ((RowSpec(1, 1),), 2, 1.0), ((RowSpec(1, 1),), 2, True),
        ((1,), 2, 1), ((RowSpec(1, 1), (1, 1)), 2, 1),  # rows that are not RowSpecs
    ])
    def test_row_scheme_rejects(self, rows, cycle, base):
        with pytest.raises(InvalidSchemeError, match="scheme 's'"):
            RowScheme("s", rows, cycle, base)

    @pytest.mark.parametrize("lamps, cycle", [([1.5, 2], 6), ([True, 2], 6), ([1, 2], 6.0)])
    def test_make_scheme_rejects_non_integers(self, lamps, cycle):
        with pytest.raises(InvalidSchemeError, match="scheme 'x'"):
            make_scheme("x", lamps, cycle)

    @pytest.mark.parametrize("name", [5, "", None, b"s", ["s"]], ids=repr)
    def test_row_scheme_rejects_names(self, name):
        with pytest.raises(InvalidSchemeError, match="name must be a non-empty string"):
            RowScheme(name, (RowSpec(2, 1),), 3)
        with pytest.raises(InvalidSchemeError, match="name must be a non-empty string"):
            make_scheme(name, [1, 2, 3, 4, 5], 720)

    def test_row_scheme_rows_become_a_tuple(self):
        rows = [RowSpec(2, 1)]
        scheme = RowScheme("s", rows, 3)
        assert scheme.rows == (RowSpec(2, 1),) and type(scheme.rows) is tuple
        assert RowScheme("s", iter(rows), 3) == scheme
        assert scheme.base_unit_minutes == 1

    @pytest.mark.parametrize("minutes", [-1, 1440, 10**9, 5.5, 289.0, True, False, "289", None], ids=repr)
    def test_time_of_day_rejects(self, minutes):
        with pytest.raises(ValueError):
            TimeOfDay(minutes)

    def test_display_state_digits_become_a_tuple(self):
        state = DisplayState([0, 2, 1])
        assert state.digits == (0, 2, 1) and type(state.digits) is tuple
        assert DisplayState(d for d in (0, 2, 1)) == state
        assert state.meridiem is None
        assert DisplayState(()).digits == ()

    # a type check, not coercion: "PM" is the value of a Meridiem, not one
    @pytest.mark.parametrize("meridiem", ["PM", "AM", 1, True, Meridiem], ids=repr)
    def test_display_state_rejects_meridiem(self, meridiem):
        with pytest.raises(ValueError, match="Meridiem or None expected"):
            DisplayState((0, 2, 1, 3, 1), meridiem)

    def test_display_state_rejects_negative_digits(self):
        with pytest.raises(ValueError):
            DisplayState([1, -1])

    # a type check, not coercion: True would decode as one lamp, and 0.5 lamps cannot be drawn
    @pytest.mark.parametrize("digit", [True, False, 0.5, 1.0, "1", None], ids=repr)
    def test_display_state_rejects_non_int_digits(self, digit):
        with pytest.raises(ValueError, match="digits must be non-negative integers"):
            DisplayState((digit, 0, 0, 0, 0), Meridiem.AM)

    # a type check, not coercion: an enum's value is not one of its members
    @pytest.mark.parametrize("kwargs", [
        {"format": "bits"}, {"format": None}, {"format": Layout.LEFT_ALIGNED},
        {"layout": "left"}, {"layout": None}, {"layout": RenderFormat.SVG},
        {"use_color": "no"}, {"use_color": 1}, {"use_color": None},
    ], ids=repr)
    def test_render_spec_rejects(self, kwargs):
        with pytest.raises(ValueError, match="expected, got"):
            RenderSpec(**kwargs)

    # the glyphs and lamp colors are constants of the face, not options
    @pytest.mark.parametrize("keyword", ["lit_glyph", "unlit_glyph", "am_color", "pm_color"])
    def test_render_spec_has_no_styling_keyword(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            RenderSpec(**{keyword: "red"})

    def test_render_spec_refuses_the_old_positional_form(self):
        with pytest.raises(ValueError, match="Layout expected, got '●'"):
            RenderSpec(RenderFormat.ANSI, "●")
        with pytest.raises(TypeError):
            RenderSpec(RenderFormat.ANSI, "●", "○", "green", "red", Layout.TRIANGLE_CENTERED, True)

    def test_render_spec_defaults(self):
        spec = RenderSpec(format=RenderFormat.SVG)
        assert spec.__slots__ == ("format", "layout", "use_color")
        assert spec.format is RenderFormat.SVG
        assert spec.layout is Layout.TRIANGLE_CENTERED and spec.use_color is True

    def test_plain_records_keep_their_arguments(self):
        report = ValidationReport(6, 720)
        assert (report.capacity_minutes, report.cycle_minutes) == (6, 720) and not report.ok
        assert ValidationReport(720, 720).ok and str(ValidationReport(1500, 1440)) == "ok"
        assert str(report) == "capacity shortfall: scheme covers 6 minutes but the cycle is 720"
        shape = SchemeShape((2, 1), ShapeClass.IRREGULAR, 3)
        assert (shape.lamp_counts, shape.classification, shape.total_lamps) == ((2, 1), ShapeClass.IRREGULAR, 3)


class _Tagged(_Record):
    __slots__ = ("name", "_note")

    def __init__(self, name, note=None):
        _set(self, "name", name)
        _set(self, "_note", note)


def test_private_slots_are_derived_data_not_fields():
    first, second = _Tagged("a", 1), _Tagged("a", 2)
    assert _Tagged._fields == ("name",)
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) == "_Tagged(name='a')"
    assert first.__reduce__() == (_Tagged, ("a",))
    assert copy.copy(first)._note is None and pickle.loads(pickle.dumps(first))._note is None


# Every lamp of the 04:49 state, AM, on the triangle: the paper's worked example
BITS_04_49 = "0/11/100/1110/10000"
TWELVE_HOUR_FIVES = make_scheme("x", [5, 5, 5, 5], 720)  # 1296 states on a 720-minute cycle


@pytest.mark.parametrize("build", [
    lambda: encode(TimeOfDay(289), TRIANGULAR),
    lambda: parse_bits(BITS_04_49, TRIANGULAR, Meridiem.AM),
], ids=["encode", "parse_bits"])
def test_checked_state_is_the_hand_built_value(build):
    state, by_hand = build(), DisplayState((0, 2, 1, 3, 1), Meridiem.AM)
    assert state == by_hand and by_hand == state and hash(state) == hash(by_hand)
    assert repr(state) == repr(by_hand)
    assert state.__reduce__() == by_hand.__reduce__()
    clones = [pickle.loads(pickle.dumps(state, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones + [copy.copy(state), copy.deepcopy(state)]:
        assert type(clone) is DisplayState and clone == by_hand and hash(clone) == hash(by_hand)
        assert clone._checked[0] is None  # a copy carries no check: it is checked again in full


@pytest.fixture
def full_checks(monkeypatch):
    """The number of full state checks so far: each ends in one call to _check_meridiem."""
    calls = []
    real = lampclock.codec._check_meridiem
    monkeypatch.setattr(lampclock.codec, "_check_meridiem", lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_state_is_checked_once_per_scheme_object(full_checks):
    scheme, equal = TWELVE_HOUR_FIVES, make_scheme("x", [5, 5, 5, 5], 720)
    assert scheme == equal and scheme is not equal
    state = encode(TimeOfDay(289), scheme)
    parsed = parse_bits(render(state, scheme, RenderSpec(RenderFormat.BITS)), scheme, Meridiem.AM)
    full_checks.clear()  # parse_bits checks its meridiem argument, which is no check of a built state
    for fmt in RenderFormat:
        render(state, scheme, RenderSpec(fmt))
        render(parsed, scheme, RenderSpec(fmt))
    assert decode(state, scheme) == decode(parsed, scheme) == TimeOfDay(289)
    assert full_checks == []
    assert decode(state, equal) == decode(parsed, equal) == TimeOfDay(289)
    assert decode(copy.copy(state), scheme) == TimeOfDay(289)
    assert render(pickle.loads(pickle.dumps(parsed)), scheme, RenderSpec(RenderFormat.BITS))
    assert len(full_checks) == 4


def test_a_hand_built_state_keeps_the_check_it_passed(full_checks):
    state = DisplayState((0, 2, 1, 3, 1), Meridiem.AM)
    doc = render(state, TRIANGULAR, RenderSpec(RenderFormat.JSON))
    assert doc == '{"scheme": "triangular", "digits": [0, 2, 1, 3, 1], "meridiem": "AM", "time": "04:49"}'
    assert len(full_checks) == 1  # at render's entry: the decode that reads the time reuses it
    assert decode(state, TRIANGULAR) == decode(state, TRIANGULAR) == TimeOfDay(289)
    assert len(full_checks) == 1 and state._checked == (TRIANGULAR, 289)


@pytest.mark.parametrize("check", [
    decode, lambda state, scheme: render(state, scheme, RenderSpec(RenderFormat.JSON)),
], ids=["decode", "render"])
def test_a_check_that_fails_is_not_kept(full_checks, check):
    state = DisplayState((0, 2, 1, 3, 1))  # the triangle's digits, without the AM/PM flag it needs
    for _ in range(2):
        with pytest.raises(InvalidStateError, match="an AM/PM flag is required"):
            check(state, TRIANGULAR)
    assert len(full_checks) == 2 and state._checked == (None, None)


@pytest.mark.parametrize("fmt", list(RenderFormat))
def test_a_state_encoded_for_one_scheme_does_not_fit_another(fmt):
    with pytest.raises(InvalidStateError) as info:
        render(encode(TimeOfDay(289), TRIANGULAR), BERLIN, RenderSpec(fmt, Layout.LEFT_ALIGNED))
    assert str(info.value) == "state has 5 digits, scheme 'berlin' has 4 rows"


@pytest.mark.parametrize("scheme, bits, meridiem, other, message", [
    (TWELVE_HOUR_FIVES, "11111/00000/00000/00000", Meridiem.AM, make_scheme("y", [4, 4, 11, 4], 720),
     "row 1 shows 5 lit lamps but only has 4"),
    (TWELVE_HOUR_FIVES, "00000/11111/00000/00000", Meridiem.AM, make_scheme("y", [5, 4, 5, 5], 720),
     "row 2 shows 5 lit lamps but only has 4"),
    (BERLIN, "0000/0000/00000000000/1000", None, make_scheme("y", [4, 4, 11, 4], 720),
     "scheme 'y' is a 12-hour face; an AM/PM flag is required"),
    (TWELVE_HOUR_FIVES, "00000/00000/00000/10000", Meridiem.PM, make_scheme("y", [5, 5, 5, 11], 1440),
     "scheme 'y' does not use an AM/PM flag"),
    (TRIANGULAR, BITS_04_49, Meridiem.AM, TWELVE_HOUR_FIVES, "state has 5 digits, scheme 'x' has 4 rows"),
])
def test_a_parsed_state_does_not_fit_another_scheme(scheme, bits, meridiem, other, message):
    state = parse_bits(bits, scheme, meridiem)
    with pytest.raises(InvalidStateError) as info:
        decode(state, other)
    assert str(info.value) == message


@pytest.mark.parametrize("scheme, bits, meridiem, message", [
    (BERLIN, "1111/1111/11111111111/1111", None, "state decodes to 1499 minutes, past the end of the day"),
    (TWELVE_HOUR_FIVES, "11111/11111/11111/11111", Meridiem.AM,
     "state shows 1295 minutes, outside the 720-minute cycle of scheme 'x'"),
    (TWELVE_HOUR_FIVES, "11111/11111/11111/11111", Meridiem.PM,
     "state decodes to 2015 minutes, past the end of the day"),
])
def test_a_parsed_surplus_state_is_still_no_time(scheme, bits, meridiem, message):
    state = parse_bits(bits, scheme, meridiem)
    with pytest.raises(InvalidStateError) as info:
        decode(state, scheme)
    assert str(info.value) == message
    assert render(state, scheme, RenderSpec(RenderFormat.JSON)).endswith('"time": null}')
