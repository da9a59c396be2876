import copy
import json
import math
import pickle
import time
from itertools import product

import pytest
from hypothesis import given
import hypothesis.strategies as st

from lampclock import (
    BERLIN,
    TRIANGULAR,
    BitsParseError,
    DisplayState,
    InvalidSchemeError,
    InvalidStateError,
    Meridiem,
    MonotoneFillError,
    RenderFormat,
    RenderSpec,
    RowScheme,
    TimeOfDay,
    ValidationReport,
    capacity,
    decode,
    derive_units,
    encode,
    make_scheme,
    parse_bits,
    render,
    validate,
)
from strategies import lamp_count_lists, scheme_and_time, valid_schemes

JSON = RenderSpec(format=RenderFormat.JSON)


class TestTimeOfDay:
    def test_parse_and_format(self):
        t = TimeOfDay.parse("04:49")
        assert t.minutes_since_midnight == 289
        assert str(t) == "04:49"

    def test_parse_single_digit_hour(self):
        assert TimeOfDay.parse("4:49").minutes_since_midnight == 289

    def test_seconds_truncated(self):
        assert TimeOfDay.parse("10:31:59").minutes_since_midnight == 631

    @pytest.mark.parametrize("bad", ["24:00", "12:60", "xx:yy", "12", "-1:00", "1:2:3:4", "",
                                     "04:49:99", "04:49:60", "\u0660\u0664:\u0664\u0669"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            TimeOfDay.parse(bad)

    @pytest.mark.parametrize("bad", [449, 4.49, None, b"04:49", ["04", "49"], TimeOfDay(289)], ids=repr)
    def test_parse_rejects_non_strings(self, bad):
        with pytest.raises(ValueError, match="not a valid HH:MM time"):
            TimeOfDay.parse(bad)

    # Python's int() refuses a string of over 4,300 digits; a field's leading zeros are no part of its value
    @pytest.mark.parametrize("text", ["0004:49", "04:49:0000059", "04:49:" + "0" * 5000, "0" * 4999 + "04:49",
                                      "04:" + "0" * 4999 + "49", "0" * 5000 + "4:" + "0" * 5000 + "49:" + "0" * 5000],
                             ids=["hour", "second", "second-5000", "hour-5001", "minute-5001", "each-5000"])
    def test_parse_drops_leading_zeros_of_any_length(self, text):
        assert TimeOfDay.parse(text) == TimeOfDay(289)

    @pytest.mark.parametrize("text, message", [
        ("1" * 5000 + ":00", "hour out of range [0, 24): " + "1" * 20 + "... (5000 digits)"),
        ("0" * 5000 + "24:00", "hour out of range [0, 24): 24"),
        ("04:" + "9" * 5000, "minute out of range [0, 60): " + "9" * 20 + "... (5000 digits)"),
        ("04:49:" + "0" * 5000 + "60", "second out of range [0, 60): 60"),
        ("04:49:" + "1" * 10**6, "second out of range [0, 60): " + "1" * 20 + "... (1000000 digits)"),
        ("04:49:060", "second out of range [0, 60): 60"),
    ], ids=["hour", "hour-5002", "minute", "second-5002", "second-10**6", "second-3"])
    def test_parse_rejects_long_fields_as_out_of_range(self, text, message):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            TimeOfDay.parse(text)
        assert time.perf_counter() - start < 1
        assert str(info.value) == message

    @pytest.mark.parametrize("minutes", [-1, 1440, 10_000])
    def test_range_enforced(self, minutes):
        with pytest.raises(ValueError):
            TimeOfDay(minutes)


class TestDeriveUnits:
    def test_triangular_row_values(self):
        # 6h / 2h / 30min / 6min / 1min
        assert derive_units([1, 2, 3, 4, 5]) == [360, 120, 30, 6, 1]

    def test_berlin_row_values(self):
        # 5h / 1h / 5min / 1min
        assert derive_units([4, 4, 11, 4]) == [300, 60, 5, 1]

    def test_single_row_is_base_unit(self):
        assert derive_units([3]) == [1]

    def test_empty_rejected(self):
        with pytest.raises(InvalidSchemeError):
            derive_units([])

    @pytest.mark.parametrize("counts", [[0], [1, 0, 2], [-3]])
    def test_nonpositive_lamp_count_rejected(self, counts):
        with pytest.raises(InvalidSchemeError):
            derive_units(counts)

    @pytest.mark.parametrize("counts", [["a"], [None], [1, "3"], [2.0], [True]], ids=repr)
    def test_non_integer_lamp_count_rejected(self, counts):
        with pytest.raises(InvalidSchemeError, match="positive integer lamp count"):
            derive_units(counts)
        with pytest.raises(InvalidSchemeError, match="scheme 'x'"):
            make_scheme("x", counts, 6)

    def test_capacity_below_2_to_the_64(self):
        assert derive_units([1] * 63)[0] == 2**62  # 2**63 states
        with pytest.raises(InvalidSchemeError, match=r"2\*\*64.*rows 1 to 64"):
            derive_units([1] * 64)  # 2**64 states
        with pytest.raises(InvalidSchemeError, match=r"rows 1 to 2"):
            derive_units([2**32, 2**32 - 1])

    def test_many_rows_fail_fast(self):
        start = time.perf_counter()
        with pytest.raises(InvalidSchemeError, match=r"2\*\*64"):
            make_scheme("wide", [1440] * 50_000, 720)
        assert time.perf_counter() - start < 1

    @given(lamp_count_lists)
    def test_recurrence_holds(self, counts):
        units = derive_units(counts)
        assert len(units) == len(counts)
        assert units[-1] == 1
        for k in range(1, len(units)):
            assert units[k - 1] == (counts[k] + 1) * units[k]


class TestCapacity:
    def test_builtins(self):
        assert capacity(TRIANGULAR) == 720
        assert capacity(BERLIN) == 1500  # 5 * 5 * 12 * 5

    def test_single_lamp(self):
        assert capacity(make_scheme("one", [1], cycle_minutes=2)) == 2

    def test_largest(self):
        assert capacity(make_scheme("deep", [1] * 63, cycle_minutes=720)) == 2**63

    @pytest.mark.parametrize("n", range(1, 8))
    def test_factorial_law_for_triangles(self, n):
        scheme = make_scheme(f"tri{n}", list(range(1, n + 1)), cycle_minutes=math.factorial(n + 1))
        assert capacity(scheme) == math.factorial(n + 1)


# Digit vectors confirmed against the exhaustive-search oracle in
# oracles.exhaustive_digits (see test_acceptance for the live cross-check).
TRIANGULAR_CASES = [
    ("00:00", (0, 0, 0, 0, 0), Meridiem.AM),
    ("04:49", (0, 2, 1, 3, 1), Meridiem.AM),
    ("08:05", (1, 1, 0, 0, 5), Meridiem.AM),
    ("10:31", (1, 2, 1, 0, 1), Meridiem.AM),
    ("11:11", (1, 2, 2, 1, 5), Meridiem.AM),
    ("11:59", (1, 2, 3, 4, 5), Meridiem.AM),
    ("16:49", (0, 2, 1, 3, 1), Meridiem.PM),
    ("23:59", (1, 2, 3, 4, 5), Meridiem.PM),
]


class TestEncode:
    @pytest.mark.parametrize("text,digits,meridiem", TRIANGULAR_CASES)
    def test_triangular(self, text, digits, meridiem):
        state = encode(TimeOfDay.parse(text), TRIANGULAR)
        assert state.digits == digits
        assert state.meridiem is meridiem

    def test_berlin_10_31(self):
        state = encode(TimeOfDay.parse("10:31"), BERLIN)
        assert state.digits == (2, 0, 6, 1)
        assert state.meridiem is None

    def test_time_beyond_short_cycle_rejected(self):
        hour_face = make_scheme("hour", [1, 2, 3, 4], cycle_minutes=120)
        with pytest.raises(ValueError):
            encode(TimeOfDay(120), hour_face)

    def test_time_past_a_short_schemes_capacity_rejected(self):
        short = RowScheme("short", (2, 3), 720)  # 12 states; validate reports it
        assert encode(TimeOfDay(11), short).digits == (2, 3)
        with pytest.raises(ValueError, match="time 01:40 is past the capacity of scheme 'short'"):
            encode(TimeOfDay(100), short)

    @given(lamp_count_lists, st.integers(1, 1440) | st.sampled_from([720, 1440]), st.integers(1, 3))
    def test_every_minute_encodes_to_a_showable_state_or_raises(self, lamps, cycle, base_unit):
        scheme = RowScheme("any", lamps, cycle, base_unit)  # short of its cycle, maybe
        bits = RenderSpec(format=RenderFormat.BITS)
        for minutes in range(1440):
            shown = minutes % 720 if scheme.has_meridiem else minutes
            try:
                state = encode(TimeOfDay(minutes), scheme)
            except ValueError:
                assert shown >= cycle or shown // base_unit >= capacity(scheme)
                continue
            render(state, scheme, bits)  # raises InvalidStateError for a state the face cannot show
            time = decode(state, scheme)  # which raises for a surplus state: encode shows none
            assert time.minutes_since_midnight == minutes - shown + shown // base_unit * base_unit

    def test_sub_unit_remainder_truncates(self):
        coarse = make_scheme("coarse", [4, 4, 11], cycle_minutes=1440, base_unit_minutes=5)
        state = encode(TimeOfDay.parse("10:31"), coarse)
        assert decode(state, coarse).minutes_since_midnight == 630

    @given(scheme_and_time())
    def test_digits_never_exceed_lamp_counts(self, pair):
        scheme, t = pair
        state = encode(t, scheme)
        assert all(d <= lamps for d, lamps in zip(state.digits, scheme.lamp_counts))

    @given(scheme_and_time())
    def test_round_trip_any_scheme(self, pair):
        scheme, t = pair
        assert decode(encode(t, scheme), scheme) == t


class TestDecode:
    def test_summing_table(self):
        state = DisplayState((0, 2, 1, 3, 1), Meridiem.AM)
        assert decode(state, TRIANGULAR) == TimeOfDay.parse("04:49")

    def test_pm_offset_only(self):
        state = DisplayState((0, 0, 0, 0, 0), Meridiem.PM)
        assert decode(state, TRIANGULAR) == TimeOfDay.parse("12:00")

    def test_berlin(self):
        assert decode(DisplayState((2, 0, 6, 1)), BERLIN) == TimeOfDay.parse("10:31")

    def test_digit_over_lamp_count_rejected(self):
        with pytest.raises(InvalidStateError):
            decode(DisplayState((2, 0, 0, 0, 0), Meridiem.AM), TRIANGULAR)

    def test_over_full_row_is_named_after_a_row_with_the_same_digit(self):
        # rows 3 and 4 both show 5 lamps; only row 4, of 4 lamps, is over-full
        with pytest.raises(InvalidStateError) as info:
            decode(DisplayState((0, 0, 5, 5)), BERLIN)
        assert str(info.value) == "row 4 shows 5 lit lamps but only has 4"

    # Berlin's bottom row has 4 lamps, as its first two rows do: the error names it by its place
    @pytest.mark.parametrize("check", [
        decode, *(lambda state, scheme, fmt=fmt: render(state, scheme, RenderSpec(fmt)) for fmt in RenderFormat),
    ], ids=["decode", *(f"render-{fmt.value}" for fmt in RenderFormat)])
    def test_over_full_bottom_row_of_berlin_is_row_4(self, check):
        with pytest.raises(InvalidStateError) as info:
            check(DisplayState((0, 0, 0, 5)), BERLIN)
        assert str(info.value) == "row 4 shows 5 lit lamps but only has 4"

    def test_wrong_digit_count_rejected(self):
        with pytest.raises(InvalidStateError):
            decode(DisplayState((0, 0, 0), Meridiem.AM), TRIANGULAR)

    def test_missing_meridiem_rejected(self):
        with pytest.raises(InvalidStateError):
            decode(DisplayState((0, 0, 0, 0, 0)), TRIANGULAR)

    def test_unexpected_meridiem_rejected(self):
        with pytest.raises(InvalidStateError):
            decode(DisplayState((0, 0, 0, 0), Meridiem.AM), BERLIN)

    def test_negative_digits_unrepresentable(self):
        with pytest.raises(ValueError):
            DisplayState((-1, 0, 0, 0, 0), Meridiem.AM)


@pytest.mark.parametrize("scheme", [TRIANGULAR, BERLIN], ids=lambda s: s.name)
def test_round_trip_every_minute(scheme):
    for minutes in range(1440):
        t = TimeOfDay(minutes)
        assert decode(encode(t, scheme), scheme) == t


@pytest.mark.parametrize("scheme", [TRIANGULAR, BERLIN], ids=lambda s: s.name)
def test_decode_injective_over_all_states(scheme):
    # the weighted digit sums number the states 0 to capacity - 1; decode reads every sum inside
    # the cycle off its own state, and refuses the rest (Berlin's 60 surplus states)
    ranges = [range(lamps + 1) for lamps in scheme.lamp_counts]
    units = derive_units(scheme.lamp_counts)
    meridiem = Meridiem.AM if scheme.has_meridiem else None
    sums, times = [], []
    for digits in product(*ranges):
        state = DisplayState(digits, meridiem)
        sums.append(sum(digit * unit for digit, unit in zip(digits, units)))
        if sums[-1] < scheme.cycle_minutes:
            times.append(decode(state, scheme).minutes_since_midnight)
        else:
            with pytest.raises(InvalidStateError):
                decode(state, scheme)
    assert sorted(sums) == list(range(capacity(scheme)))
    assert sorted(times) == list(range(scheme.cycle_minutes))


def test_berlin_surplus_states_are_not_times():
    # 1500 displayable states but only 1440 minutes in a day: the all-on
    # state reads 24:59 and cannot be a TimeOfDay
    all_on = DisplayState((4, 4, 11, 4))
    with pytest.raises(InvalidStateError, match="^state decodes to 1499 minutes, past the end of the day$"):
        decode(all_on, BERLIN)
    assert json.loads(render(all_on, BERLIN, JSON))["time"] is None


class TestDecodeOutsideTheCycle:
    """A face whose capacity exceeds its cycle shows surplus states, which encode never shows."""

    def test_state_past_a_12_hour_cycle(self):
        scheme = make_scheme("x", [5, 5, 5, 5], 720)  # 1296 states on a 720-minute cycle
        all_on = DisplayState((5, 5, 5, 5), Meridiem.AM)  # 21:35, no morning time
        with pytest.raises(InvalidStateError) as info:
            decode(all_on, scheme)
        assert str(info.value) == "state shows 1295 minutes, outside the 720-minute cycle of scheme 'x'"
        assert json.loads(render(all_on, scheme, JSON))["time"] is None
        with pytest.raises(InvalidStateError) as info:  # past the day too: that message comes first
            decode(DisplayState((5, 5, 5, 5), Meridiem.PM), scheme)
        assert str(info.value) == "state decodes to 2015 minutes, past the end of the day"

    def test_state_past_a_1000_minute_cycle(self):
        scheme = make_scheme("x", [5, 5, 5, 5], 1000)
        state = DisplayState((5, 1, 0, 0))  # 5 * 216 + 36 == 1116, 18:36
        with pytest.raises(ValueError, match="outside the 1000-minute cycle"):
            encode(TimeOfDay(1116), scheme)
        with pytest.raises(InvalidStateError, match="^state shows 1116 minutes, outside the 1000-minute cycle"):
            decode(state, scheme)
        assert json.loads(render(state, scheme, JSON))["time"] is None
        assert decode(DisplayState((4, 3, 4, 3)), scheme) == TimeOfDay(999)  # the cycle's last minute

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
           st.sampled_from([1, 2, 7, 60]), st.data())
    def test_decode_accepts_exactly_the_states_encode_shows(self, lamps, base_unit, data):
        cap = math.prod(c + 1 for c in lamps) * base_unit  # any cycle up to the capacity is valid
        faces = st.sampled_from([c for c in (720, 1440, cap) if c <= cap])
        cycle = data.draw(faces | st.integers(1, min(cap, 2000)))
        scheme = make_scheme("s", lamps, cycle, base_unit)
        shown = set()
        for minutes in range(1440):
            try:
                shown.add(encode(TimeOfDay(minutes), scheme))
            except ValueError:  # outside the cycle
                pass
        accepted = set()
        for digits in product(*(range(c + 1) for c in lamps)):
            for meridiem in ((Meridiem.AM, Meridiem.PM) if cycle == 720 else (None,)):
                state = DisplayState(digits, meridiem)
                try:
                    time = decode(state, scheme)
                except InvalidStateError:
                    continue
                assert encode(time, scheme) == state
                accepted.add(state)
        assert accepted == shown


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

    # Berlin's rows 1, 2 and 4 each have 4 lamps: a row is named by its place, not found by its width
    def test_berlin_rows_are_named_by_place(self):
        with pytest.raises(MonotoneFillError) as exc_info:
            parse_bits("0000/0100/00000000000/0000", BERLIN)
        assert exc_info.value.row == 2 and "row 2 " in str(exc_info.value)
        with pytest.raises(BitsParseError, match="^row 4 must have 4 bits, got 5$"):
            parse_bits("0000/0000/00000000000/00000", BERLIN)

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
    lamp_counts = scheme.lamp_counts
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


def test_all_on_is_capacity_minus_one():
    all_on = DisplayState(TRIANGULAR.lamp_counts, Meridiem.AM)
    assert decode(all_on, TRIANGULAR) == TimeOfDay.parse("11:59")
    assert decode(all_on, TRIANGULAR).minutes_since_midnight == capacity(TRIANGULAR) - 1


@given(valid_schemes())
def test_all_on_sum_property(scheme):
    lamp_counts = scheme.lamp_counts
    all_on = DisplayState(lamp_counts, Meridiem.AM if scheme.has_meridiem else None)
    total = sum(lamps * unit for lamps, unit in zip(lamp_counts, derive_units(lamp_counts))) * scheme.base_unit_minutes
    assert total == (capacity(scheme) - 1) * scheme.base_unit_minutes
    if total < scheme.cycle_minutes:
        assert decode(all_on, scheme).minutes_since_midnight == total
    else:  # a surplus state, on a face of more states than its cycle has minutes
        with pytest.raises(InvalidStateError):
            decode(all_on, scheme)


class TestValidate:
    def test_builtins_are_ok(self):
        assert validate(TRIANGULAR).ok
        assert validate(BERLIN).ok
        assert str(validate(BERLIN)) == "ok"

    def test_capacity_shortfall(self):
        scheme = RowScheme("short", (1, 2), cycle_minutes=720)
        report = validate(scheme)
        assert report == ValidationReport(capacity_minutes=6, cycle_minutes=720) and not report.ok
        assert str(report) == "capacity shortfall: scheme covers 6 minutes but the cycle is 720"

    @given(lamp_count_lists, st.integers(min_value=1, max_value=1440))
    def test_construction_owns_the_recurrence(self, counts, cycle):
        scheme = RowScheme("s", counts, cycle)
        assert scheme._units == tuple(derive_units(counts))
        assert capacity(scheme) == math.prod(lamps + 1 for lamps in counts)
        assert validate(scheme) == ValidationReport(capacity(scheme), cycle)
        assert validate(scheme).ok == (capacity(scheme) >= cycle)

    # a scheme is its lamp counts: its units are derived, never pickled, and derived again on unpickling
    @given(lamp_count_lists, st.integers(1, 1440) | st.sampled_from([720, 1440]), st.integers(0, 1439))
    def test_a_scheme_is_its_lamp_counts(self, counts, cycle, minutes):
        scheme = RowScheme("s", counts, cycle)
        assert scheme._units == tuple(derive_units(counts))
        if validate(scheme).ok:
            assert make_scheme("s", counts, cycle) == scheme
        try:
            shown = encode(TimeOfDay(minutes), scheme)
        except ValueError as exc:
            shown = str(exc)
        for clone in (pickle.loads(pickle.dumps(scheme)), copy.deepcopy(scheme)):
            assert clone == scheme and clone is not scheme and clone._units == scheme._units
            try:
                assert encode(TimeOfDay(minutes), clone) == shown
            except ValueError as exc:
                assert str(exc) == shown

    def test_surplus_capacity_is_legal(self):
        assert capacity(BERLIN) == 1500 > BERLIN.cycle_minutes
        assert validate(BERLIN).ok and str(validate(BERLIN)) == "ok"

    def test_capacity_counts_base_units_in_minutes(self):
        scheme = make_scheme("hourly", [3, 5], 1440, base_unit_minutes=60)
        assert validate(scheme) == ValidationReport(1440, 1440) and validate(scheme).ok


class TestConstruction:
    def test_scheme_rejects_empty_rows(self):
        with pytest.raises(InvalidSchemeError):
            RowScheme("empty", (), cycle_minutes=720)

    def test_scheme_rejects_nonpositive_cycle(self):
        with pytest.raises(InvalidSchemeError):
            RowScheme("bad", (1,), cycle_minutes=0)

    def test_meridiem_only_on_half_day_cycles(self):
        assert TRIANGULAR.has_meridiem
        assert not BERLIN.has_meridiem
