import json
import math
import time
from itertools import product

import pytest
from hypothesis import given
import hypothesis.strategies as st

from lampclock import (
    BERLIN,
    TRIANGULAR,
    DisplayState,
    InvalidSchemeError,
    InvalidStateError,
    Meridiem,
    RenderFormat,
    RenderSpec,
    RowScheme,
    RowSpec,
    TimeOfDay,
    ValidationReport,
    capacity,
    decode,
    derive_units,
    encode,
    make_scheme,
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
        short = RowScheme("short", (RowSpec(2, 4), RowSpec(3, 1)), 720)  # 12 states; validate reports it
        assert encode(TimeOfDay(11), short).digits == (2, 3)
        with pytest.raises(ValueError, match="time 01:40 is past the capacity of scheme 'short'"):
            encode(TimeOfDay(100), short)

    @given(lamp_count_lists, st.integers(1, 1440) | st.sampled_from([720, 1440]), st.integers(1, 3))
    def test_every_minute_encodes_to_a_showable_state_or_raises(self, lamps, cycle, base_unit):
        rows = tuple(RowSpec(n, unit) for n, unit in zip(lamps, derive_units(lamps)))
        scheme = RowScheme("any", rows, cycle, base_unit)  # short of its cycle, maybe
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
        assert all(d <= row.lamp_count for d, row in zip(state.digits, scheme.rows))

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
    ranges = [range(row.lamp_count + 1) for row in scheme.rows]
    meridiem = Meridiem.AM if scheme.has_meridiem else None
    sums, times = [], []
    for digits in product(*ranges):
        state = DisplayState(digits, meridiem)
        sums.append(sum(digit * row.unit_value for digit, row in zip(digits, scheme.rows)))
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


def test_all_on_is_capacity_minus_one():
    all_on = DisplayState((row.lamp_count for row in TRIANGULAR.rows), Meridiem.AM)
    assert decode(all_on, TRIANGULAR) == TimeOfDay.parse("11:59")
    assert decode(all_on, TRIANGULAR).minutes_since_midnight == capacity(TRIANGULAR) - 1


@given(valid_schemes())
def test_all_on_sum_property(scheme):
    all_on = DisplayState((row.lamp_count for row in scheme.rows), Meridiem.AM if scheme.has_meridiem else None)
    total = sum(row.lamp_count * row.unit_value for row in scheme.rows) * scheme.base_unit_minutes
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

    def test_recurrence_breach_rejected_at_construction(self):
        rows = tuple(
            RowSpec(lamps, unit)
            for lamps, unit in zip([1, 2, 3, 4, 5], [360, 100, 30, 6, 1])
        )
        # 360 != (2+1)*100 and 100 != (3+1)*30: the message gives the derived units
        with pytest.raises(InvalidSchemeError,
                           match=r"^scheme 'broken': .* give \[360, 120, 30, 6, 1\]$"):
            RowScheme("broken", rows, cycle_minutes=720)
        # a 2-lamp bottom row under a unit of 5 would encode 3 lit lamps on it
        with pytest.raises(InvalidSchemeError, match="scheme 'b'"):
            RowScheme("b", (RowSpec(1, 5), RowSpec(2, 1)), 6)

    def test_capacity_shortfall(self):
        scheme = RowScheme(
            "short", (RowSpec(1, 3), RowSpec(2, 1)), cycle_minutes=720
        )
        report = validate(scheme)
        assert report == ValidationReport(capacity_minutes=6, cycle_minutes=720) and not report.ok
        assert str(report) == "capacity shortfall: scheme covers 6 minutes but the cycle is 720"

    def test_non_unit_bottom_row_rejected_at_construction(self):
        with pytest.raises(InvalidSchemeError, match=r"^scheme 'scaled': .* give \[3, 1\]$"):
            RowScheme("scaled", (RowSpec(1, 6), RowSpec(2, 2)), cycle_minutes=6)

    @given(lamp_count_lists, st.integers(min_value=1, max_value=1440), st.data())
    def test_construction_owns_the_recurrence(self, counts, cycle, data):
        rows = [RowSpec(lamps, unit) for lamps, unit in zip(counts, derive_units(counts))]
        scheme = RowScheme("s", rows, cycle)
        assert validate(scheme) == ValidationReport(capacity(scheme), cycle)
        assert validate(scheme).ok == (capacity(scheme) >= cycle)
        k = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        unit = data.draw(st.integers(min_value=1).filter(lambda u: u != rows[k].unit_value))
        rows[k] = RowSpec(rows[k].lamp_count, unit)
        with pytest.raises(InvalidSchemeError, match="^scheme 's': "):
            RowScheme("s", rows, cycle)

    def test_surplus_capacity_is_legal(self):
        assert capacity(BERLIN) == 1500 > BERLIN.cycle_minutes
        assert validate(BERLIN).ok and str(validate(BERLIN)) == "ok"

    def test_capacity_counts_base_units_in_minutes(self):
        scheme = make_scheme("hourly", [3, 5], 1440, base_unit_minutes=60)
        assert validate(scheme) == ValidationReport(1440, 1440) and validate(scheme).ok


class TestConstruction:
    def test_rowspec_rejects_nonpositive(self):
        with pytest.raises(InvalidSchemeError):
            RowSpec(0, 1)
        with pytest.raises(InvalidSchemeError):
            RowSpec(1, 0)

    def test_scheme_rejects_empty_rows(self):
        with pytest.raises(InvalidSchemeError):
            RowScheme("empty", (), cycle_minutes=720)

    def test_scheme_rejects_nonpositive_cycle(self):
        with pytest.raises(InvalidSchemeError):
            RowScheme("bad", (RowSpec(1, 1),), cycle_minutes=0)

    def test_meridiem_only_on_half_day_cycles(self):
        assert TRIANGULAR.has_meridiem
        assert not BERLIN.has_meridiem
