"""Acceptance suite: one test per criterion, checked at stated tolerances.

Every expected digit vector here is cross-checked in-test against the
exhaustive-search oracle (oracles.exhaustive_digits), which certifies
both the value and its uniqueness among all displayable states.
"""

import math
import random
import time
from itertools import product

import pytest

from lampclock import (
    BERLIN,
    TRIANGULAR,
    DisplayState,
    Meridiem,
    MonotoneFillError,
    RenderFormat,
    RenderSpec,
    TimeOfDay,
    capacity,
    decode,
    encode,
    enumerate_shapes,
    is_triangular_feasible,
    make_scheme,
    parse_bits,
    render,
)
from oracles import exhaustive_digits, ordered_factorization_count

BITS = RenderSpec(format=RenderFormat.BITS)

TRI_LAMPS = [1, 2, 3, 4, 5]
TRI_UNITS = [360, 120, 30, 6, 1]
BER_LAMPS = [4, 4, 11, 4]
BER_UNITS = [300, 60, 5, 1]


def best_of(runs, fn):
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_worked_example_4_49():
    t = TimeOfDay.parse("04:49")
    state = encode(t, TRIANGULAR)
    assert state.digits == (0, 2, 1, 3, 1)
    assert state.digits == exhaustive_digits(289, TRI_LAMPS, TRI_UNITS)
    assert state.meridiem is Meridiem.AM
    back = decode(state, TRIANGULAR)
    assert back.minutes_since_midnight == 4 * 60 + 49
    assert best_of(20, lambda: decode(encode(t, TRIANGULAR), TRIANGULAR)) < 0.001


def test_criterion_2_all_lamps_on_is_11_59():
    all_on = DisplayState((1, 2, 3, 4, 5), Meridiem.AM)
    t = decode(all_on, TRIANGULAR)
    assert t.minutes_since_midnight == 11 * 60 + 59
    assert best_of(20, lambda: decode(all_on, TRIANGULAR)) < 0.001


@pytest.mark.parametrize(
    "text,scheme,lamps,units,expected",
    [
        ("08:05", TRIANGULAR, TRI_LAMPS, TRI_UNITS, (1, 1, 0, 0, 5)),
        ("10:31", TRIANGULAR, TRI_LAMPS, TRI_UNITS, (1, 2, 1, 0, 1)),
        ("11:11", TRIANGULAR, TRI_LAMPS, TRI_UNITS, (1, 2, 2, 1, 5)),
        ("10:31", BERLIN, BER_LAMPS, BER_UNITS, (2, 0, 6, 1)),
    ],
)
def test_criterion_3_figure_cross_checks(text, scheme, lamps, units, expected):
    t = TimeOfDay.parse(text)
    state = encode(t, scheme)
    assert state.digits == expected
    assert state.digits == exhaustive_digits(t.minutes_since_midnight, lamps, units)


def test_criterion_4_capacity_is_factorial():
    for n in range(1, 8):
        scheme = make_scheme(
            f"tri{n}", list(range(1, n + 1)), cycle_minutes=math.factorial(n + 1)
        )
        assert capacity(scheme) == math.factorial(n + 1)
    assert capacity(TRIANGULAR) == 720 == 12 * 60


def test_criterion_5_round_trip_exhaustion():
    start = time.perf_counter()

    for scheme in (TRIANGULAR, BERLIN):
        for minutes in range(1440):
            t = TimeOfDay(minutes)
            assert decode(encode(t, scheme), scheme) == t

    state_count = 0
    for scheme in (TRIANGULAR, BERLIN):
        meridiem = Meridiem.AM if scheme.has_meridiem else None
        ranges = [range(row.lamp_count + 1) for row in scheme.rows]
        for digits in product(*ranges):
            state = DisplayState(digits, meridiem)
            assert parse_bits(render(state, scheme, BITS), scheme, meridiem) == state
            state_count += 1
    assert state_count == 720 + 1500

    assert time.perf_counter() - start < 1.0


def test_criterion_6_triangular_feasibility():
    assert is_triangular_feasible(720) == 5
    assert is_triangular_feasible(1000) is None


def test_criterion_7_enumeration_matches_oracle():
    start = time.perf_counter()
    for n in range(2, 201):
        assert len(enumerate_shapes(n)) == ordered_factorization_count(n), f"N={n}"
    assert time.perf_counter() - start < 5.0


def test_criterion_8_monotone_fill_randomized():
    rng = random.Random(20260808)
    ansi = RenderSpec(use_color=False)
    cases = 10_000
    for _ in range(cases):
        lamps = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        cap = math.prod(c + 1 for c in lamps)
        cycle = cap if cap <= 1440 else 1440
        scheme = make_scheme("random", lamps, cycle)
        upper = 1439 if cycle in (720, 1440) else cycle - 1
        t = TimeOfDay(rng.randint(0, upper))
        state = encode(t, scheme)

        bit_rows = render(state, scheme, BITS).split("/")
        assert all("01" not in row for row in bit_rows)
        for line in render(state, scheme, ansi).splitlines():
            assert "○ ●" not in line and "○●" not in line

        # every gapped variant of a row must be rejected, citing its row
        gappable = [k for k, row in enumerate(bit_rows) if len(row) >= 2]
        if gappable:
            k = rng.choice(gappable)
            row = bit_rows[k]
            pos = rng.randint(0, len(row) - 2)
            gapped = bit_rows.copy()
            gapped[k] = row[:pos] + "01" + row[pos + 2 :]
            with pytest.raises(MonotoneFillError) as exc_info:
                parse_bits("/".join(gapped), scheme, state.meridiem)
            assert exc_info.value.row == k + 1
