"""Shared hypothesis strategies for generating schemes and times."""

from math import prod

import hypothesis.strategies as st

from lampclock import RowScheme, TimeOfDay, make_scheme

lamp_count_lists = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)


@st.composite
def valid_schemes(draw, base_unit: int = 1) -> RowScheme:
    lamps = draw(lamp_count_lists)
    cap_minutes = prod(c + 1 for c in lamps) * base_unit
    cycle = cap_minutes if cap_minutes <= 1440 else 1440
    return make_scheme("generated", lamps, cycle, base_unit)


@st.composite
def scheme_and_time(draw) -> tuple[RowScheme, TimeOfDay]:
    scheme = draw(valid_schemes())
    if scheme.cycle_minutes in (720, 1440):
        upper = 1439
    else:
        upper = scheme.cycle_minutes - 1
    return scheme, TimeOfDay(draw(st.integers(min_value=0, max_value=upper)))


@st.composite
def faces_of(draw, lamp_lists) -> RowScheme:
    """A face on lamp counts drawn from ``lamp_lists``: on a 720- or 1440-minute cycle where its
    capacity covers one, else on its capacity."""
    lamps = draw(lamp_lists)
    capacity = prod(c + 1 for c in lamps)
    return make_scheme("drawn", lamps, draw(st.sampled_from([c for c in (720, 1440) if c <= capacity] or [capacity])))
