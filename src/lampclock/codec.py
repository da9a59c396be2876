"""Clock schemes as mixed-radix numeral systems.

A lamp-row clock is a positional numeral system in disguise: each row of
lamps is one digit, the digit's value is the number of lit lamps, and the
digit's base is ``lamp_count + 1`` (all off through all on). Row units are
locked together by a recurrence: one lamp in a row is worth one more than
a full row below it, i.e. ``unit[k-1] = (lamp_count[k] + 1) * unit[k]``.
Encoding a time is therefore plain greedy division by place values, and
decoding is the weighted digit sum.

Schemes whose cycle is 720 minutes cover a 12-hour face and carry an
AM/PM meridiem flag on their display states; 1440-minute schemes cover
the full day on the lamps alone.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Iterable

from .errors import InvalidSchemeError, InvalidStateError

MINUTES_PER_DAY = 1440
HALF_DAY = 720

MAX_LAMPS_PER_ROW = 1440  # one-minute lamps enough for a day; RowSpec bounds every row by it
MAX_CAPACITY = 2**64  # a scheme shows fewer states, so it has at most 64 rows and 64-bit units
DEFAULT_SHAPE_LIMIT = 100_000
MAX_SHAPE_LIMIT = 1_000_000  # larger enumeration limits are lowered to this, bounding memory

_set = object.__setattr__  # how a _Record's __init__ fills its fields


class _Record:
    """Immutable value whose fields are its ``__slots__`` in constructor order, but for derived data
    in slots named ``_x``: equality and hashing over the field tuple, a dataclass-style repr, and
    pickling and copying through the constructor."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Meridiem(Enum):
    AM = "AM"
    PM = "PM"


class RowSpec(_Record):
    """One row of lamps: how many there are and what each is worth.

    ``unit_value`` is expressed in the scheme's base units; in a
    :class:`RowScheme` the bottom row always has ``unit_value == 1``.
    """

    __slots__ = ("lamp_count", "unit_value")

    def __init__(self, lamp_count: int, unit_value: int):
        # type() rather than isinstance(), here and in RowScheme: bool is an int subclass
        if type(lamp_count) is not int or not 1 <= lamp_count <= MAX_LAMPS_PER_ROW:
            raise InvalidSchemeError(
                f"lamp count must be a positive integer, at most {MAX_LAMPS_PER_ROW}, got {lamp_count!r}")
        if type(unit_value) is not int or unit_value < 1:
            raise InvalidSchemeError(f"unit value must be a positive integer, got {unit_value!r}")
        _set(self, "lamp_count", lamp_count)
        _set(self, "unit_value", unit_value)


class RowScheme(_Record):
    """An ordered stack of lamp rows, top row first.

    Construction checks the fields (a non-empty name, non-empty rows,
    positive cycle and base unit), then that the rows' unit values are the
    ones :func:`derive_units` gives their lamp counts, which also bounds
    the capacity below ``MAX_CAPACITY``. Whether the capacity covers
    ``cycle_minutes`` is left to :func:`validate`, so that a scheme short
    of its cycle can be represented and reported on.
    """

    __slots__ = ("name", "rows", "cycle_minutes", "base_unit_minutes")

    def __init__(self, name: str, rows: Iterable[RowSpec], cycle_minutes: int,
                 base_unit_minutes: int = 1):
        if not isinstance(name, str) or not name:
            raise InvalidSchemeError(f"scheme name must be a non-empty string, got {name!r}")
        rows = tuple(rows)
        if not rows:
            raise InvalidSchemeError(f"scheme {name!r} needs at least one row")
        if type(cycle_minutes) is not int or cycle_minutes < 1:
            raise InvalidSchemeError(f"scheme {name!r}: cycle_minutes must be a positive integer")
        if type(base_unit_minutes) is not int or base_unit_minutes < 1:
            raise InvalidSchemeError(f"scheme {name!r}: base_unit_minutes must be a positive integer")
        for row in rows:
            if type(row) is not RowSpec:
                raise InvalidSchemeError(f"scheme {name!r}: every row must be a RowSpec, got {row!r}")
        try:
            units = derive_units([row.lamp_count for row in rows])
        except InvalidSchemeError as exc:
            raise InvalidSchemeError(f"scheme {name!r}: {exc}") from exc
        if [row.unit_value for row in rows] != units:
            raise InvalidSchemeError(
                f"scheme {name!r}: unit values {[row.unit_value for row in rows]} break the unit "
                f"recurrence; lamp counts {[row.lamp_count for row in rows]} give {units}")
        _set(self, "name", name)
        _set(self, "rows", rows)
        _set(self, "cycle_minutes", cycle_minutes)
        _set(self, "base_unit_minutes", base_unit_minutes)

    @property
    def has_meridiem(self) -> bool:
        """True when states of this scheme carry an AM/PM flag."""
        return self.cycle_minutes == HALF_DAY


class TimeOfDay(_Record):
    """A wall-clock time at one-minute resolution."""

    __slots__ = ("minutes_since_midnight",)

    def __init__(self, minutes_since_midnight: int):
        if type(minutes_since_midnight) is not int or not 0 <= minutes_since_midnight < MINUTES_PER_DAY:
            raise ValueError(f"minutes_since_midnight not an integer in [0, 1440): {minutes_since_midnight!r}")
        _set_minutes(self, minutes_since_midnight)

    @classmethod
    def parse(cls, text: str) -> "TimeOfDay":
        """Parse ``HH:MM`` or ``HH:MM:SS`` in ASCII digits; seconds, which
        must lie in 0..59, are truncated."""
        parts = text.strip().split(":")
        if len(parts) not in (2, 3) or not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(f"not a valid HH:MM time: {text!r}")
        if len(parts) == 3 and int(parts[2]) >= 60:
            raise ValueError(f"second out of range [0, 60): {parts[2]}")
        hour, minute = int(parts[0]), int(parts[1])  # digits only, so never negative
        if hour >= 24:
            raise ValueError(f"hour out of range [0, 24): {hour}")
        if minute >= 60:
            raise ValueError(f"minute out of range [0, 60): {minute}")
        return cls(hour * 60 + minute)

    def __str__(self) -> str:  # HH:MM, the JSON render's time too: one read of the minutes, no properties
        return "%02d:%02d" % divmod(self.minutes_since_midnight, 60)


class DisplayState(_Record):
    """Lit-lamp counts per row, top row first, plus optional meridiem.

    Digits are counts, not bit patterns: a digit of 3 means the three
    leftmost lamps of the row are lit. Gapped lamp patterns therefore
    cannot be represented at all.
    """

    __slots__ = ("digits", "meridiem", "_scheme", "_units")  # the last two derived, by _state

    def __init__(self, digits: Iterable[int], meridiem: Meridiem | None = None):
        digits = tuple(digits)
        for digit in digits:
            if type(digit) is not int or digit < 0:  # type(): a bool or float digit is no lamp count
                raise ValueError(f"digits must be non-negative integers: {digits}")
        if meridiem is not None and not isinstance(meridiem, Meridiem):
            raise ValueError(f"Meridiem or None expected, got {meridiem!r}")
        _set_digits(self, digits)
        _set_meridiem(self, meridiem)
        _set_scheme(self, None)  # checked against no scheme yet


# Module names for the hot paths: the slots' own setters, which cost less than object.__setattr__
# (as in schemes.SchemeShape), and the meridiems. The rule in codec and render: a hot path reads an
# enum member through a module name (~20 ns), never through its class (~147 ns a read, Python 3.11).
_set_minutes = TimeOfDay.minutes_since_midnight.__set__
_set_digits, _set_meridiem, _set_scheme, _set_units = (
    getattr(DisplayState, name).__set__ for name in DisplayState.__slots__)
_AM, _PM = Meridiem.AM, Meridiem.PM
_new = object.__new__


def _state(digits: tuple[int, ...], meridiem: Meridiem | None, scheme: RowScheme, units: int) -> DisplayState:
    """A state its caller checked against ``scheme``, where it shows ``units`` base units: no check."""
    state = _new(DisplayState)
    _set_digits(state, digits)
    _set_meridiem(state, meridiem)
    _set_scheme(state, scheme)
    _set_units(state, units)
    return state


def derive_units(lamp_counts: list[int] | tuple[int, ...]) -> list[int]:
    """Compute per-row unit values from lamp counts, top row first.

    The bottom row is worth one base unit; every row above is worth
    ``(lamps_below + 1)`` times the row below it, which makes each row's
    full value exactly one unit short of a single lamp one row up.

    The capacity, the product of every ``lamps + 1``, must be below
    ``MAX_CAPACITY``. It is checked as each row is added, bottom up.
    """
    counts = list(lamp_counts)
    if not counts:
        raise InvalidSchemeError("lamp_counts must not be empty")
    if any(type(c) is not int or c < 1 for c in counts):  # type(): bool is an int subclass
        raise InvalidSchemeError(f"every row needs a positive integer lamp count: {counts}")

    units, states = [], 1
    for row, lamps in zip(range(len(counts), 0, -1), reversed(counts)):
        units.append(states)
        states *= lamps + 1
        if states >= MAX_CAPACITY:
            raise InvalidSchemeError(
                f"capacity must be below 2**64 states; rows {row} to {len(counts)} already exceed it")
    units.reverse()
    return units


def capacity(scheme: RowScheme) -> int:
    """Number of distinct states the scheme can display."""
    top = scheme.rows[0]  # RowScheme holds the unit recurrence, so the top row's unit is the rest's product
    return top.unit_value * (top.lamp_count + 1)


def encode(time: TimeOfDay, scheme: RowScheme) -> DisplayState:
    """Encode a time as lit-lamp counts by greedy division.

    For a 720-minute scheme the value shown is ``minutes mod 720`` and the
    state carries an AM/PM flag; a 1440-minute scheme shows the full day
    value with no flag. Any remainder finer than the base unit is
    truncated, so the display shows the latest representable time not
    after ``time``. A time past the capacity of a scheme short of its
    cycle raises ``ValueError``, as does one outside a 1440-minute cycle.
    """
    minutes = time.minutes_since_midnight
    meridiem: Meridiem | None = None
    if scheme.has_meridiem:
        meridiem = _AM if minutes < HALF_DAY else _PM
        minutes %= HALF_DAY
    elif minutes >= scheme.cycle_minutes:
        raise ValueError(
            f"time {time} is outside the {scheme.cycle_minutes}-minute cycle of scheme {scheme.name!r}"
        )

    units = remainder = minutes // scheme.base_unit_minutes
    digits = []
    for row in scheme.rows:
        digits.append(remainder // row.unit_value)  # two operators cost less than a call to divmod
        remainder %= row.unit_value
    if digits[0] > scheme.rows[0].lamp_count:  # only the top row can overflow
        raise ValueError(f"time {time} is past the capacity of scheme {scheme.name!r}")
    return _state(tuple(digits), meridiem, scheme, units)


def decode(state: DisplayState, scheme: RowScheme) -> TimeOfDay:
    """Sum the lit lamps back into a time of day. A surplus state, whose value before any PM
    offset lies outside the scheme's cycle, raises ``InvalidStateError``, as encode never shows it;
    the JSON render reads the time through here too, and gives such a state a null time."""
    value = _check_state(state, scheme) * scheme.base_unit_minutes
    total = value + HALF_DAY if state.meridiem is _PM else value
    if total >= MINUTES_PER_DAY:
        raise InvalidStateError(f"state decodes to {total} minutes, past the end of the day")
    if value >= scheme.cycle_minutes:
        raise InvalidStateError(f"state shows {value} minutes, outside the {scheme.cycle_minutes}-minute "
                                f"cycle of scheme {scheme.name!r}")
    time = _new(TimeOfDay)
    _set_minutes(time, total)  # an int in [0, 1440): TimeOfDay's own check would pass
    return time


def _check_state(state: DisplayState, scheme: RowScheme) -> int:
    """Check the state against the scheme and return its weighted digit sum, in base units."""
    if state._scheme is scheme:  # _state built it for this very object, after its caller checked it
        return state._units
    digits, rows = state.digits, scheme.rows
    if len(digits) != len(rows):
        raise InvalidStateError(f"state has {len(digits)} digits, scheme {scheme.name!r} has {len(rows)} rows")
    units = 0
    for digit, row in zip(digits, rows):
        if digit > row.lamp_count:  # rows differ in unit_value, so index() finds this one
            raise InvalidStateError(
                f"row {rows.index(row) + 1} shows {digit} lit lamps but only has {row.lamp_count}")
        units += digit * row.unit_value
    _check_meridiem(scheme, state.meridiem)
    return units


def _check_meridiem(scheme: RowScheme, meridiem: Meridiem | None) -> None:
    if scheme.has_meridiem == (meridiem is None):  # a flag missing, or one too many
        if meridiem is None:
            raise InvalidStateError(f"scheme {scheme.name!r} is a 12-hour face; an AM/PM flag is required")
        raise InvalidStateError(f"scheme {scheme.name!r} does not use an AM/PM flag")


class ValidationReport(_Record):
    """Whether a scheme's capacity, in minutes, covers its cycle."""

    __slots__ = ("capacity_minutes", "cycle_minutes")

    def __init__(self, capacity_minutes: int, cycle_minutes: int):
        _set(self, "capacity_minutes", capacity_minutes)
        _set(self, "cycle_minutes", cycle_minutes)

    @property
    def ok(self) -> bool:
        return self.capacity_minutes >= self.cycle_minutes

    def __str__(self) -> str:
        cap, cycle = self.capacity_minutes, self.cycle_minutes
        return "ok" if self.ok else f"capacity shortfall: scheme covers {cap} minutes but the cycle is {cycle}"


def validate(scheme: RowScheme) -> ValidationReport:
    """Report whether the scheme's capacity covers its cycle.

    That is the one rule a built scheme can break: :class:`RowScheme`
    enforces the unit recurrence. A shortfall is data, not an exception:
    callers that need a hard failure (catalog loading, scheme construction
    helpers) raise on a non-ok report themselves.
    """
    return ValidationReport(capacity(scheme) * scheme.base_unit_minutes, scheme.cycle_minutes)
