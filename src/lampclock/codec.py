"""Clock schemes as mixed-radix numeral systems.

A lamp-row clock is a positional numeral system in disguise: each row of
lamps is one digit, the digit's value is the number of lit lamps, and the
digit's base is ``lamp_count + 1`` (all off through all on). Row units are
locked together by a recurrence: one lamp in a row is worth one more than
a full row below it, i.e. ``unit[k-1] = (lamp_count[k] + 1) * unit[k]``.
Encoding a time is therefore plain greedy division by place values, and
decoding is the weighted digit sum, of a state or of its bit string.

Schemes whose cycle is 720 minutes cover a 12-hour face and carry an
AM/PM meridiem flag on their display states; 1440-minute schemes cover
the full day on the lamps alone.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Iterable

from .errors import BitsParseError, InvalidSchemeError, InvalidStateError, MonotoneFillError

MINUTES_PER_DAY = 1440
HALF_DAY = 720

MAX_LAMPS_PER_ROW = 1440  # one-minute lamps enough for a day; RowScheme bounds every row by it
MAX_CAPACITY = 2**64  # a scheme shows fewer states, so it has at most 64 rows and 64-bit units
DEFAULT_SHAPE_LIMIT = 100_000
MAX_SHAPE_LIMIT = 1_000_000  # larger enumeration limits are lowered to this, bounding memory


class _Record:
    """Immutable value whose fields are its ``__slots__`` in constructor order, but for derived data
    in slots named ``_x``: equality and hashing over the field tuple, a dataclass-style repr, and
    pickling and copying through the constructor. A subclass's ``__init__`` fills its slots through
    ``_setters``, their own setters in slot order: with ``_store``, or on a hot path by direct calls."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._key = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _store(self, *values):
        for set_slot, value in zip(self._setters, values, strict=True):
            set_slot(self, value)

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


class RowScheme(_Record):
    """An ordered stack of lamp rows, top row first, given by their lamp counts.

    The lamp counts fix the scheme: construction derives the row units from them
    with :func:`derive_units`, which also bounds the capacity below
    ``MAX_CAPACITY``, and checks the fields (at most ``MAX_LAMPS_PER_ROW`` lamps a
    row, a non-empty name, positive cycle and base unit). Whether the capacity
    covers ``cycle_minutes`` is left to :func:`validate`, so that a scheme short
    of its cycle can be represented and reported on.
    """

    __slots__ = ("name", "lamp_counts", "cycle_minutes", "base_unit_minutes", "_units")

    def __init__(self, name: str, lamp_counts: Iterable[int], cycle_minutes: int,
                 base_unit_minutes: int = 1):
        lamp_counts = tuple(lamp_counts)
        try:
            units = tuple(derive_units(lamp_counts))
        except InvalidSchemeError as exc:
            raise InvalidSchemeError(f"scheme {name!r}: {exc}") from exc
        for lamps in lamp_counts:  # after derive_units, so that a row of 10**100 lamps reports the capacity
            if lamps > MAX_LAMPS_PER_ROW:
                raise InvalidSchemeError(f"scheme {name!r}: lamp count must be a positive integer, "
                                         f"at most {MAX_LAMPS_PER_ROW}, got {lamps}")
        if not isinstance(name, str) or not name:
            raise InvalidSchemeError(f"scheme name must be a non-empty string, got {name!r}")
        # type() rather than isinstance(): bool is an int subclass
        if type(cycle_minutes) is not int or cycle_minutes < 1:
            raise InvalidSchemeError(f"scheme {name!r}: cycle_minutes must be a positive integer")
        if type(base_unit_minutes) is not int or base_unit_minutes < 1:
            raise InvalidSchemeError(f"scheme {name!r}: base_unit_minutes must be a positive integer")
        self._store(name, lamp_counts, cycle_minutes, base_unit_minutes, units)

    @property
    def has_meridiem(self) -> bool:
        """True when states of this scheme carry an AM/PM flag."""
        return self.cycle_minutes == HALF_DAY


def _excerpt(text: str, show=str, unit: str = "characters") -> str:
    """How an error quotes user text: all of it up to 20 characters, else its first 20, then its length."""
    return show(text) if len(text) <= 20 else f"{show(text[:20])}... ({len(text)} {unit})"


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
        must lie in 0..59, are truncated. Anything else, a non-string too, raises ``ValueError``."""
        parts = text.strip().split(":") if isinstance(text, str) else ()
        if len(parts) not in (2, 3) or not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(f"not a valid HH:MM time: {_excerpt(text, repr) if parts else repr(text)}")
        # Digits only, so never negative. Without its leading zeros a field in range has at most 2 digits,
        # so no longer one reaches int(), which refuses a string of over 4,300 digits.
        hour, minute, *second = [p.lstrip("0") or "0" for p in parts]
        for name, field, bound in [("second", s, 60) for s in second] + [("hour", hour, 24), ("minute", minute, 60)]:
            if len(field) > 2 or int(field) >= bound:
                raise ValueError(f"{name} out of range [0, {bound}): {_excerpt(field, unit='digits')}")
        return cls(int(hour) * 60 + int(minute))

    def __str__(self) -> str:  # HH:MM, the JSON render's time too: one read of the minutes, no properties
        return "%02d:%02d" % divmod(self.minutes_since_midnight, 60)


class DisplayState(_Record):
    """Lit-lamp counts per row, top row first, plus optional meridiem.

    Digits are counts, not bit patterns: a digit of 3 means the three
    leftmost lamps of the row are lit. Gapped lamp patterns therefore
    cannot be represented at all.
    """

    __slots__ = ("digits", "meridiem", "_checked")  # the last derived: (scheme, units) of a passed check

    def __init__(self, digits: Iterable[int], meridiem: Meridiem | None = None):
        digits = tuple(digits)
        for digit in digits:
            if type(digit) is not int or digit < 0:  # type(): a bool or float digit is no lamp count
                raise ValueError(f"digits must be non-negative integers: {digits}")
        if meridiem is not None and not isinstance(meridiem, Meridiem):
            raise ValueError(f"Meridiem or None expected, got {meridiem!r}")
        self._store(digits, meridiem, (None, None))  # checked against no scheme yet


# Module names for the hot paths: the slots' setters, called directly rather than through _store (as in
# schemes.SchemeShape), and the meridiems. The rule in codec and render: a hot path reads an enum
# member through a module name (~20 ns), never through its class (~147 ns a read, Python 3.11).
(_set_minutes,) = TimeOfDay._setters
_set_digits, _set_meridiem, _set_checked = DisplayState._setters
_AM, _PM = Meridiem.AM, Meridiem.PM
_new = object.__new__


def _state(digits: tuple[int, ...], meridiem: Meridiem | None, scheme: RowScheme, units: int) -> DisplayState:
    """A state its caller checked against ``scheme``, where it shows ``units`` base units: no check."""
    state = _new(DisplayState)
    _set_digits(state, digits)
    _set_meridiem(state, meridiem)
    _set_checked(state, (scheme, units))
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
    return scheme._units[0] * (scheme.lamp_counts[0] + 1)  # the top row's unit is the product of the rest


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
    for unit in scheme._units:
        digits.append(remainder // unit)  # two operators cost less than a call to divmod
        remainder %= unit
    if digits[0] > scheme.lamp_counts[0]:  # only the top row can overflow
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


def parse_bits(text: str, scheme: RowScheme, meridiem: Meridiem | None = None) -> DisplayState:
    """Parse a '/'-separated bit string back into a display state.

    Bit strings carry no meridiem, so for a 12-hour scheme the flag must
    be supplied by the caller. Rows must match the scheme's widths exactly
    and be monotonically left-filled.
    """
    rows, counts = text.split("/"), scheme.lamp_counts
    if len(rows) != len(counts):
        raise BitsParseError(f"expected {len(counts)} rows separated by '/', got {len(rows)}")

    digits, units = [], 0
    for bits, n in zip(rows, counts):
        zeros = bits.lstrip("1")  # what follows the lit lamps, all 0s in a left-filled row
        if len(bits) != n or zeros.strip("0"):  # the happy path's one test of all 3 rules
            k = len(digits) + 1  # one digit per row passed: lamp counts repeat, so counts.index(n) could miss
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


def _check_state(state: DisplayState, scheme: RowScheme) -> int:
    """Check the state against the scheme and return its weighted digit sum, in base units."""
    checked_scheme, units = state._checked  # one slot: two could pair one thread's scheme with another's units
    if checked_scheme is scheme:  # checked against this very object: by _state's caller, or below
        return units
    digits, counts = state.digits, scheme.lamp_counts
    if len(digits) != len(counts):
        raise InvalidStateError(f"state has {len(digits)} digits, scheme {scheme.name!r} has {len(counts)} rows")
    units = 0
    for row, (digit, lamps, unit) in enumerate(zip(digits, counts, scheme._units), 1):
        if digit > lamps:
            raise InvalidStateError(f"row {row} shows {digit} lit lamps but only has {lamps}")
        units += digit * unit
    _check_meridiem(scheme, state.meridiem)
    _set_checked(state, (scheme, units))  # only once every check has passed
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
        self._store(capacity_minutes, cycle_minutes)

    @property
    def ok(self) -> bool:
        return self.capacity_minutes >= self.cycle_minutes

    def __str__(self) -> str:
        cap, cycle = self.capacity_minutes, self.cycle_minutes
        return "ok" if self.ok else f"capacity shortfall: scheme covers {cap} minutes but the cycle is {cycle}"


def validate(scheme: RowScheme) -> ValidationReport:
    """Report whether the scheme's capacity covers its cycle.

    That is the one rule a built scheme can break: :class:`RowScheme`
    derives its units from its lamp counts. A shortfall is data, not an exception:
    callers that need a hard failure (catalog loading, scheme construction
    helpers) raise on a non-ok report themselves.
    """
    return ValidationReport(capacity(scheme) * scheme.base_unit_minutes, scheme.cycle_minutes)
