"""Time sources for the live display, injectable for tests."""

from __future__ import annotations

from itertools import islice
from time import localtime
from typing import Iterable, Protocol

from .codec import TimeOfDay

_READ_AHEAD = 4096  # times read from a script at a time, bounding the memory of an endless one


class TimeSource(Protocol):
    """Anything the tick loop can poll for the current time.

    ``now()`` returns None when the source is exhausted, which ends the
    loop; the real clock never is.
    """

    def now(self) -> TimeOfDay | None: ...


class SystemTimeSource:
    """Local wall-clock time, truncated to the minute."""

    def now(self) -> TimeOfDay | None:
        now = localtime()
        return TimeOfDay(now.tm_hour * 60 + now.tm_min)


class ScriptedTimeSource:
    """Replays a sequence of times, which may be endless, then reports
    exhaustion.

    Times are read ahead in batches, so that a poll of the tick loop costs
    a list pop rather than a step of the caller's iterator.
    """

    def __init__(self, times: Iterable[TimeOfDay]):
        self._times = iter(times)
        self._ahead: list[TimeOfDay] = []

    def now(self) -> TimeOfDay | None:
        if not self._ahead:
            self._ahead = list(islice(self._times, _READ_AHEAD))
            self._ahead.reverse()
        return self._ahead.pop() if self._ahead else None
