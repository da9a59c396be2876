"""Time sources for the live display, injectable for tests."""

from __future__ import annotations

from functools import partial
from time import localtime
from typing import Iterable, Protocol

from .codec import TimeOfDay


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
    """Replays a sequence of times, which may be endless, reading each one when ``now()`` is
    polled; once the sequence is exhausted, ``now()`` returns None, and on every call after."""

    def __init__(self, times: Iterable[TimeOfDay]):
        self.now = partial(next, iter(times), None)
