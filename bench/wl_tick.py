"""tick-day: ``cli.run_tick`` over scripted days, 60 polls per minute.

Each round runs ``run_tick`` once per (scheme, format) pair below: the
CLI's default triangular face in ANSI redrawn in place, and Berlin as bit
strings. Each run polls a ``ScriptedTimeSource`` of ``DAYS`` simulated
days from a seeded start minute, with each minute repeated 60 times as the CLI's default
``--interval 1`` would poll it. Sleep is a no-op and frames go to an
in-memory sink. An op is one poll, timed between successive ``now()``
calls of a source that wraps the scripted one. This is the only
workload where most ops repeat the previous input (59 of every 60 polls
re-emit the frame of the minute before).

A timed poll also holds the benchmark's own work: the stamping source,
the sink's writes, flush and sleep. Traced rounds measure that share
(``trace.harness_us_per_poll``) by driving the same objects, and then
C-level stand-ins that do nothing, from a loop that makes ``run_tick``'s
calls, and taking the difference.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import partial
from itertools import pairwise
from time import perf_counter_ns
from types import SimpleNamespace

from oracles import builtin_faces, check_render

NAME = "tick-day"
DAYS = 2
POLLS_PER_MINUTE = 60
HARNESS_POLLS = 20_000
COMBOS = (  # scheme, format, redraw_in_place
    ("triangular", "ansi", True),
    ("berlin", "bits", False),
)


class _StampedSource:
    """Records a timestamp at each ``now()`` and delegates to the script."""

    def __init__(self, inner):
        self._now = inner.now
        self.stamps = array("q")

    def now(self):
        self.stamps.append(perf_counter_ns())
        return self._now()


class _TracedSource(_StampedSource):
    """Also opens one ``cli.tick_poll`` span per poll, from one ``now()``
    to the next, with a ``timesource.now`` span inside it."""

    def __init__(self, inner, tracer):
        super().__init__(inner)
        self._tracer = tracer
        self._poll = None

    def now(self):
        tracer = self._tracer
        if self._poll is not None:
            tracer.close(self._poll)
        self.stamps.append(perf_counter_ns())
        tracer.new_op()
        self._poll = tracer.open("cli.tick_poll")
        sid = tracer.open("timesource.now")
        t = self._now()
        tracer.close(sid)
        if t is None:  # the script is exhausted: this call ends run_tick, it is no poll
            tracer.close(self._poll)
            tracer.rename(self._poll, "cli.tick_exit")
            self._poll = None
        return t


class _Sink:
    """In-memory output stream that keeps only the writes that change."""

    def __init__(self, source):
        self._stamps = source.stamps
        self.controls = Counter()
        self.changes = []  # (poll index, text) whenever the frame text changes
        self.writes = 0
        self._last = None

    def write(self, text):
        if len(text) < 8:  # cursor and clear-screen escapes
            self.controls[text] += 1
            return
        self.writes += 1
        if text != self._last:
            self._last = text
            self.changes.append((len(self._stamps) - 1, text))

    def flush(self):
        pass


class Tick:
    def __init__(self, ctx, rng):
        lc = self.lc = ctx.lampclock
        from lampclock import cli
        self.cli = cli
        self.rng = rng
        faces = builtin_faces()
        self.faces = {
            "triangular": (lc.TRIANGULAR, faces["triangular"], lc.Layout.TRIANGLE_CENTERED),
            "berlin": (lc.BERLIN, faces["berlin"], lc.Layout.BERLIN_BLOCKS),
        }
        self.times = [lc.TimeOfDay(m) for m in range(1440)]
        self.verified: dict[tuple[str, str, int], str] = {}  # frames already checked
        self._run_one(COMBOS[0], 0, minutes=30, tracer=None)  # warm-up

    def _run_one(self, combo, start, minutes, tracer):
        scheme_name, fmt, redraw = combo
        scheme, face, layout = self.faces[scheme_name]
        lc = self.lc
        spec = lc.RenderSpec(format=lc.RenderFormat(fmt), layout=layout, use_color=True)
        script = [(start + i) % 1440 for i in range(minutes)]
        inner = lc.ScriptedTimeSource(self.times[m] for m in script for _ in range(POLLS_PER_MINUTE))
        source = _StampedSource(inner) if tracer is None else _TracedSource(inner, tracer)
        sink = _Sink(source)

        code = self.cli.run_tick(scheme, spec, source, 1, sink, sleep=_no_sleep,
                                 redraw_in_place=redraw)

        stamps = source.stamps
        failure = self._check(combo, face, script, sink, code, len(stamps) - 1, minutes * POLLS_PER_MINUTE)
        if tracer is not None and sink.changes:
            frame = sink.changes[-1][1][:-1]
            tracer.samples["trace.harness_us_per_poll"].append(_harness_us_per_poll(
                self.cli.CLEAR_AND_HOME if redraw else None, frame))
        return stamps, [failure] if failure else []

    def _check(self, combo, face, script, sink, code, polls, want_polls):
        scheme_name, fmt, redraw = combo
        if code != 0 or polls != want_polls or sink.writes != polls:
            return f"tick {combo}: exit {code}, {polls} polls, {sink.writes} frames for {want_polls}"
        if redraw:
            want = {self.cli.HIDE_CURSOR: 1, self.cli.SHOW_CURSOR: 1, self.cli.CLEAR_AND_HOME: polls}
            if dict(sink.controls) != want:
                return f"tick {combo}: control writes {dict(sink.controls)}"
        elif sink.controls:
            return f"tick {combo}: unexpected control writes {dict(sink.controls)}"
        expected = []
        shown = None
        for i, minute in enumerate(script):
            state = face.state_at(minute)
            if state != shown:
                expected.append((i * POLLS_PER_MINUTE, minute))
                shown = state
        if [p for p, _ in sink.changes] != [p for p, _ in expected]:
            return f"tick {combo}: frames changed at the wrong polls"
        for (_, text), (_, minute) in zip(sink.changes, expected):
            key = (scheme_name, fmt, minute)
            if self.verified.get(key) == text:
                continue
            if not text.endswith("\n"):
                return f"tick {combo} at minute {minute}: frame is not newline-terminated"
            reason = check_render(fmt, text[:-1], face, minute, color=True)
            if reason:
                return f"tick {combo} at minute {minute}: {reason}"
            self.verified[key] = text
        return None

    def round(self, tracer):
        """Latencies are counted per nanosecond as each run ends, so that no
        run's stamps outlive it, and yielded from the counts."""
        latency_ns, failures = Counter(), []
        for combo in COMBOS:
            stamps, fail = self._run_one(combo, self.rng.randrange(1440), DAYS * 1440, tracer)
            latency_ns.update(b - a for a, b in pairwise(stamps))
            failures += fail
        return (ns * 1e-9 for ns in latency_ns.elements()), failures


def _no_sleep(seconds):
    pass


def _poll_loop(now, write, flush, sleep, control, frame):
    """The calls ``run_tick`` makes on its source, stream and sleep per poll."""
    t0 = perf_counter_ns()
    while now() is not None:
        if control is not None:
            write(control)
        write(frame + "\n")
        flush()
        sleep(1)
    return perf_counter_ns() - t0


def _harness_us_per_poll(control, frame):
    """Microseconds per poll that the stamping source, the sink, flush and
    sleep add, over C-level stand-ins (``len``, ``int``, ``abs``) that do nothing."""
    def script():
        return partial(next, iter([0] * HARNESS_POLLS), None)

    source = _StampedSource(SimpleNamespace(now=script()))
    sink = _Sink(source)
    harness = _poll_loop(source.now, sink.write, sink.flush, _no_sleep, control, frame)
    bare = _poll_loop(script(), len, int, abs, control, frame)
    return (harness - bare) / HARNESS_POLLS / 1e3


def setup(ctx, rng):
    return Tick(ctx, rng)
