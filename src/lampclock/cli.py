"""Command-line interface: show, tick, decode, schemes, validate.

Exit codes: 0 on success, also when the reader of stdout goes away, and when
a ``tick`` redrawn in place on a terminal ends by Ctrl-C, SIGTERM or SIGHUP,
with the cursor shown again; 1 when stdout cannot be written; 2 for bad input
(times, bit strings, flags, enumeration targets); 3 for scheme problems (unknown
name, unreadable or invalid scheme file).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from typing import Callable, TextIO

from .catalog import resolve_scheme
from .codec import (DEFAULT_SHAPE_LIMIT, MAX_SHAPE_LIMIT, Meridiem, RowScheme, TimeOfDay, _excerpt, decode,
                    encode, parse_bits, validate)
from .errors import ClockError, InvalidSchemeError
from .render import Layout, RenderFormat, RenderSpec, default_layout, render
from .timesource import ScriptedTimeSource, SystemTimeSource, TimeSource

EXIT_OK = 0
EXIT_OUTPUT = 1
EXIT_INPUT = 2
EXIT_SCHEME = 3

HIDE_CURSOR = "\x1b[?25l"
SHOW_CURSOR = "\x1b[?25h"
CLEAR_AND_HOME = "\x1b[2J\x1b[H"
MAX_INTERVAL = 86_400  # one day in seconds; time.sleep overflows on far longer ones


def _silence_stream(stream: TextIO) -> None:
    """Point a broken output stream at /dev/null so the interpreter's
    exit-time flush does not raise again."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):
        return
    with open(os.devnull, "wb") as devnull:  # which closes its descriptor once dup2 has copied it
        os.dup2(devnull.fileno(), fd)


def _setup(args: argparse.Namespace, out: TextIO, source: TimeSource | None,
           polls: int | None) -> tuple[RowScheme, RenderSpec, TimeSource]:
    """The scheme, render spec and time source of ``show`` and ``tick``. ``--time``
    pins the source to one time, read ``polls`` times (or endlessly); else the given
    source or the clock."""
    scheme = resolve_scheme(args.scheme)
    if args.time is not None:
        t = TimeOfDay.parse(args.time)
        source = ScriptedTimeSource(itertools.repeat(t) if polls is None else itertools.repeat(t, polls))
    elif source is None:
        source = SystemTimeSource()
    layout = Layout(args.layout) if args.layout else default_layout(scheme)
    if args.color == "auto":
        use_color = not os.environ.get("NO_COLOR") and out.isatty()
    else:
        use_color = args.color == "always"
    return scheme, RenderSpec(format=RenderFormat(args.format), layout=layout, use_color=use_color), source


def run_tick(
    scheme: RowScheme,
    spec: RenderSpec,
    source: TimeSource,
    interval: int,
    out: TextIO,
    sleep: Callable[[float], None] = time.sleep,
    max_polls: int | None = None,
    redraw_in_place: bool = False,
) -> int:
    """Poll the time source and emit one frame per poll, sleeping ``interval`` only between polls.

    The state is re-encoded and re-rendered only when the displayed
    minute changes; unchanged minutes re-emit the cached frame. The loop
    ends when the source is exhausted, ``max_polls`` is reached or the
    user interrupts, each a clean exit, or when a write fails, which is
    raised; the cursor is restored on every way out.
    """
    last_minute: int | None = None
    frame = ""
    try:
        if redraw_in_place:
            out.write(HIDE_CURSOR)
        for poll in itertools.count() if max_polls is None else range(max_polls):
            if poll:
                sleep(interval)
            t = source.now()
            if t is None:
                break
            if t.minutes_since_midnight != last_minute:
                frame = render(encode(t, scheme), scheme, spec) + "\n"
                last_minute = t.minutes_since_midnight
            if redraw_in_place:
                out.write(CLEAR_AND_HOME)
            out.write(frame)
            out.flush()
    except KeyboardInterrupt:
        pass
    finally:
        if redraw_in_place:
            try:
                out.write(SHOW_CURSOR)
                out.flush()
            except (OSError, ValueError):  # keep the error that ended the loop, if any
                pass
    return EXIT_OK


def cmd_show(args: argparse.Namespace, out: TextIO) -> int:
    """One frame: a single poll of the tick loop, never redrawn in place."""
    scheme, spec, source = _setup(args, out, None, 1)
    return run_tick(scheme, spec, source, 0, out, max_polls=1)


def cmd_tick(
    args: argparse.Namespace,
    out: TextIO,
    source: TimeSource | None = None,
    sleep: Callable[[float], None] = time.sleep,
    max_polls: int | None = None,
) -> int:
    """The tick loop. While it redraws in place, SIGTERM and SIGHUP take Ctrl-C's handler, so they end it
    through ``run_tick``'s clean way out; the handlers they had before are restored when it returns."""
    scheme, spec, source = _setup(args, out, source, max_polls)
    in_place = spec.format is RenderFormat.ANSI and out.isatty()
    saved = {}
    if in_place:
        import signal  # here, so that no other command pays for loading it
        saved = {sig: signal.signal(sig, signal.default_int_handler) for sig in (signal.SIGTERM, signal.SIGHUP)}
    try:
        return run_tick(scheme, spec, source, args.interval, out,
                        sleep=sleep, max_polls=max_polls, redraw_in_place=in_place)
    finally:
        for sig, handler in saved.items():
            signal.signal(sig, handler)


def cmd_decode(args: argparse.Namespace, out: TextIO) -> int:
    scheme = resolve_scheme(args.scheme)
    state = parse_bits(args.bits, scheme, args.meridiem)
    print(decode(state, scheme), file=out)
    return EXIT_OK


def enumerate_shapes(*args, **kwargs):
    """Loads ``lampclock.schemes`` on the first call; a module attribute,
    as the other library calls here are, so that callers can wrap it."""
    from .schemes import enumerate_shapes
    return enumerate_shapes(*args, **kwargs)


def cmd_schemes(args: argparse.Namespace, out: TextIO) -> int:
    from .schemes import ShapeClass, count_shapes

    if args.count:
        print(count_shapes(args.target), file=out)
        return EXIT_OK
    shape_filter = args.shape_filter and ShapeClass(args.shape_filter)
    for shape in enumerate_shapes(args.target, shape_filter, args.limit):
        counts = ",".join(str(c) for c in shape.lamp_counts)
        print(f"[{counts}] {shape.classification.value} {shape.total_lamps}", file=out)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, out: TextIO) -> int:
    scheme = resolve_scheme(args.scheme_file if args.scheme_file is not None else args.scheme)
    # resolve_scheme only returns valid schemes, so the report always reads "ok"
    print(f"{scheme.name}: {validate(scheme)}", file=out)
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = 0
    try:
        value = int(text)
    except ValueError:  # not a number, or one of over 4,300 digits: int() refuses those, Decimal reads them
        if text.strip().isdecimal():
            from decimal import Decimal
            value = int(Decimal(text))
    if value >= 1:
        return value
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {_excerpt(text)}")


def _interval(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_INTERVAL:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_INTERVAL} seconds, got {_excerpt(text)}")
    return value


def build_parser() -> argparse.ArgumentParser:
    scheme_opts = argparse.ArgumentParser(add_help=False)
    scheme_opts.add_argument(
        "--scheme", default="triangular", metavar="NAME|PATH",
        help="built-in scheme name (triangular, berlin) or scheme file path",
    )

    render_opts = argparse.ArgumentParser(add_help=False)
    render_opts.add_argument(
        "--format", choices=[f.value for f in RenderFormat], default="ansi",
        help="output format (default: ansi)",
    )
    render_opts.add_argument(
        "--color", choices=["auto", "always", "never"], default="auto",
        help="terminal coloring; auto honors NO_COLOR and non-tty output",
    )
    render_opts.add_argument(
        "--layout", choices=[l.value for l in Layout], default=None,
        help="lamp layout; defaults to blocks for berlin, triangle otherwise",
    )

    parser = argparse.ArgumentParser(
        prog="lampclock",
        description="Lamp-row clocks (triangular and Berlin-style) as mixed-radix displays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_show = sub.add_parser("show", parents=[scheme_opts, render_opts],
                            help="render one time (current or --time)")
    p_show.add_argument("--time", metavar="HH:MM", help="time to display instead of now")
    p_show.set_defaults(func=cmd_show)

    p_tick = sub.add_parser("tick", parents=[scheme_opts, render_opts],
                            help="live display, re-rendered every interval")
    p_tick.add_argument("--time", metavar="HH:MM", help="pin the display to a fixed time")
    p_tick.add_argument("--interval", type=_interval, default=1, metavar="SECONDS",
                        help=f"seconds between polls (default: 1, at most {MAX_INTERVAL})")
    p_tick.set_defaults(func=cmd_tick)

    p_decode = sub.add_parser("decode", parents=[scheme_opts],
                              help="turn a bit string like 0/11/100/1110/10000 back into a time")
    p_decode.add_argument("bits", help="rows of 0/1 joined by '/'")
    half = p_decode.add_mutually_exclusive_group()
    half.add_argument("--am", dest="meridiem", action="store_const", const=Meridiem.AM,
                      help="morning half, for 12-hour schemes")
    half.add_argument("--pm", dest="meridiem", action="store_const", const=Meridiem.PM,
                      help="afternoon half, for 12-hour schemes")
    p_decode.set_defaults(func=cmd_decode)

    p_schemes = sub.add_parser("schemes", help="enumerate lamp layouts for a state count")
    p_schemes.add_argument("target", type=int, help="number of display states to realize")
    shape_group = p_schemes.add_mutually_exclusive_group()
    for shape_class in ("TRIANGULAR", "RECTANGULAR", "IRREGULAR"):  # ShapeClass values
        shape_group.add_argument(f"--{shape_class.lower()}", dest="shape_filter",
                                 action="store_const", const=shape_class)
    shape_group.add_argument("--count", action="store_true",
                             help="print only the number of layouts; not capped by --limit")
    p_schemes.add_argument("--limit", type=_positive_int, default=DEFAULT_SHAPE_LIMIT,
                           help=f"enumeration cap (default: {DEFAULT_SHAPE_LIMIT}, "
                                f"at most {MAX_SHAPE_LIMIT})")
    p_schemes.set_defaults(func=cmd_schemes)

    p_validate = sub.add_parser("validate", parents=[scheme_opts],
                                help="check a scheme's structural rules")
    p_validate.add_argument("scheme_file", nargs="?", default=None,
                            help="scheme file to check (overrides --scheme)")
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # here, so that a failed write of buffered output is caught below
        return code
    except InvalidSchemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEME
    except (ValueError, ClockError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # a failed write: load_scheme turns read errors into InvalidSchemeError
        _silence_stream(sys.stdout)
        if isinstance(exc, BrokenPipeError):  # the reader went away, which is no failure
            return EXIT_OK
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
