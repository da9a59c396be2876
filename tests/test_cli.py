import io
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lampclock
from lampclock import ScriptedTimeSource, SystemTimeSource, TimeOfDay, timesource
from lampclock.cli import (
    CLEAR_AND_HOME,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_SCHEME,
    HIDE_CURSOR,
    SHOW_CURSOR,
    build_parser,
    cmd_decode,
    cmd_show,
    cmd_tick,
    main,
)
from lampclock.timesource import _READ_AHEAD


SRC = Path(lampclock.__file__).resolve().parent.parent


def spawn_cli(*argv, env=os.environ, stdout=subprocess.PIPE, **kwargs):
    """A separate ``python -m lampclock.cli`` process, for calls that could
    block or that need real output streams."""
    return subprocess.Popen([sys.executable, "-m", "lampclock.cli", *argv],
                            env=dict(env, PYTHONPATH=str(SRC)),
                            stdout=stdout, stderr=subprocess.PIPE, text=True, **kwargs)


class TtyBuffer(io.StringIO):
    def isatty(self):
        return True


def case_id(argv):
    return " ".join(argv)


PARSER = build_parser()  # built once: parse_args leaves a parser as it found it


def parse(*argv):
    return PARSER.parse_args(argv)


def bits_args(command="show", scheme="triangular", time=None):
    return parse(command, "--scheme", scheme, "--format", "bits", *(["--time", time] if time else []))


class TestShow:
    def test_bits(self, capsys):
        assert main(["show", "--time", "04:49", "--scheme", "triangular", "--format", "bits"]) == EXIT_OK
        assert capsys.readouterr().out == "0/11/100/1110/10000\n"

    def test_json_berlin(self, capsys):
        assert main(["show", "--time", "10:31", "--scheme", "berlin", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["digits"] == [2, 0, 6, 1]
        assert doc["scheme"] == "berlin"

    def test_svg(self, capsys):
        assert main(["show", "--time", "10:31", "--scheme", "berlin", "--format", "svg"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("<?xml")
        assert out.count("<rect") == 23  # berlin defaults to the block layout

    def test_defaults_to_now(self, capsys):
        assert main(["show", "--format", "bits"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().split("/")
        assert [len(r) for r in rows] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("bad", ["24:00", "12:60", "noon", "04:49:99", "\u0660\u0664:\u0664\u0669"])
    def test_bad_time_is_input_error(self, bad, capsys):
        assert main(["show", "--time", bad]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    # the interpreter's limit on int() of a long string is no message of ours
    @pytest.mark.parametrize("time", ["04:49:" + "0" * 4999 + "60", "04:" + "9" * 5000, "1" * 5001 + ":00"],
                             ids=["second", "minute", "hour"])
    def test_long_time_field_is_input_error(self, time, capsys):
        assert main(["show", "--time", time, "--format", "bits"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "out of range" in err and "set_int_max_str_digits" not in err

    # the error quotes the first 20 characters of a long field or time, and its length
    @pytest.mark.parametrize("time, message", [
        ("04:" + "9" * 5000, "error: minute out of range [0, 60): " + "9" * 20 + "... (5000 digits)"),
        ("04:49x" + "9" * 5000, "error: not a valid HH:MM time: '04:49x" + "9" * 14 + "'... (5006 characters)"),
    ], ids=["field", "time"])
    def test_long_time_error_is_one_short_line(self, time, message, capsys):
        assert main(["show", "--time", time]) == EXIT_INPUT
        assert capsys.readouterr().err.splitlines() == [message] and len(message) < 120

    def test_unknown_scheme_is_scheme_error(self, capsys):
        assert main(["show", "--scheme", "sundial"]) == EXIT_SCHEME
        assert "sundial" in capsys.readouterr().err

    def test_invalid_scheme_file_reports_violations(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text('{"name": "tiny", "cycle_minutes": 720, "rows": [{"lamps": 1}]}')
        assert main(["show", "--scheme", str(path)]) == EXIT_SCHEME
        assert "capacity" in capsys.readouterr().err

    def test_scheme_file_roundtrips(self, tmp_path, capsys):
        path = tmp_path / "mini.json"
        path.write_text(
            '{"name": "mini", "cycle_minutes": 1440, "base_unit_minutes": 60,'
            ' "rows": [{"lamps": 3}, {"lamps": 5}]}'
        )
        assert main(["show", "--scheme", str(path), "--time", "13:00", "--format", "bits"]) == EXIT_OK
        assert capsys.readouterr().out == "110/10000\n"

    def test_five_row_file_named_berlin_draws_a_triangle(self, tmp_path, capsys):
        path = tmp_path / "it.json"
        path.write_text(
            '{"name": "berlin", "cycle_minutes": 720,'
            ' "rows": [{"lamps": 1}, {"lamps": 2}, {"lamps": 3}, {"lamps": 4}, {"lamps": 5}]}'
        )
        assert main(["show", "--scheme", str(path), "--time", "04:49", "--format", "svg"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("<circle") == 15 and "<rect" not in out  # block layout needs 4 rows

    def test_color_always_emits_escapes(self, capsys):
        assert main(["show", "--time", "04:49", "--color", "always"]) == EXIT_OK
        assert "\x1b[32m" in capsys.readouterr().out

    @pytest.mark.parametrize("value, colored", [("1", False), ("", True)])
    def test_no_color_respected_on_tty(self, monkeypatch, value, colored):
        monkeypatch.setenv("NO_COLOR", value)  # only a non-empty value turns color off
        out = TtyBuffer()
        assert cmd_show(parse("show", "--time", "04:49"), out=out) == EXIT_OK
        assert ("\x1b[" in out.getvalue()) == colored

    def test_tty_colors_by_default(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        out = TtyBuffer()
        assert cmd_show(parse("show", "--time", "04:49"), out=out) == EXIT_OK
        assert "\x1b[32m" in out.getvalue()

    def test_tty_frame_is_drawn_once_not_in_place(self):
        out = TtyBuffer()
        assert cmd_show(parse("show", "--time", "04:49"), out=out) == EXIT_OK
        text = out.getvalue()
        for escape in (HIDE_CURSOR, CLEAR_AND_HOME, SHOW_CURSOR):
            assert escape not in text
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_pinned_time_is_read_once(self, monkeypatch):
        import lampclock.cli as cli_module

        given = []

        def recording_source(times):
            given.append(list(itertools.islice(times, _READ_AHEAD + 1)))
            return ScriptedTimeSource(given[-1])

        monkeypatch.setattr(cli_module, "ScriptedTimeSource", recording_source)
        assert cmd_show(bits_args("show", time="04:49"), out=io.StringIO()) == EXIT_OK
        assert given == [[TimeOfDay.parse("04:49")]]


class TestDecode:
    def test_triangular_am(self, capsys):
        assert main(["decode", "0/11/100/1110/10000", "--am"]) == EXIT_OK
        assert capsys.readouterr().out == "04:49\n"

    def test_all_off_am(self, capsys):
        assert main(["decode", "0/00/000/0000/00000", "--am"]) == EXIT_OK
        assert capsys.readouterr().out == "00:00\n"

    def test_pm_offset(self, capsys):
        assert main(["decode", "0/00/000/0000/00000", "--pm"]) == EXIT_OK
        assert capsys.readouterr().out == "12:00\n"

    def test_berlin(self, capsys):
        assert main(["decode", "1100/0000/11111100000/1000", "--scheme", "berlin"]) == EXIT_OK
        assert capsys.readouterr().out == "10:31\n"

    def test_meridiem_required_for_triangular(self, capsys):
        assert main(["decode", "0/00/000/0000/00000"]) == EXIT_INPUT
        assert "AM/PM" in capsys.readouterr().err

    def test_meridiem_rejected_for_berlin(self, capsys):
        assert main(["decode", "0000/0000/00000000000/0000", "--scheme", "berlin", "--am"]) == EXIT_INPUT

    def test_gapped_bits_cite_row(self, capsys):
        assert main(["decode", "0/01/000/0000/00000", "--am"]) == EXIT_INPUT
        assert "row 2" in capsys.readouterr().err

    def test_width_mismatch(self, capsys):
        assert main(["decode", "0/11/100", "--am"]) == EXIT_INPUT

    # Four rows of 5 lamps, 1296 states: all on would read 21:35 on a 12-hour face, and
    # 5/1/0/0 would read 18:36 on a 1000-minute one
    @pytest.mark.parametrize("cycle, argv, err", [
        (720, ["11111/11111/11111/11111", "--am"],
         "error: state shows 1295 minutes, outside the 720-minute cycle of scheme 'x'\n"),
        (720, ["11111/11111/11111/11111", "--pm"],
         "error: state decodes to 2015 minutes, past the end of the day\n"),
        (1000, ["11111/10000/00000/00000"],
         "error: state shows 1116 minutes, outside the 1000-minute cycle of scheme 'x'\n"),
    ])
    def test_state_outside_the_cycle_is_input_error(self, tmp_path, capsys, cycle, argv, err):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"name": "x", "cycle_minutes": cycle, "rows": [{"lamps": 5}] * 4}))
        assert main(["decode", "--scheme", str(path), *argv]) == EXIT_INPUT
        assert capsys.readouterr() == ("", err)


class TestSchemes:
    def test_triangular_720(self, capsys):
        assert main(["schemes", "720", "--triangular"]) == EXIT_OK
        assert capsys.readouterr().out == "[1,2,3,4,5] TRIANGULAR 15\n"

    def test_no_triangle_for_decimal_day(self, capsys):
        assert main(["schemes", "1000", "--triangular"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_six(self, capsys):
        assert main(["schemes", "6"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "[1,2] TRIANGULAR 3",
            "[2,1] IRREGULAR 3",
            "[5] IRREGULAR 5",
        ]

    def test_target_below_two(self, capsys):
        assert main(["schemes", "1"]) == EXIT_INPUT

    def test_cap_overflow(self, capsys):
        assert main(["schemes", "720", "--limit", "10"]) == EXIT_INPUT
        assert "10" in capsys.readouterr().err

    @pytest.mark.parametrize("target, expected", [
        ("720", "1888"),
        ("1000000000000000000", "1058972245409005568"),  # 2**18 * 5**18
    ])
    def test_count(self, target, expected, capsys):
        assert main(["schemes", target, "--count", "--limit", "5"]) == EXIT_OK
        assert capsys.readouterr().out == expected + "\n"

    def test_count_excludes_filters(self, capsys):
        assert main(["schemes", "720", "--count", "--triangular"]) == EXIT_INPUT

    # int() refuses a string of over 4,300 digits, which is a positive integer all the same
    @pytest.mark.parametrize("digits", [4000, 5000])
    def test_limit_of_any_length_is_lowered_to_the_cap(self, digits, capsys):
        assert main(["schemes", "720", "--limit", "1000000"]) == EXIT_OK
        capped = capsys.readouterr().out
        assert main(["schemes", "720", "--limit", "1" * digits]) == EXIT_OK
        assert capsys.readouterr().out == capped and capped.count("\n") == 1888

    @pytest.mark.parametrize("limit", ["0" * 5000, "x" * 5000, "-" + "1" * 5000, "1.5" + "0" * 5000],
                             ids=["zeros", "letters", "negative", "fraction"])
    def test_long_limit_that_is_no_positive_integer(self, limit, capsys):
        with pytest.raises(SystemExit) as exc:
            parse("schemes", "720", "--limit", limit)
        assert exc.value.code == EXIT_INPUT
        message = f"must be a positive integer, got {limit[:20]}... ({len(limit)} characters)"
        assert capsys.readouterr().err.endswith(f"error: argument --limit: {message}\n")

    @pytest.mark.parametrize("argv, code, stdout, stderr", [
        (["schemes", "1000000000000000000", "--limit", "5"], EXIT_INPUT, "", "more than 5 shapes"),
        (["schemes", str(2**64)], EXIT_INPUT, "", "2**64"),
        (["schemes", str(2**64), "--count"], EXIT_INPUT, "", "2**64"),
        (["schemes", str(2**61 - 1)], EXIT_OK, "[2305843009213693950] IRREGULAR 2305843009213693950\n", ""),
        (["schemes", "1000000000000000000", "--limit", "10000000000000000000"], EXIT_INPUT, "",
         "more than 1000000 shapes"),
        # 2**63 has 2**62 layouts, one per composition of 63; 2**64 - 59 is the largest prime below 2**64
        (["schemes", "9223372036854775808", "--count"], EXIT_OK, "4611686018427387904\n", ""),
        (["schemes", "18446744073709551557", "--count"], EXIT_OK, "1\n", ""),
        (["schemes", "262144"], EXIT_INPUT, "", "more than 100000 shapes"),  # 2**18: 131072 layouts
    ])
    def test_huge_targets_finish_quickly(self, argv, code, stdout, stderr, capsys):
        start = time.perf_counter()
        assert main(argv) == code
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == stdout
        assert stderr in err


class TestValidate:
    def test_builtin_ok(self, capsys):
        assert main(["validate", "--scheme", "berlin"]) == EXIT_OK
        assert capsys.readouterr().out == "berlin: ok\n"

    def test_positional_file(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text('{"name": "ok", "cycle_minutes": 2, "rows": [{"lamps": 1}]}')
        assert main(["validate", str(path)]) == EXIT_OK

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad", "cycle_minutes": 720, "rows": [{"lamps": 2}]}')
        assert main(["validate", str(path)]) == EXIT_SCHEME
        assert "capacity" in capsys.readouterr().err

    def test_shortfall_stderr_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text('{"name": "short", "cycle_minutes": 720, "rows": [{"lamps": 1}, {"lamps": 2}]}')
        assert main(["validate", str(path)]) == EXIT_SCHEME
        assert capsys.readouterr() == ("", "error: scheme 'short' is invalid:\n"
                                           "capacity shortfall: scheme covers 6 minutes but the cycle is 720\n")

    @pytest.mark.parametrize("command", [["validate"], ["show", "--format", "svg", "--scheme"]])
    def test_billion_lamp_row_is_a_scheme_error(self, tmp_path, capsys, command):
        path = tmp_path / "huge.json"
        path.write_text('{"name": "huge", "cycle_minutes": 1440, "rows": [{"lamps": 1000000000}]}')
        start = time.perf_counter()
        assert main([*command, str(path)]) == EXIT_SCHEME
        assert time.perf_counter() - start < 1.0
        assert "at most 1440" in capsys.readouterr().err

    @pytest.mark.parametrize("size, code", [(64 * 1024, EXIT_OK), (70 * 1024, EXIT_SCHEME)])
    def test_file_is_read_up_to_64_kib(self, tmp_path, capsys, size, code):
        text = '{"name": "padded", "cycle_minutes": 2, "rows": [{"lamps": 1}]}'
        path = tmp_path / "padded.json"
        path.write_text(text + " " * (size - len(text)))
        assert main(["validate", str(path)]) == code
        assert ("larger than 65536 bytes" in capsys.readouterr().err) == (code == EXIT_SCHEME)

    @pytest.mark.parametrize("text", [
        '{"name": "long", "cycle_minutes": ' + "7" * 5000 + ', "rows": [{"lamps": 1}]}',
        '{"name": "caf\xe9", "cycle_minutes": 2, "rows": [{"lamps": 1}]}',
    ], ids=["number-too-long-for-int", "latin-1-not-utf-8"])
    def test_undecodable_file_is_a_scheme_error(self, tmp_path, capsys, text):
        path = tmp_path / "odd.json"
        path.write_bytes(text.encode("latin-1"))
        assert main(["validate", str(path)]) == EXIT_SCHEME
        assert "not valid JSON" in capsys.readouterr().err

    def test_deep_nesting_is_a_scheme_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 30_000 + "]" * 30_000)  # 60 KB, under the size cap
        assert main(["validate", str(path)]) == EXIT_SCHEME
        assert "not valid JSON" in capsys.readouterr().err

    def test_more_rows_than_64_bits_of_states(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"name": "deep", "cycle_minutes": 720, "rows": [{"lamps": 1}] * 64}))
        assert main(["validate", str(path)]) == EXIT_SCHEME
        assert "below 2**64" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["validate"], ["show", "--time", "04:49", "--scheme"]])
    def test_name_too_long_for_a_path_is_an_unknown_scheme(self, argv, capsys):
        assert main([*argv, "a" * 5000]) == EXIT_SCHEME
        assert "unknown scheme" in capsys.readouterr().err

    def test_empty_path_is_an_unknown_scheme_not_the_default(self, capsys):
        # an empty positional is a path given, not none: it must not fall back to --scheme's default
        assert main(["validate", ""]) == EXIT_SCHEME
        assert capsys.readouterr() == ("", "error: unknown scheme '' (built-ins: berlin, triangular)\n")

    def test_missing_file_is_named_as_given(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "./nowhere.json"]) == EXIT_SCHEME
        assert "cannot read scheme file ./nowhere.json:" in capsys.readouterr().err

    def test_fifo_without_writer_is_read_as_empty(self, tmp_path):
        path = tmp_path / "fifo.json"
        os.mkfifo(path)
        proc = spawn_cli("validate", str(path))
        try:
            out, err = proc.communicate(timeout=5)
        finally:
            proc.kill()
        assert proc.returncode == EXIT_SCHEME
        assert "not valid JSON" in err

    def test_pipe_waits_for_its_writer(self):
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as writer:
            try:
                proc = spawn_cli("validate", f"/dev/fd/{read_end}", pass_fds=(read_end,))
            finally:
                os.close(read_end)
            try:
                time.sleep(0.5)  # the child opens the pipe and waits in read before the data comes
                writer.write('{"name": "piped", "cycle_minutes": 2, "rows": [{"lamps": 1}]}')
                writer.close()
                out, err = proc.communicate(timeout=10)
            finally:
                proc.kill()
        assert (proc.returncode, out) == (EXIT_OK, "piped: ok\n"), err


class TestTick:
    def test_noon_boundary_ansi(self):
        out = io.StringIO()
        args = parse("tick", "--color", "always")
        source = ScriptedTimeSource(map(TimeOfDay.parse, ["11:59", "12:00"]))
        assert cmd_tick(args, out=out, source=source, sleep=lambda s: None) == EXIT_OK
        frames = out.getvalue().splitlines()
        first, second = "\n".join(frames[:5]), "\n".join(frames[5:])
        assert first.count("\x1b[32m") == 15  # all 15 lamps on, morning color
        assert second.count("○") == 15 and "\x1b[32m" not in second

    def test_noon_boundary_meridiem(self):
        out = io.StringIO()
        args = parse("tick", "--format", "json")
        source = ScriptedTimeSource(map(TimeOfDay.parse, ["11:59", "12:00"]))
        cmd_tick(args, out=out, source=source, sleep=lambda s: None)
        docs = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [d["meridiem"] for d in docs] == ["AM", "PM"]
        assert docs[0]["digits"] == [1, 2, 3, 4, 5]
        assert docs[1]["digits"] == [0, 0, 0, 0, 0]

    def test_midnight_wrap(self):
        out = io.StringIO()
        args = parse("tick", "--color", "always")
        source = ScriptedTimeSource(map(TimeOfDay.parse, ["23:59", "00:00"]))
        cmd_tick(args, out=out, source=source, sleep=lambda s: None)
        frames = out.getvalue().splitlines()
        first, second = "\n".join(frames[:5]), "\n".join(frames[5:])
        assert first.count("\x1b[31m") == 15  # all on, afternoon color
        assert strip_escapes(second).count("○") == 15

    def test_static_clock_emits_identical_frames_without_reencoding(self, monkeypatch):
        import lampclock.cli as cli_module

        expected_frame = render_bits_for("09:15")
        calls = []
        real_encode = cli_module.encode
        monkeypatch.setattr(cli_module, "encode", lambda t, s: calls.append(t) or real_encode(t, s))

        out = io.StringIO()
        args = parse("tick", "--format", "bits", "--time", "09:15", "--interval", "60")
        sleeps = []
        assert cmd_tick(args, out=out, sleep=sleeps.append, max_polls=3) == EXIT_OK
        assert out.getvalue().splitlines() == [expected_frame] * 3
        assert len(calls) == 1  # re-encoded only once for an unchanged minute
        assert sleeps == [60, 60]

    def test_frames_match_show_at_same_minute(self):
        for scheme in ("triangular", "berlin"):
            for minute in (0, 289, 631, 719, 720, 1439):
                text = str(TimeOfDay(minute))
                shown = io.StringIO()
                cmd_show(bits_args("show", scheme, text), out=shown)
                ticked = io.StringIO()
                cmd_tick(bits_args("tick", scheme), out=ticked,
                         source=ScriptedTimeSource([TimeOfDay(minute)]), sleep=lambda s: None)
                assert ticked.getvalue() == shown.getvalue()

    def test_interrupt_is_clean_and_restores_cursor(self):
        out = TtyBuffer()

        def interrupting_sleep(seconds):
            raise KeyboardInterrupt

        args = parse("tick")
        source = ScriptedTimeSource(map(TimeOfDay.parse, ["10:00", "10:01", "10:02"]))
        assert cmd_tick(args, out=out, source=source, sleep=interrupting_sleep) == EXIT_OK
        text = out.getvalue()
        assert text.startswith("\x1b[?25l")  # cursor hidden while running
        assert text.endswith("\x1b[?25h")  # and restored on the way out

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP], ids=["SIGTERM", "SIGHUP"])
    def test_a_signal_ends_a_redrawn_tick_as_ctrl_c_does(self, signum):
        received = []

        def record(signum, frame):  # the test's own handler, which tick must swap out and then back in
            received.append(signum)

        previous = signal.signal(signum, record)
        try:
            out = TtyBuffer()
            source = ScriptedTimeSource(map(TimeOfDay.parse, ["10:00", "10:01", "10:02"]))
            code = cmd_tick(parse("tick"), out=out, source=source, sleep=lambda s: os.kill(os.getpid(), signum))
            assert (code, received) == (EXIT_OK, [])
            assert out.getvalue().count(CLEAR_AND_HOME) == 1  # ended at the first sleep
            assert out.getvalue().endswith(SHOW_CURSOR)
            assert signal.getsignal(signum) is record
        finally:
            signal.signal(signum, previous)

    def test_sigterm_on_a_terminal_shows_the_cursor_and_exits_0(self):
        import pty

        argv = [sys.executable, "-m", "lampclock.cli", "tick", "--time", "04:49", "--interval", "60"]
        pid, fd = pty.fork()
        if pid == 0:  # the child: one tick process on the new terminal
            try:
                os.execve(sys.executable, argv, dict(os.environ, PYTHONPATH=str(SRC)))
            finally:
                os._exit(127)
        seen, sent, closed = b"", False, False
        deadline = time.monotonic() + 20
        try:
            while not closed and time.monotonic() < deadline:
                # once a whole frame is drawn, the loop sleeps with its handlers in place
                if not sent and b"\n" in seen.rpartition(CLEAR_AND_HOME.encode())[2]:
                    os.kill(pid, signal.SIGTERM)
                    sent = True
                if select.select([fd], [], [], 0.1)[0]:
                    try:
                        chunk = os.read(fd, 4096)
                    except OSError:  # EIO: the child has closed the terminal
                        chunk = b""
                    seen += chunk
                    closed = not chunk
        finally:
            if not closed:
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
            os.close(fd)
        text = seen.decode()
        assert sent, text
        assert os.waitstatus_to_exitcode(status) == EXIT_OK, text
        assert text.count(HIDE_CURSOR) == 1 and text.endswith(SHOW_CURSOR), text

    def test_interval_must_be_positive(self):
        assert main(["tick", "--interval", "0"]) == EXIT_INPUT

    @pytest.mark.parametrize("interval", ["86401", "100000000000000000000", "9" * 4000, "1" * 5000],
                             ids=["86401", "10**20", "4000-digits", "5000-digits"])
    def test_interval_is_at_most_a_day(self, interval, capsys):
        # parsed, not run: an unbounded interval would sleep, or overflow time.sleep
        with pytest.raises(SystemExit) as exc:
            parse("tick", "--interval", interval)
        assert exc.value.code == EXIT_INPUT
        shown = interval if len(interval) <= 20 else f"{interval[:20]}... ({len(interval)} characters)"
        assert capsys.readouterr().err.endswith(f"must be at most 86400 seconds, got {shown}\n")
        assert parse("tick", "--interval", "86400").interval == 86400

    def test_scripted_source_accepts_endless_iterables(self):
        source = ScriptedTimeSource(itertools.cycle([TimeOfDay.parse("23:59"), TimeOfDay(0)]))
        assert [str(source.now()) for _ in range(5)] == ["23:59", "00:00", "23:59", "00:00", "23:59"]
        out = io.StringIO()
        cmd_tick(bits_args("tick"), out=out, source=source, sleep=lambda s: None, max_polls=10_000)
        assert len(out.getvalue().splitlines()) == 10_000

    def test_system_source_reads_local_time(self, monkeypatch):
        pinned = time.struct_time((2026, 10, 19, 16, 7, 59, 0, 292, 0))
        monkeypatch.setattr(timesource, "localtime", lambda: pinned)
        now = SystemTimeSource().now()
        assert now.minutes_since_midnight == 16 * 60 + 7

    def test_scripted_source_replays_every_time_once(self):
        times = [TimeOfDay(m % 1440) for m in range(10_000)]
        source = ScriptedTimeSource(iter(times))
        assert list(iter(source.now, None)) == times
        assert source.now() is None


@pytest.fixture(params=["buffered", "unbuffered"])
def stdout_env(request):
    """The environment of a CLI process whose stdout is block-buffered,
    or written through at once."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if request.param == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestOutputFailure:
    """A reader that goes away ends the command quietly and successfully;
    a write that fails for any other reason is one error line and exit 1."""

    @pytest.mark.parametrize("argv", [
        ["schemes", "40320", "--limit", "1000000"],
        ["tick", "--time", "04:49", "--format", "bits"],
        ["show", "--time", "04:49"],
    ], ids=case_id)
    def test_closed_pipe_is_a_quiet_success(self, argv, stdout_env):
        with spawn_cli(*argv, env=stdout_env) as proc:
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
                code = proc.wait(timeout=10)
            finally:
                proc.kill()
            err = proc.stderr.read()
        assert first and (code, err) == (EXIT_OK, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("argv", [
        ["schemes", "720"],
        ["tick", "--time", "04:49", "--format", "bits"],
        ["show", "--time", "04:49"],
    ], ids=case_id)
    def test_full_device_is_one_error_line(self, argv, stdout_env):
        with open("/dev/full", "w") as full:
            proc = spawn_cli(*argv, env=stdout_env, stdout=full)
            try:
                _, err = proc.communicate(timeout=10)
            finally:
                proc.kill()
        assert proc.returncode == EXIT_OUTPUT, err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err


def test_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)  # so that the flush of main's output fails with BrokenPipeError
    with open(write_end, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        probe = os.open(os.devnull, os.O_RDONLY)  # the lowest free descriptor
        os.close(probe)
        assert main(["show", "--time", "04:49", "--format", "bits"]) == EXIT_OK
        after = os.open(os.devnull, os.O_RDONLY)
        os.close(after)
    assert after == probe


def strip_escapes(text):
    import re

    return re.sub(r"\x1b\[[0-9;]*m", "", text)


def render_bits_for(text, scheme="triangular"):
    out = io.StringIO()
    cmd_show(bits_args("show", scheme, text), out=out)
    return out.getvalue().strip()


def test_cli_decode_show_identity_every_minute():
    for scheme in ("triangular", "berlin"):
        for minutes in range(1440):
            t = TimeOfDay(minutes)
            shown = io.StringIO()
            assert cmd_show(bits_args("show", scheme, str(t)), out=shown) == EXIT_OK
            half = []
            if scheme == "triangular":
                half = ["--am"] if minutes < 720 else ["--pm"]
            decoded = io.StringIO()
            args = parse("decode", shown.getvalue().strip(), "--scheme", scheme, *half)
            assert cmd_decode(args, out=decoded) == EXIT_OK
            assert decoded.getvalue().strip() == str(t)


def test_exit_codes_partition():
    cases = [
        ["show", "--time", "04:49", "--format", "bits"],
        ["show", "--time", "99:00"],
        ["show", "--scheme", "missing"],
        ["decode", "0/01/000/0000/00000", "--am"],
        ["decode", "0/11/100/1110/10000", "--am"],
        ["schemes", "6"],
        ["schemes", "0"],
        ["validate", "--scheme", "triangular"],
        ["not-a-command"],
    ]
    for argv in cases:
        assert main(argv) in {0, 2, 3}


def test_console_script_checks_pass_through_a_shim(tmp_path):
    # The checks that CI runs against the installed console script, run here against a shim that
    # calls main as the [project.scripts] entry point does; their python3 is this interpreter.
    shim = tmp_path / "lampclock"
    shim.write_text(f"#!{sys.executable}\nimport sys\nfrom lampclock.cli import main\nsys.exit(main())\n",
                    encoding="utf-8")
    shim.chmod(0o755)
    path = os.pathsep.join([os.path.dirname(sys.executable), os.environ.get("PATH", "")])
    env = dict(os.environ, LAMPCLOCK=str(shim), PYTHONPATH=str(SRC), PATH=path, TMPDIR=str(tmp_path))
    script = Path(__file__).parent / "console_script.sh"
    proc = subprocess.run(["bash", str(script)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
