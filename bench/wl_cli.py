"""cli-cold: each op is one fresh ``python -m lampclock.cli`` process.

Processes are started by ``spawner.py``, one at a time. A round is 20
seeded invocations, each with a deadline:
8 ``show`` (two per format, on triangular, berlin or a generated scheme
file), 4 ``decode`` (two valid, two invalid: gapped, wrong width, missing
meridiem or a state past the end of the day), 4 ``schemes`` on small
targets (one of them with a ``--limit`` it exceeds), and 4 ``validate``
(a built-in, a valid file, an invalid file, an unknown scheme). Exit 2
and 3 with the documented message are correct answers for the invalid
inputs. A timeout is a failed op.

In a traced round the same invocations also run in-process through
``cli.main`` with the library's entry points wrapped in spans, and three
bare imports run as subprocesses, so the cost of a cold start can be
split into interpreter, import and command.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import statistics
import sys

from oracles import (
    Face, builtin_faces, check_render, check_shape_list, expected_filtered,
    factorize_small, hhmm, ordered_factorization_count,
)

NAME = "cli-cold"
DEADLINE_S = 3.0
BARE_START_REFERENCE_S = 0.05
SMALL_TARGETS = (6, 12, 24, 36, 48, 60, 64, 72, 96, 120, 144, 360, 720)
IMPORT_PROBES = {
    "import.bare_python": "pass",
    "import.lampclock": "import lampclock",
    "import.cli": "import lampclock.cli",
}
_SHAPE_LINE = re.compile(r"\[([\d,]+)\] (TRIANGULAR|RECTANGULAR|IRREGULAR) (\d+)")


def slowness(ctx) -> float:
    """How slow process start-up is right now: the median of three bare
    ``python -c pass`` starts, over their time on the reference machine.

    The run's own calibration loop tracks in-process Python speed but not
    process creation; a bare interpreter start is the same kind of work as
    an op and uses no lampclock code, so lampclock changes still show.
    """
    starts = [ctx.spawner.run([sys.executable, "-c", "pass"], DEADLINE_S)[3] for _ in range(3)]
    return statistics.median(starts) / BARE_START_REFERENCE_S


def _file_face(rng, name, cycle, base) -> Face:
    while True:
        lamps = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 5)))
        states = math.prod(n + 1 for n in lamps)
        if states * base >= cycle and states <= 3000:
            return Face(name, lamps, cycle, base)


def child_env(root):
    """The environment of every child: lampclock importable from ``src``."""
    src = str(root / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class CliCold:
    def __init__(self, ctx, rng):
        self.rng = rng
        self.python = sys.executable
        self.spawner = ctx.spawner
        self.cwd = ctx.workdir
        self.faces = builtin_faces()
        self.files = {}
        for key, cycle, base in (("face720", 720, 1), ("face1440", 1440, 5)):
            face = _file_face(rng, f"bench-{key}", cycle, base)
            self.faces[key] = face
            self.files[key] = self._write(key, {
                "name": face.name, "cycle_minutes": cycle, "base_unit_minutes": base,
                "rows": [{"lamps": n} for n in face.lamps]})
        self.files["short"] = self._write("short", {"name": "short", "cycle_minutes": 1440,
                                                    "rows": [{"lamps": 3}, {"lamps": 5}]})
        self.files["broken"] = self._write("broken", None)
        self.counts = {n: ordered_factorization_count(factorize_small(n)) for n in SMALL_TARGETS}
        for op in self._ops()[:3]:  # warm-up: byte-compile and page in
            self._spawn(op)

    def _write(self, key, data):
        path = self.cwd / f"{key}.json"
        path.write_text("{not json" if data is None else json.dumps(data), encoding="utf-8")
        return str(path)

    # --- op generation -------------------------------------------------------

    def _scheme_arg(self, key):
        return self.files.get(key, key)

    def _show(self, fmt):
        rng = self.rng
        key = rng.choice(("triangular", "berlin", "face720", "face1440"))
        minute = rng.randrange(1440)
        argv = ["show", "--scheme", self._scheme_arg(key), "--time", hhmm(minute), "--format", fmt]
        color = False
        if fmt == "ansi":
            mode = rng.choice(("always", "never", "auto"))
            argv += ["--color", mode]
            color = mode == "always"
        return argv, ("render", fmt, key, minute, color)

    def _decode(self, valid):
        rng = self.rng
        key = rng.choice(("triangular", "berlin", "face720"))
        face = self.faces[key]
        digits, meridiem = face.state_at(rng.randrange(1440))
        bits = face.bits(digits).split("/")
        flag = ["--am"] if meridiem == "AM" else ["--pm"] if meridiem == "PM" else []
        if valid:
            expect = ("line", hhmm(face.minute_of(digits, meridiem)))
        else:
            case = rng.choice(("gapped", "width", "meridiem", "surplus"))
            wide = [k for k, n in enumerate(face.lamps) if n >= 2]
            if case == "gapped" and wide:
                k = rng.choice(wide)
                bits[k] = "01" + "0" * (face.lamps[k] - 2)
                expect = ("error", 2, "not left-filled")
            elif case == "meridiem" and face.has_meridiem:
                flag = []
                expect = ("error", 2, "AM/PM flag is required")
            elif case == "surplus" and key == "berlin":
                bits = ["1" * n for n in face.lamps]
                expect = ("error", 2, "past the end of the day")
            else:
                k = rng.randrange(len(bits))
                bits[k] += "0"
                expect = ("error", 2, f"row {k + 1} must have")
        return ["decode", "/".join(bits), "--scheme", self._scheme_arg(key), *flag], expect

    def _schemes(self, capped):
        rng = self.rng
        target = rng.choice(SMALL_TARGETS)
        count = self.counts[target]
        if capped:
            limit = max(1, count // 2)
            return ["schemes", str(target), "--limit", str(limit)], ("error", 2, f"more than {limit} shapes")
        which = rng.choice((None, None, "TRIANGULAR", "RECTANGULAR"))
        argv = ["schemes", str(target)] + ([f"--{which.lower()}"] if which else [])
        return argv, ("shapes", target, which, count)

    def _validate(self, case):
        if case == "builtin":
            name = self.rng.choice(("triangular", "berlin"))
            return ["validate", "--scheme", name], ("line", f"{name}: ok")
        if case == "file":
            key = self.rng.choice(("face720", "face1440"))
            return ["validate", self.files[key]], ("line", f"{self.faces[key].name}: ok")
        if case == "invalid":
            key = self.rng.choice(("short", "broken"))
            return ["validate", self.files[key]], ("error", 3, "error:")
        verb = self.rng.choice(("show", "validate"))
        return [verb, "--scheme", "no-such-face"], ("error", 3, "unknown scheme")

    def _ops(self):
        ops = [self._show(fmt) for fmt in ("ansi", "svg", "bits", "json") for _ in range(2)]
        ops += [self._decode(valid) for valid in (True, True, False, False)]
        ops += [self._schemes(capped) for capped in (False, False, False, True)]
        ops += [self._validate(case) for case in ("builtin", "file", "invalid", "unknown")]
        self.rng.shuffle(ops)
        return ops

    # --- running and checking --------------------------------------------------

    def _spawn(self, op):
        """(exit code or None past the deadline, stdout, stderr), wall seconds."""
        code, out, err, seconds = self.spawner.run([self.python, "-m", "lampclock.cli", *op[0]], DEADLINE_S)
        return (None if code is None else (code, out, err)), seconds

    def _check(self, op, result):
        argv, expect = op
        where = "lampclock " + " ".join(argv)
        if result is None:
            return f"{where}: missed its deadline"
        code, out, err = result
        kind = expect[0]
        if kind == "error":
            _, want_code, fragment = expect
            if code == want_code and not out and fragment in err:
                return None
            return f"{where}: exit {code}, stderr {err.strip()[:120]!r}; want exit {want_code} with {fragment!r}"
        if code != 0 or err:
            return f"{where}: exit {code}, stderr {err.strip()[:120]!r}"
        if kind == "line":
            return None if out == expect[1] + "\n" else f"{where}: printed {out!r}"
        if kind == "render":
            _, fmt, key, minute, color = expect
            if not out.endswith("\n"):
                return f"{where}: output is not newline-terminated"
            reason = check_render(fmt, out[:-1], self.faces[key], minute, color)
            return f"{where}: {reason}" if reason else None
        _, target, which, count = expect
        rows = [_SHAPE_LINE.fullmatch(line) for line in out.splitlines()]
        if not all(rows):
            return f"{where}: unparseable output {out[:120]!r}"
        lamps = [tuple(int(c) for c in m[1].split(",")) for m in rows]
        if which is not None:
            want = expected_filtered(target, which)
            ok = lamps == want and all(m[2] == which for m in rows)
            return None if ok else f"{where}: listed {lamps}, want {want}"
        reason = check_shape_list(lamps, [m[2] for m in rows], [int(m[3]) for m in rows], target, count)
        return f"{where}: {reason}" if reason else None

    def round(self, tracer):
        ops = self._ops()
        latencies, failures = [], []
        for op in ops:
            if tracer is not None:
                tracer.new_op()
                root = tracer.open("process.cli")
            result, seconds = self._spawn(op)
            latencies.append(seconds)
            if tracer is not None:
                tracer.close(root)
            reason = self._check(op, result)
            if reason:
                failures.append(reason)
        if tracer is not None:
            failures += self._probe(ops, tracer)
        return latencies, failures

    # --- traced-only probes -----------------------------------------------------

    def _probe(self, ops, tracer):
        """Split a cold start: bare interpreter, imports, argparse, command."""
        from lampclock import cli

        for name, code in IMPORT_PROBES.items():
            status, _, err, seconds = self.spawner.run([self.python, "-c", code], DEADLINE_S)
            if status != 0:
                raise RuntimeError(f"{name} probe failed: exit {status}: {err[-300:]}")
            tracer.record(name, seconds)
        self._importtime(tracer)

        failures = []
        for op in ops:
            argv = op[0]
            tracer.new_op()
            sid = tracer.open("cli.parse")
            try:
                cli.build_parser().parse_args(argv)
            except SystemExit:
                pass
            tracer.close(sid)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                sid = tracer.open("cli.main")
                code = cli.main(argv)
                tracer.close(sid)
            reason = self._check(op, (code, out.getvalue(), err.getvalue()))
            if reason:
                failures.append("in-process " + reason)  # run.PROBE_FAILURE
        return failures

    def _importtime(self, tracer):
        """Cumulative ``-X importtime`` figures for the modules a cold start loads."""
        status, _, err, _ = self.spawner.run([self.python, "-X", "importtime", "-c", "import lampclock.cli"],
                                             DEADLINE_S)
        if status != 0:
            raise RuntimeError(f"-X importtime probe failed: exit {status}: {err[-300:]}")
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000
        for module in ("site", "lampclock", "lampclock.codec", "lampclock.cli"):
            tracer.samples["import.xtime." + module.replace(".", "_") + "_ms"].append(cumulative.get(module, 0.0))


def setup(ctx, rng):
    return CliCold(ctx, rng)
