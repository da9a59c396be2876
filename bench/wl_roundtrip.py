"""roundtrip: in-process encode+render and parse_bits+decode requests.

Each op is one seeded request on TRIANGULAR, BERLIN or one of the custom
schemes built by ``make_scheme`` in set-up (some with 720-minute cycles,
some with ``base_unit_minutes > 1``). Even ops encode a time and render it
in one of the four formats; odd ops parse a bit string and decode it, and
a share of those bit strings is malformed or stands for a state past the
end of the day, so the documented exception is the expected answer.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

from oracles import Face, builtin_faces, check_render

NAME = "roundtrip"
ROUND_OPS = 1000
CUSTOM_SCHEMES = 32
FORMATS = ("bits", "json", "ansi", "svg")
ENCODE, DECODE = 0, 1


def _face_shapes() -> list[tuple[int, ...]]:
    """Lamp counts of the custom faces, the same for every seed, so that every
    seed renders faces of the same sizes and builds oracle tables of the same
    size; the seed only orders their rows and picks cycle and base unit."""
    rng = random.Random(0)
    shapes = []
    while len(shapes) < CUSTOM_SCHEMES:
        lamps = tuple(rng.randint(1, 11) for _ in range(rng.randint(2, 6)))
        if 720 <= math.prod(n + 1 for n in lamps) <= 3000:
            shapes.append(lamps)
    return shapes


def _custom_faces(rng) -> list[Face]:
    faces = []
    for i, shape in enumerate(_face_shapes()):
        lamps = list(shape)
        rng.shuffle(lamps)
        states = math.prod(n + 1 for n in lamps)
        cycle = rng.choice((720, 1440))
        base = rng.choice([b for b in (1, 2, 5, 15) if states * b >= cycle])
        name = f"custom{i}-" + "-".join(map(str, lamps))
        faces.append(Face(name, tuple(lamps), cycle, base))
    return faces


class Roundtrip:
    def __init__(self, ctx, rng):
        lc = self.lc = ctx.lampclock
        self.rng = rng
        self.errors = {
            "gapped": lc.MonotoneFillError, "width": lc.BitsParseError,
            "meridiem": lc.InvalidStateError, "surplus": lc.InvalidStateError,
        }
        faces = builtin_faces()
        self.builtin = [(lc.TRIANGULAR, faces["triangular"]), (lc.BERLIN, faces["berlin"])]
        self.custom = [
            (lc.make_scheme(f.name, list(f.lamps), f.cycle, f.base), f) for f in _custom_faces(rng)
        ]
        self.times = [lc.TimeOfDay(m) for m in range(1440)]
        self.meridiem = {None: None, "AM": lc.Meridiem.AM, "PM": lc.Meridiem.PM}
        self.specs = {
            (fmt, layout, color): lc.RenderSpec(format=lc.RenderFormat(fmt), layout=lc.Layout(layout),
                                                use_color=color)
            for fmt in FORMATS for layout in ("triangle", "left", "berlin") for color in (False, True)
        }
        self.round(None, ops=200)  # warm-up

    def _pick(self):
        r = self.rng.random()
        if r < 1 / 3:
            return self.builtin[0]
        if r < 2 / 3:
            return self.builtin[1]
        return self.rng.choice(self.custom)

    def _encode_op(self, i):
        scheme, face = self._pick()
        minute = self.rng.randrange(1440)
        fmt = FORMATS[(i // 2) % len(FORMATS)]
        layouts = ("triangle", "left", "berlin") if len(face.lamps) == 4 else ("triangle", "left")
        color = self.rng.random() < 0.5
        spec = self.specs[(fmt, self.rng.choice(layouts), color)]
        return (ENCODE, scheme, face, self.times[minute], spec, (fmt, minute, color))

    def _decode_op(self):
        rng = self.rng
        scheme, face = self._pick()
        digits, meridiem = face.state_at(rng.randrange(1440))
        bits = face.bits(digits).split("/")
        r = rng.random()
        wide = [k for k, n in enumerate(face.lamps) if n >= 2]
        surplus = range(-(-face.cycle // face.base), len(face.table))
        if r < 0.1 and wide:
            k = rng.choice(wide)
            bits[k] = "01" + "0" * (face.lamps[k] - 2)
            expect = "gapped"
        elif r < 0.2:
            k = rng.randrange(len(bits))
            bits[k] += rng.choice("01")
            expect = "width"
        elif r < 0.3:
            meridiem = None if face.has_meridiem else rng.choice(("AM", "PM"))
            expect = "meridiem"
        elif r < 0.4 and len(surplus):
            digits = face.table[rng.choice(surplus)]
            bits = face.bits(digits).split("/")
            meridiem = "PM" if face.has_meridiem else None
            expect = "surplus"
        else:
            expect = face.minute_of(digits, meridiem)
        return (DECODE, scheme, face, "/".join(bits), self.meridiem[meridiem], expect)

    def _check(self, op, out):
        kind, _, face, _, _, expect = op
        if kind == ENCODE:
            fmt, minute, color = expect
            if not isinstance(out, str):
                return f"render {fmt} of {face.name} at {minute} raised {out!r}"
            return check_render(fmt, out, face, minute, color)
        if isinstance(expect, int):
            if isinstance(out, self.lc.TimeOfDay) and out.minutes_since_midnight == expect:
                return None
        elif type(out) is self.errors[expect]:
            return None
        return f"decode {op[3]!r} on {face.name}: got {out!r}, want {expect!r}"

    def round(self, tracer, ops=ROUND_OPS):
        requests = [self._encode_op(i) if i % 2 == 0 else self._decode_op() for i in range(ops)]
        lc = self.lc
        latencies = []
        failures = []
        for op in requests:
            kind, scheme, _, arg, extra, _ = op
            if tracer is not None:
                tracer.new_op()
                root = tracer.open("op")
            t0 = perf_counter()
            try:
                if kind == ENCODE:
                    out = lc.render(lc.encode(arg, scheme), scheme, extra)
                else:
                    out = lc.decode(lc.parse_bits(arg, scheme, extra), scheme)
            except Exception as exc:  # judged by _check: expected or a failure
                out = exc
            latencies.append(perf_counter() - t0)
            if tracer is not None:
                tracer.close(root)
            reason = self._check(op, out)
            if reason:
                failures.append(reason)
        return latencies, failures


def setup(ctx, rng):
    return Roundtrip(ctx, rng)
