"""Reference answers that do not share the library's algorithms.

Digit vectors come from walking every digit vector of a face once, in
lexicographic order, which for a positional numeral system is also value
order; no unit values or division are involved. Ordered factorizations
are counted over the divisor lattice of a target whose prime
factorization is known from how the target was generated. Rendered
output is checked by parsing it back (regular expressions for terminal
art, ``xml.etree`` for SVG, ``json`` for JSON).
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from itertools import product

HALF_DAY = 720
DAY = 1440
LIT, UNLIT = "●", "○"
UNLIT_SVG_FILL = "#dddddd"
ANSI_CODES = {"green": 32, "red": 31, "yellow": 33}
SVG_NS = "{http://www.w3.org/2000/svg}"


@dataclass
class Face:
    """A clock face as plain data, with its exhaustive digit table."""

    name: str
    lamps: tuple[int, ...]
    cycle: int
    base: int = 1
    table: list[tuple[int, ...]] = field(init=False, repr=False)
    index: dict[tuple[int, ...], int] = field(init=False, repr=False)

    def __post_init__(self):
        self.table = list(product(*(range(n + 1) for n in self.lamps)))
        self.index = {digits: value for value, digits in enumerate(self.table)}

    @property
    def has_meridiem(self) -> bool:
        return self.cycle == HALF_DAY

    def state_at(self, minute: int) -> tuple[tuple[int, ...], str | None]:
        """Digits and meridiem the face shows at ``minute`` of the day."""
        meridiem = None
        if self.has_meridiem:
            meridiem = "AM" if minute < HALF_DAY else "PM"
            minute %= HALF_DAY
        return self.table[minute // self.base], meridiem

    def minute_of(self, digits: tuple[int, ...], meridiem: str | None) -> int:
        """Minutes a state stands for; may exceed a day for surplus states."""
        return self.index[digits] * self.base + (HALF_DAY if meridiem == "PM" else 0)

    def bits(self, digits: tuple[int, ...]) -> str:
        return "/".join("1" * d + "0" * (n - d) for d, n in zip(digits, self.lamps))

    def lit_colors(self, meridiem: str | None, row: int, count: int) -> list[str]:
        """Colors of the first ``count`` lamps of ``row`` when lit."""
        if meridiem == "AM":
            return ["green"] * count
        if meridiem == "PM":
            return ["red"] * count
        accent = self.lamps[row] == 11
        return ["red" if accent and (i + 1) % 3 == 0 else "yellow" for i in range(count)]


def builtin_faces() -> dict[str, Face]:
    """The two built-in faces as the README describes them."""
    return {"triangular": Face("triangular", (1, 2, 3, 4, 5), HALF_DAY),
            "berlin": Face("berlin", (4, 4, 11, 4), DAY)}


def hhmm(minute: int) -> str:
    return f"{minute // 60:02d}:{minute % 60:02d}"


# --- rendered output -----------------------------------------------------

_ANSI_CELL = re.compile(r"(?:\x1b\[(\d+)m)?([●○])(?:\x1b\[0m)?")


def check_bits(text: str, face: Face, digits) -> str | None:
    expected = face.bits(digits)
    return None if text == expected else f"bits {text!r} != {expected!r}"


def check_json(text: str, face: Face, digits, meridiem, minute: int) -> str | None:
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return f"json does not parse: {exc}"
    expected = {"scheme": face.name, "digits": list(digits), "meridiem": meridiem,
                "time": hhmm(minute)}
    if obj != expected:
        return f"json {obj} != {expected}"
    if json.loads(json.dumps(obj)) != obj:
        return "json does not round-trip"
    return None


def check_ansi(text: str, face: Face, digits, meridiem, color: bool) -> str | None:
    lines = text.split("\n")
    if len(lines) != len(face.lamps):
        return f"ansi has {len(lines)} lines for {len(face.lamps)} rows"
    for k, (line, lamps, digit) in enumerate(zip(lines, face.lamps, digits)):
        cells = _ANSI_CELL.findall(line)
        glyphs = "".join(g for _, g in cells)
        if glyphs != LIT * digit + UNLIT * (lamps - digit):
            return f"ansi row {k + 1} reads {glyphs!r}, want {digit} of {lamps} lit"
        codes = [int(c) if c else None for c, g in cells if g == LIT]
        want = [ANSI_CODES[c] for c in face.lit_colors(meridiem, k, digit)] if color else [None] * digit
        if codes != want:
            return f"ansi row {k + 1} colors {codes} != {want}"
    return None


def check_svg(text: str, face: Face, digits, meridiem) -> str | None:
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        return f"svg does not parse: {exc}"
    if root.tag != SVG_NS + "svg":
        return f"svg root is {root.tag}"
    rows: dict[float, list[tuple[float, str]]] = {}
    for el in root:
        if el.tag == SVG_NS + "circle":
            x, y = float(el.get("cx")), float(el.get("cy"))
        elif el.tag == SVG_NS + "rect":
            x, y = float(el.get("x")), float(el.get("y"))
        else:
            return f"svg has unexpected element {el.tag}"
        rows.setdefault(y, []).append((x, el.get("fill")))
    if len(rows) != len(face.lamps):
        return f"svg has {len(rows)} rows for {len(face.lamps)}"
    for k, y in enumerate(sorted(rows)):
        fills = [fill for _, fill in sorted(rows[y])]
        lamps, digit = face.lamps[k], digits[k]
        want = face.lit_colors(meridiem, k, digit) + [UNLIT_SVG_FILL] * (lamps - digit)
        if fills != want:
            return f"svg row {k + 1} fills {fills} != {want}"
    return None


def check_render(fmt: str, text: str, face: Face, minute: int, color: bool = False) -> str | None:
    """Check one rendered display of ``face`` at ``minute`` of the day."""
    digits, meridiem = face.state_at(minute)
    shown = face.minute_of(digits, meridiem)
    if fmt == "bits":
        return check_bits(text, face, digits)
    if fmt == "json":
        return check_json(text, face, digits, meridiem, shown)
    if fmt == "ansi":
        return check_ansi(text, face, digits, meridiem, color)
    return check_svg(text, face, digits, meridiem)


# --- enumeration ---------------------------------------------------------


def factorize_small(n: int) -> dict[int, int]:
    """Prime factorization by trial division; for targets below ~10^7."""
    fac: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def divisors(fac: dict[int, int]) -> list[int]:
    """All divisors of the number with prime factorization ``fac``, ascending."""
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def ordered_factorization_count(fac: dict[int, int]) -> int:
    """H(n) = sum of H(d) over proper divisors d of n, memoized bottom up
    over the divisor lattice, each pair tried by divisibility."""
    divs = divisors(fac)
    count: dict[int, int] = {1: 1}
    for i, d in enumerate(divs[1:], start=1):
        count[d] = sum(count[e] for e in divs[:i] if d % e == 0)
    return count[divs[-1]]


FACTORIAL_ROWS = {math.factorial(n + 1): n for n in range(1, 30)}


def triangular_rows(n: int) -> int | None:
    """Rows of the triangle with exactly ``n`` states, from a factorial table."""
    return FACTORIAL_ROWS.get(n)


def rectangular_shapes(n: int) -> list[tuple[int, ...]]:
    """Every equal-row layout with n states, k >= 2 rows, lexicographic."""
    shapes = []
    for k in range(2, n.bit_length() + 1):
        f = round(n ** (1 / k))
        for g in (f - 1, f, f + 1):
            if g >= 2 and g**k == n:
                shapes.append((g - 1,) * k)
    return sorted(set(shapes))


def shape_class(lamps: tuple[int, ...]) -> str:
    if lamps == tuple(range(1, len(lamps) + 1)):
        return "TRIANGULAR"
    if len(lamps) >= 2 and len(set(lamps)) == 1:
        return "RECTANGULAR"
    return "IRREGULAR"


def check_shape_list(shapes: list[tuple[int, ...]], classes: list[str], totals: list[int],
                     target: int, expected_count: int) -> str | None:
    """Check an unfiltered enumeration: count, product, order, classes."""
    if len(shapes) != expected_count:
        return f"{len(shapes)} shapes for {target}, oracle counts {expected_count}"
    previous = None
    for lamps, cls, total in zip(shapes, classes, totals):
        if math.prod(c + 1 for c in lamps) != target or min(lamps) < 1:
            return f"shape {lamps} does not realize {target}"
        if previous is not None and not previous < lamps:
            return f"shapes out of order at {previous}, {lamps}"
        if cls != shape_class(lamps) or total != sum(lamps):
            return f"shape {lamps} labelled {cls} {total}"
        previous = lamps
    return None


def expected_filtered(target: int, which: str) -> list[tuple[int, ...]]:
    if which == "TRIANGULAR":
        rows = triangular_rows(target)
        return [] if rows is None else [tuple(range(1, rows + 1))]
    return rectangular_shapes(target)
