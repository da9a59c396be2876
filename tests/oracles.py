"""Independent oracles the tests check the library against.

These deliberately avoid the library's own algorithms: digit vectors are
found by exhaustive search over every displayable state, ordered
factorizations are counted by trying every integer factor directly, and
primes are recognized by trial division, a sieve or Lucas's converse of
Fermat's theorem, never by Miller-Rabin. The SVG of a face is drawn from its
stated geometry, one lamp at a time, each coordinate an exact ratio of integers,
and so is its terminal text, one glyph at a time.
"""

import json
from itertools import product
from math import comb, prod


def exhaustive_digits(minutes: int, lamp_counts: list[int], units: list[int]) -> tuple[int, ...]:
    """The unique digit vector whose weighted sum is ``minutes``.

    Searches all ``prod(lamps+1)`` digit vectors; raises if no match or
    more than one match exists, so a hit also certifies uniqueness.
    """
    matches = [
        digits
        for digits in product(*(range(m + 1) for m in lamp_counts))
        if sum(d * u for d, u in zip(digits, units)) == minutes
    ]
    if len(matches) != 1:
        raise AssertionError(f"expected exactly one digit vector for {minutes}, got {matches}")
    return matches[0]


def ordered_factorization_count(n: int) -> int:
    """Count ordered factor sequences (factors >= 2) with product n,
    by trial of every candidate factor."""
    if n == 1:
        return 1
    return sum(ordered_factorization_count(n // f) for f in range(2, n + 1) if n % f == 0)


def ordered_factorization_count_by_exponents(exponents: list[int]) -> int:
    """The same count from the prime exponents alone, by a double sum:
    ``ways`` counts the ordered splits into j factors >= 1, one
    stars-and-bars choice per prime, and inclusion-exclusion over the
    factors allowed to be 1 leaves the splits into exactly k factors >= 2,
    summed over k. The library sums over j only, with a recurrence for the
    alternating sum over k."""
    omega = sum(exponents)
    total = 0
    for j in range(1, omega + 1):
        ways = prod(comb(e + j - 1, e) for e in exponents)
        total += sum((-1) ** (k - j) * comb(k, j) * ways for k in range(j, omega + 1))
    return total


def ordered_factorizations(n: int) -> list[tuple[int, ...]]:
    """All ordered factor sequences with product n, factors >= 2."""
    if n == 1:
        return [()]
    result = []
    for f in range(2, n + 1):
        if n % f == 0:
            result.extend((f,) + rest for rest in ordered_factorizations(n // f))
    return result


def is_prime(n: int) -> bool:
    """Primality by trial division up to the square root of n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def prime_sieve(n: int) -> bytearray:
    """Sieve of Eratosthenes: ``sieve[k]`` is 1 when k < n is prime, else 0."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return sieve


def lucas_proves_prime(n: int, primes_of_n_minus_1: list[int]) -> bool:
    """Lucas's test: n is prime if some a has order exactly n - 1 mod n.

    ``primes_of_n_minus_1`` is the prime factorization of n - 1 with
    multiplicity; each factor is itself checked by trial division, so it
    must be small enough for that.
    """
    if prod(primes_of_n_minus_1) != n - 1 or not all(map(is_prime, primes_of_n_minus_1)):
        return False
    for a in range(2, 1000):
        if pow(a, n - 1, n) == 1 and all(
            pow(a, (n - 1) // q, n) != 1 for q in set(primes_of_n_minus_1)
        ):
            return True
    return False


def shape_class(lamp_counts: tuple[int, ...]) -> str:
    """The geometry of a layout by its definition: a triangle has rows of
    1, 2, ..., n lamps, a rectangle two or more rows of one length, and any
    other layout is irregular."""
    if list(lamp_counts) == list(range(1, len(lamp_counts) + 1)):
        return "TRIANGULAR"
    if len(lamp_counts) >= 2 and min(lamp_counts) == max(lamp_counts):
        return "RECTANGULAR"
    return "IRREGULAR"


def json_render(name: str, digits: tuple[int, ...], meridiem: str | None, minutes: int,
                cycle: int = 1440) -> str:
    """The JSON render of a state as ``json.dumps`` writes it with its default
    settings: ``minutes`` is the state's value, PM offset included. One past
    the end of the day, or whose lamps show a value outside the ``cycle``, has
    a null time."""
    shown = minutes - 720 if meridiem == "PM" else minutes
    return json.dumps({
        "scheme": name,
        "digits": list(digits),
        "meridiem": meridiem,
        "time": f"{minutes // 60:02d}:{minutes % 60:02d}" if minutes < 1440 and shown < cycle else None,
    })


def svg_render(lamp_counts: list[int], digits: tuple[int, ...], meridiem: str | None, layout: str) -> str:
    """The SVG of a state by its geometry. Each lamp owns a 40 px square cell; rows run top to
    bottom and lamps left to right, one shape per lamp. A lamp is a circle of radius 16 at the
    centre of its cell, and a row's cells are centred over the widest row (``"triangle"``) or
    flush left (``"left"``). In the ``"berlin"`` layout a row's lamps are rectangles that split
    the image's width into equal cells, each inset by 2 px on every side, so 4 px gaps.

    A row's lit lamps are its leftmost ``digit``: green for AM, red for PM and, with no meridiem,
    yellow but for every third lamp of an 11-lamp row, which is red. Unlit lamps are #dddddd.
    A whole number is written as an integer, any other to 6 significant digits.
    """
    pitch, radius, gap = 40, 16, 2
    widest = max(lamp_counts)
    width, height = widest * pitch, len(lamp_counts) * pitch
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">']
    for row, (lamps, lit) in enumerate(zip(lamp_counts, digits)):
        top = row * pitch
        missing = (widest - lamps) * pitch if layout == "triangle" else 0  # half of it is the row's indent
        for k in range(lamps):
            if k >= lit:
                fill = "#dddddd"
            elif meridiem is not None:
                fill = "green" if meridiem == "AM" else "red"
            else:
                fill = "red" if lamps == 11 and k % 3 == 2 else "yellow"
            if layout == "berlin":  # cell k spans k * width / lamps to (k + 1) * width / lamps
                lines.append(f'  <rect x="{_ratio(k * width + gap * lamps, lamps)}" y="{top + gap}" '
                             f'width="{_ratio(width - 2 * gap * lamps, lamps)}" height="{pitch - 2 * gap}" '
                             f'fill="{fill}"/>')
            else:  # (indent + k * pitch + pitch / 2) * 2
                centre = missing + (2 * k + 1) * pitch
                lines.append(f'  <circle cx="{_ratio(centre, 2)}" cy="{top + pitch // 2}" r="{radius}" '
                             f'fill="{fill}"/>')
    return "\n".join(lines) + "\n</svg>\n"


def ansi_render(lamp_counts: list[int], digits: tuple[int, ...], meridiem: str | None, layout: str,
                use_color: bool) -> str:
    """The terminal text of a state by its geometry: one line per row, top to bottom, lamps left to
    right, a row's leftmost ``digit`` lit (``●``) and the rest unlit (``○``). In ``"triangle"`` and
    ``"left"`` a row's glyphs are joined by a space, a cell 2 columns wide; in ``"berlin"`` each is
    bracketed, a cell 3 columns wide, with no joiner. ``"triangle"`` and ``"berlin"`` indent a row
    by half a cell per lamp it lacks against the widest row, rounded down; ``"left"`` does not.

    With color, a lit glyph is wrapped in its SGR code and a reset: 32 (green) for AM, 31 (red) for
    PM and, with no meridiem, 33 (yellow) but for every third lamp of an 11-lamp row, 31 (red).
    Unlit glyphs are never colored.
    """
    codes = {"green": 32, "red": 31, "yellow": 33}
    cell = 3 if layout == "berlin" else 2
    lines = []
    for lamps, lit in zip(lamp_counts, digits):
        glyphs = []
        for k in range(lamps):
            if k >= lit:
                glyph = "○"
            else:
                if meridiem is not None:
                    color = "green" if meridiem == "AM" else "red"
                else:
                    color = "red" if lamps == 11 and k % 3 == 2 else "yellow"
                glyph = f"\x1b[{codes[color]}m●\x1b[0m" if use_color else "●"
            glyphs.append(f"[{glyph}]" if layout == "berlin" else glyph)
        indent = 0 if layout == "left" else (max(lamp_counts) - lamps) * cell // 2
        lines.append(" " * indent + ("" if layout == "berlin" else " ").join(glyphs))
    return "\n".join(lines)


def _ratio(numerator: int, denominator: int) -> str:
    """numerator / denominator as SVG text: an integer when whole, else 6 significant digits."""
    if numerator % denominator == 0:
        return str(numerator // denominator)
    return f"{numerator / denominator:g}"
