"""Whole-domain sweeps: each checks the library against an oracle over a finite domain that tier-1 only
samples, and asserts the exact size of that domain, so that a sweep which silently shrank fails too.

pytest collects a file whose name does not match ``test_*.py`` only when it is named on the command
line, so a plain ``pytest`` run leaves these out. Run them from the repository root, all five (about
2.5 minutes on one CPU with Python 3.11) or one by its node id:

    python -m pytest -q tests/sweeps.py
    python -m pytest -q tests/sweeps.py::test_svg_sweep

Each test lists the first 20 mismatches in its failure message.
"""

import math

from lampclock import (Layout, RenderFormat, RenderSpec, SchemeShape, ShapeClass, TimeOfDay, count_shapes, encode,
                       enumerate_shapes, make_scheme, render)
from lampclock.codec import MAX_SHAPE_LIMIT
from lampclock.schemes import _MR_TIERS, _factorize, _is_prime
from oracles import ansi_render, ordered_factorizations, prime_sieve, shape_class, svg_render

STEP = 60  # minutes between the sliced times of one face in the SVG and ANSI sweeps
BOUND = 15_000  # the last target of the enumeration sweep: the largest round bound under 60 s on one CPU


def assert_none(wrong, what):
    assert not wrong, f"{len(wrong)} mismatches; {what} disagrees with the oracle at {wrong[:20]}"


def test_miller_rabin_tier():
    """Miller-Rabin on the bases 31 and 73 against a sieve, over the whole tier where ``lampclock.schemes``
    uses them: every odd n in [1373653, 9080191). Tier-1 checks both ends of the tier."""
    low, high = 1_373_653, 9_080_191
    bounds = [bound for bound, _ in _MR_TIERS]
    assert (high, (31, 73)) in _MR_TIERS and bounds[bounds.index(high) - 1] == low, _MR_TIERS
    sieve = prime_sieve(high)
    odd = range(low, high, 2)
    assert len(odd) == 3_853_269
    assert_none([n for n in odd if _is_prime(n) != sieve[n]], "Miller-Rabin")


def test_pollard_brent():
    """``_factorize`` against a sieve on every number that reaches Pollard's rho below 10**7: each odd
    composite with no prime factor up to 37 must come back as a product of primes, each confirmed by the
    sieve, equal to n. Tier-1 checks ``_pollard_brent`` on the same set below 200,000."""
    high = 10**7
    sieve = prime_sieve(high)
    composites = [n for n in range(3, high, 2) if not sieve[n] and all(n % p for p in range(3, 38, 2))]
    assert len(composites) == 822_635
    wrong = []
    for n in composites:
        factors = _factorize(n)
        if math.prod(p**e for p, e in factors.items()) != n or not all(sieve[p] for p in factors):
            wrong.append((n, factors))
    assert_none(wrong, "_factorize")


def sliced_states():
    """Every layout of 720 as a 12-hour face and of 1440 as a 24-hour face, from the oracle, not the
    library: 1,888 and 5,536 faces, the one-row faces of 719 and 1439 lamps among them. Each face comes
    at 00:00 (all lamps off), 23:59 (all on) and every 60th minute from an offset that steps with the
    face, so that the offsets of neighbouring faces differ: ``(i, lamps, cycle, minute, scheme, state,
    layouts)``, with ``i`` the face's index and ``layouts`` every layout the face accepts (blocks only
    for a 4-row face)."""
    faces = [(factors, cycle) for cycle in (720, 1440) for factors in ordered_factorizations(cycle)]
    assert len(faces) == 7_424
    for i, (factors, cycle) in enumerate(faces):
        lamps = [f - 1 for f in factors]
        scheme = make_scheme("sweep", lamps, cycle)
        layouts = list(Layout) if len(lamps) == 4 else [Layout.TRIANGLE_CENTERED, Layout.LEFT_ALIGNED]
        for minute in sorted({0, 1439, *range(i * 7 % STEP, 1440, STEP)}):
            yield i, lamps, cycle, minute, scheme, encode(TimeOfDay(minute), scheme), layouts


def test_svg_sweep():
    """The SVG render of every sliced state in every layout against ``oracles.svg_render``. The colour
    setting alternates between faces; SVG has no uncoloured form. Tier-1 checks drawn faces."""
    renders, wrong = 0, []
    for i, lamps, cycle, minute, scheme, state, layouts in sliced_states():
        meridiem = state.meridiem and state.meridiem.value
        for layout in layouts:
            renders += 1
            expected = svg_render(lamps, state.digits, meridiem, layout.value)
            if render(state, scheme, RenderSpec(RenderFormat.SVG, layout, use_color=i % 2 == 0)) != expected:
                wrong.append((lamps, cycle, minute, layout.value))
    assert renders == 422_845
    assert_none(wrong, "the SVG render")


def test_ansi_sweep():
    """The ANSI render of every sliced state in every layout, with colour on and off, against
    ``oracles.ansi_render``. Tier-1 checks drawn faces."""
    renders, wrong = 0, []
    for i, lamps, cycle, minute, scheme, state, layouts in sliced_states():
        meridiem = state.meridiem and state.meridiem.value
        for layout in layouts:
            for use_color in (False, True):
                renders += 1
                expected = ansi_render(lamps, state.digits, meridiem, layout.value, use_color)
                if render(state, scheme, RenderSpec(RenderFormat.ANSI, layout, use_color)) != expected:
                    wrong.append((lamps, cycle, minute, layout.value, use_color))
    assert renders == 845_690
    assert_none(wrong, "the ANSI render")


def test_enumerate_sweep():
    """``enumerate_shapes`` and ``count_shapes`` on every target from 2 to BOUND against the oracle's whole
    records: the lamp counts of each ordered factorization from ``oracles.ordered_factorizations``, in
    lexicographic order, with ``oracles.shape_class`` and their sum. The library must return exactly those
    records, unfiltered and under each ``ShapeClass`` filter (the oracle's records of that class, in the
    same order), and ``count_shapes`` must equal their number. Tier-1 checks a few dozen targets."""
    targets, queries, wrong = range(2, BOUND + 1), 0, []
    for n in targets:
        lamp_counts = sorted(tuple(f - 1 for f in factors) for factors in ordered_factorizations(n))
        records = [SchemeShape(lamps, ShapeClass(shape_class(lamps))) for lamps in lamp_counts]
        if count_shapes(n) != len(records):
            wrong.append((n, "count_shapes"))
        for shape_filter in (None, *ShapeClass):
            expected = [r for r in records if shape_filter in (None, r.classification)]
            queries += 1
            try:
                same = enumerate_shapes(n, shape_filter, MAX_SHAPE_LIMIT) == expected
            except AttributeError:  # a slot that the fill left unset raises when it is compared
                same = False
            if not same:
                wrong.append((n, shape_filter and shape_filter.value))
    assert (queries, len(targets)) == (59_996, 14_999)
    assert_none(wrong, "the library")
