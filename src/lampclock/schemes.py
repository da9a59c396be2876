"""Enumeration of lamp-row layouts that realize a given state count.

A row of m lamps (monotone left-fill) shows m+1 states, so a display with
rows of ``m_1, ..., m_k`` lamps has ``(m_1+1) * ... * (m_k+1)`` states, and
each ordered factorization of a target N into factors >= 2 is one layout, a
factor f a row of f-1 lamps. Top rows are more significant, so order counts.

N is factored once: one gcd decides whether trial division by the primes
to 37 runs, then Miller-Rabin on the fewest bases known to be exact, and
Pollard's rho. The exponents give the number of layouts in one pass, so the
cap is checked before any layout is built, and the few that are not
irregular: the triangle if N == (n+1)!, k equal rows if k divides every
exponent. Bisection finds those few in the walk's lexicographic list.

The walk goes up the sorted divisors of N. The layouts of a divisor d are
each factor f of d, ascending, as a first row, followed by each layout of
d/f, built already and in order. N has at most 256 divisors under the cap,
so the walk makes at most 32,640 divisibility tests, one per pair f <= d
above 1, and keeps at most H(N) layouts of the divisors below N, freed
before any shape is built. Bare shapes get their lamps, then their class, by one map each.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import repeat
from math import comb, factorial, gcd, prod

from .codec import DEFAULT_SHAPE_LIMIT, MAX_CAPACITY, MAX_SHAPE_LIMIT, RowScheme, _excerpt, _new, _Record
from .catalog import make_scheme
from .errors import EnumerationCapError

MAX_TARGET = MAX_CAPACITY  # a target is a capacity; below this it is factored in bounded time


class ShapeClass(Enum):
    TRIANGULAR = "TRIANGULAR"
    RECTANGULAR = "RECTANGULAR"
    IRREGULAR = "IRREGULAR"


class SchemeShape(_Record):
    """A row layout by lamp counts (top first) and its geometry; ``total_lamps`` is their sum."""

    __slots__ = ("lamp_counts", "classification")

    def __init__(self, lamp_counts: tuple[int, ...], classification: ShapeClass):
        _set_lamp_counts(self, lamp_counts)
        _set_classification(self, classification)

    @property
    def total_lamps(self) -> int:
        return sum(self.lamp_counts)


# Module names for the hot paths (codec's rule at _AM): the members, and the slots' setters (one call each)
_TRIANGULAR, _RECTANGULAR, _IRREGULAR = ShapeClass
_set_lamp_counts, _set_classification = SchemeShape._setters

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
# (bound, bases): Miller-Rabin on these bases is exact below bound, which fools them (sources in README.md).
# Every base is below every n of its tier, so a prime n never divides its base.
_MR_TIERS = ((2_047, (2,)), (1_373_653, (2, 3)), (9_080_191, (31, 73)), (4_759_123_141, (2, 7, 61)),
             (1_122_004_669_633, (2, 13, 23, 1_662_803)), (2_152_302_898_747, _SMALL_PRIMES[:5]),
             (3_474_749_660_383, _SMALL_PRIMES[:6]), (341_550_071_728_321, _SMALL_PRIMES[:7]),
             (3_825_123_056_546_413_051, _SMALL_PRIMES[:9]), (MAX_TARGET, _SMALL_PRIMES))
_MR_BOUNDS = [bound for bound, _ in _MR_TIERS]
_RHO_BATCH = 64  # gcds are taken over products of this many differences


def _is_prime(n: int) -> bool:
    """Miller-Rabin for 37 < n < MAX_TARGET, with the fewest bases exact for n."""
    bases = _MR_TIERS[bisect_right(_MR_BOUNDS, n)][1]  # the first tier whose bound is above n
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 == d * 2**s with d odd
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper factor of the composite n (Pollard's rho, Brent 1980), with two steps per reduction mod n:
    rho compares values only modulo an unknown prime factor of n, and the unreduced odd step z is congruent
    mod n to the reduced one, so each gcd is, up to sign, the one a loop that reduces every step takes."""
    for c in range(1, n):  # c + n repeats the sequence of c, so each c is tried once and the loop ends
        y, r, q, g = 2, 2, 1, 1  # r is a power of two from 2, so every round and batch is whole pairs
        while g == 1:
            x = y
            for _ in range(r >> 1):
                z = y * y + c
                y = (z * z + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k) >> 1):
                    z = y * y + c
                    y = (z * z + c) % n
                    q = q * (x - z) * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: step through it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of a target as {prime: exponent}, ascending by prime; ValueError unless n is an
    int in [2, MAX_TARGET)."""
    if type(n) is not int or not 2 <= n < MAX_TARGET:  # type(): not bool or float
        raise ValueError(f"target_states must be an integer, at least 2 and below 2**64, got {_excerpt(n)}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES if gcd(n, _SMALL_PRODUCT) > 1 else ():  # no loop when no prime to 37 divides n
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    for m in pending:  # rho's two parts join the list behind m
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            pending += (d, m // d)
    return dict(sorted(factors.items())) if len(pending) > 1 else factors  # only rho adds primes out of order


def _shape_count(factors: dict[int, int]) -> int:
    """Ordered factorizations of the number with these Omega prime factors:
    ``ways`` counts the ordered splits into j factors >= 1, one stars-and-bars
    choice per prime, and inclusion-exclusion over factors of 1, summed over k
    factors >= 2, weighs it by t_j = sum((-1)**(k-j) * C(k, j) for k in j..Omega).
    As (2 - y) * sum(t_j * y**j) == 1 - (y - 1)**(Omega+1), t_0 = (1 + (-1)**Omega) / 2
    and t_j = (t_(j-1) + (-1)**(Omega-j) * C(Omega+1, j)) / 2, each halving exact."""
    exponents = factors.values()
    omega = sum(exponents)
    t, sign = (0, 1) if omega % 2 else (1, -1)  # t_0, and (-1) ** (omega - j) for j = 1
    total = 0
    for j in range(1, omega + 1):
        t = (t + sign * comb(omega + 1, j)) // 2
        sign = -sign
        ways = t
        for e in exponents:
            ways *= comb(e + j - 1, e)
        total += ways
    return total


def count_shapes(target_states: int) -> int:
    """Number of row layouts with exactly ``target_states`` display states, its ordered
    factorizations into factors >= 2 (Kalmar's function H(n)), computed without building any."""
    return _shape_count(_factorize(target_states))


def enumerate_shapes(target_states: int, shape_filter: ShapeClass | None = None,
                     limit: int = DEFAULT_SHAPE_LIMIT) -> list[SchemeShape]:
    """All row layouts with exactly ``target_states`` display states.

    Returns one shape per ordered factorization of ``target_states`` into factors >= 2,
    in lexicographic order of lamp counts, optionally restricted to one geometry class.
    ``target_states`` must be an int in [2, 2**64), ``shape_filter`` a ShapeClass or
    None and ``limit`` an int of at least 1, else :class:`ValueError`. The cap applies
    to the count of all shapes before filtering: when :func:`count_shapes` exceeds
    ``limit``, or ``MAX_SHAPE_LIMIT`` if smaller, :class:`EnumerationCapError` is
    raised before any shape is built.
    """
    factors = _factorize(target_states)  # checks the target first
    if shape_filter is not None and not isinstance(shape_filter, ShapeClass):  # no coercion of "TRIANGULAR"
        raise ValueError(f"ShapeClass or None expected, got {_excerpt(shape_filter)}")
    if type(limit) is not int or limit < 1:  # type(): not bool or float
        raise ValueError(f"limit must be an integer, at least 1, got {_excerpt(limit)}")
    limit = min(limit, MAX_SHAPE_LIMIT)
    if _shape_count(factors) > limit:
        raise EnumerationCapError(f"more than {limit} shapes for target {_excerpt(target_states)}")

    # The asked-for shapes that are not irregular: (1..n) if N == (n+1)!, (f-1,)*k if N == f**k
    special = {}
    if 2 in factors and shape_filter is not _RECTANGULAR and (rows := is_triangular_feasible(target_states)):
        special[tuple(range(1, rows + 1))] = _TRIANGULAR
    g = 1 if shape_filter is _TRIANGULAR else gcd(*factors.values())
    for k in range(g, 1, -1):  # N == f**k when k divides every exponent; larger k, smaller f
        if g % k == 0:
            special[(prod(p ** (e // k) for p, e in factors.items()) - 1,) * k] = _RECTANGULAR
    if shape_filter is _TRIANGULAR or shape_filter is _RECTANGULAR:
        return [SchemeShape(lamps, shape_filter) for lamps in special]
    divisors = [1]
    for p, e in factors.items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    divisors.sort()
    heads = []  # each factor f >= 2 up to d, ascending, with its row (f - 1,), shared by all layouts
    layouts = {1: [()]}  # the lamp counts of each divisor's layouts, in lexicographic order
    for d in divisors[1:]:  # each layouts[d // f] is already built, and in order
        heads.append((d, (d - 1,)))
        layouts[d] = [head + rest for f, head in heads if d % f == 0 for rest in layouts[d // f]]
    lamp_lists = layouts.pop(target_states)
    del layouts  # the shorter layouts, up to H(N) tuples, are freed before any shape is built
    # The list is in lexicographic order, so bisection finds the special layouts: no lookup per layout
    if shape_filter is not None:  # IRREGULAR: the special layouts go before any shape is built
        for i in sorted((bisect_left(lamp_lists, lamps) for lamps in special), reverse=True):
            del lamp_lists[i]
        special = {}
    # Bare shapes, then one C-level pass per slot: a setter returns None, so any() runs each map to its end
    shapes = list(map(_new, repeat(SchemeShape, len(lamp_lists))))
    any(map(_set_lamp_counts, shapes, lamp_lists))
    any(map(_set_classification, shapes, repeat(_IRREGULAR)))  # endless: map stops at the end of the shapes
    for lamps, cls in special.items():
        _set_classification(shapes[bisect_left(lamp_lists, lamps)], cls)
    return shapes


def is_triangular_feasible(target_states: int) -> int | None:
    """Row count n such that a triangle of 1..n lamps shows exactly
    ``target_states`` states, i.e. target_states == (n+1)!; None if no
    such n exists. The target's factors of 2 and its length are checked before a factorial is built,
    and one is built at most."""
    if type(target_states) is not int or target_states < 2:  # no upper bound: (n+1)! for any n
        raise ValueError(f"target_states must be an integer of at least 2, got {_excerpt(target_states)}")
    if target_states & 1:  # every (n+1)! from 2! up is even
        return None
    # m! has m - popcount(m) factors 2, a count that only an even m and m + 1 share, so the first m with the
    # target's count is even; and m! has at least m * (bit_length(m) - 3) bits (Stirling), so a shorter
    # target is neither m! nor (m + 1)!
    twos = (target_states & -target_states).bit_length() - 1
    m = twos + 1
    while (found := m - m.bit_count()) < twos:
        m += 1
    if found > twos or m * (m.bit_length() - 3) >= target_states.bit_length():
        return None
    fact = factorial(m)
    return m - 1 if fact == target_states else m if fact * (m + 1) == target_states else None


def shape_to_scheme(shape: SchemeShape, base_unit: int = 1, cycle_minutes: int = 720,
                    name: str | None = None) -> RowScheme:
    """Realize a shape as a concrete, validated scheme.

    The shape's capacity in minutes must cover the requested cycle, else
    :class:`InvalidSchemeError`.
    """
    if name is None:
        name = "rows-" + "-".join(str(c) for c in shape.lamp_counts)
    return make_scheme(name, shape.lamp_counts, cycle_minutes, base_unit)
