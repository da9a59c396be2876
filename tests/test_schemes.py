import gc
import math
import time
import tracemalloc

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from lampclock import (
    BERLIN,
    TRIANGULAR,
    EnumerationCapError,
    InvalidSchemeError,
    SchemeShape,
    ShapeClass,
    count_shapes,
    enumerate_shapes,
    is_triangular_feasible,
    shape_to_scheme,
    validate,
)
import lampclock.schemes as schemes
from lampclock.schemes import _MR_TIERS, _factorize, _is_prime, _pollard_brent
from oracles import (is_prime, lucas_proves_prime, ordered_factorization_count,
                     ordered_factorization_count_by_exponents, ordered_factorizations, prime_sieve, shape_class)


def enumerated_shape(counts):
    """The shape that ``enumerate_shapes`` lists for this layout, among those of its state count."""
    [shape] = [s for s in enumerate_shapes(math.prod(c + 1 for c in counts)) if s.lamp_counts == counts]
    return shape


def one_step_rho(n):
    """The reference for ``_pollard_brent``: Brent's loop on the same schedule (r from 2, batches of
    ``_RHO_BATCH``), reducing mod n at every step; the two-step loop must return the same factor."""
    for c in range(1, n):
        y, r, q, g = 2, 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, schemes._RHO_BATCH):
                ys = y
                for _ in range(min(schemes._RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                if g > 1:
                    break
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


class TestShapeClasses:
    # (1,) from 2 states, (1, 2) from 6 and (1, 2, 3, 4, 5) from 720
    @pytest.mark.parametrize("counts", [(1,), (1, 2), (1, 2, 3, 4, 5)])
    def test_triangular(self, counts):
        assert enumerated_shape(counts) == SchemeShape(counts, ShapeClass.TRIANGULAR)
        assert shape_class(counts) == "TRIANGULAR"

    # (1, 1) from 4 states, (4, 4, 4) from 125 and (2, 2) from 9
    @pytest.mark.parametrize("counts", [(1, 1), (4, 4, 4), (2, 2)])
    def test_rectangular(self, counts):
        assert enumerated_shape(counts) == SchemeShape(counts, ShapeClass.RECTANGULAR)
        assert shape_class(counts) == "RECTANGULAR"

    # (5,) and (2, 1) from 6 states, (4, 4, 11, 4) from 1500 and (1, 2, 4) from 30
    @pytest.mark.parametrize("counts", [(5,), (2, 1), (4, 4, 11, 4), (1, 2, 4)])
    def test_irregular(self, counts):
        assert enumerated_shape(counts) == SchemeShape(counts, ShapeClass.IRREGULAR)
        assert shape_class(counts) == "IRREGULAR"


class TestEnumerateShapes:
    def test_six_states(self):
        shapes = enumerate_shapes(6)
        assert [list(s.lamp_counts) for s in shapes] == [[1, 2], [2, 1], [5]]

    def test_720_triangular_unique(self):
        shapes = enumerate_shapes(720, ShapeClass.TRIANGULAR)
        assert [list(s.lamp_counts) for s in shapes] == [[1, 2, 3, 4, 5]]
        assert shapes[0].total_lamps == 15

    def test_1000_has_no_triangle(self):
        assert enumerate_shapes(1000, ShapeClass.TRIANGULAR) == []

    def test_two_states(self):
        shapes = enumerate_shapes(2)
        assert [list(s.lamp_counts) for s in shapes] == [[1]]
        assert shapes[0].classification is ShapeClass.TRIANGULAR

    @pytest.mark.parametrize("bad", [1, 0, -6])
    def test_target_below_two_rejected(self, bad):
        with pytest.raises(ValueError):
            enumerate_shapes(bad)

    @pytest.mark.parametrize("bad", [2**64, 10**30])
    def test_target_from_2_to_the_64_rejected(self, bad):
        with pytest.raises(ValueError):
            enumerate_shapes(bad)
        with pytest.raises(ValueError):
            count_shapes(bad)

    # type(x) is int: a float, a bool or a string is a ValueError, not a TypeError or a count
    @pytest.mark.parametrize("bad", [720.0, 2.5, True, "720", None], ids=repr)
    def test_target_must_be_an_int(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            enumerate_shapes(bad)
        with pytest.raises(ValueError, match="must be an integer"):
            count_shapes(bad)

    # a type check, not coercion: "TRIANGULAR" is the value of a ShapeClass, not one
    @pytest.mark.parametrize("bad", ["TRIANGULAR", "IRREGULAR", 0, True, ShapeClass], ids=repr)
    def test_filter_must_be_a_shape_class(self, bad):
        with pytest.raises(ValueError, match="ShapeClass or None expected"):
            enumerate_shapes(720, bad)

    # one type(limit) is int test: None, a string, a bool or a float is a ValueError, not a cap
    @pytest.mark.parametrize("bad", [None, "10", True, 0, -1, 2.5], ids=repr)
    def test_limit_must_be_a_positive_int(self, bad):
        with pytest.raises(ValueError, match="limit must be an integer"):
            enumerate_shapes(720, limit=bad)

    # repr() refuses an int of over 4,300 digits: the message is the library's own, not the interpreter's
    @pytest.mark.parametrize("call, message", [
        (lambda: count_shapes(10**5000), "at least 2 and below 2**64, got <int too long to show>"),
        (lambda: enumerate_shapes(10**5000), "at least 2 and below 2**64, got <int too long to show>"),
        (lambda: enumerate_shapes(720, limit=-10**5000), "limit must be an integer, at least 1, got <int too long"),
        (lambda: is_triangular_feasible(-10**5000), "at least 2, got <int too long to show>"),
    ], ids=["count", "enumerate", "limit", "triangular"])
    def test_an_int_too_long_to_show_is_described(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert message in str(info.value) and "4300" not in str(info.value)

    def test_leaves_no_reference_cycles(self):
        # a capped call must not keep its work alive until a full collection
        gc.collect()
        gc.disable()
        try:
            enumerate_shapes(720)
            assert gc.collect() == 0
            try:
                enumerate_shapes(40320)
            except EnumerationCapError:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_frees_the_shorter_layouts_before_building_shapes(self):
        enumerate_shapes(12)  # module set-up, before tracing
        tracemalloc.start()
        try:
            shapes = enumerate_shapes(5040)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(shapes) == 20128
        assert peak < 1.25 * held, (peak, held)

    def test_cap_overflow(self):
        with pytest.raises(EnumerationCapError):
            enumerate_shapes(720, limit=100)

    def test_cap_counts_prefilter_shapes(self):
        # only one triangular shape exists for 720, but enumeration still
        # walks all 1888 factorizations
        with pytest.raises(EnumerationCapError):
            enumerate_shapes(720, ShapeClass.TRIANGULAR, limit=100)

    # the larger targets share long suffixes between layouts, which the order must survive
    @pytest.mark.parametrize("n", [*range(2, 61), 360, 720, 1024, 1296, 2520, 5040])
    def test_matches_exhaustive_factorizations(self, n):
        expected = sorted(
            tuple(f - 1 for f in factors) for factors in ordered_factorizations(n)
        )
        got = [s.lamp_counts for s in enumerate_shapes(n)]
        assert got == expected  # same shapes, already in lexicographic order
        # whole records: a slot that a fill pass missed raises AttributeError when compared
        records = [SchemeShape(lamps, ShapeClass(shape_class(lamps))) for lamps in expected]
        assert enumerate_shapes(n) == records

    @given(st.integers(min_value=2, max_value=400))
    def test_count_matches_oracle(self, n):
        assert len(enumerate_shapes(n)) == ordered_factorization_count(n)

    def test_count_shapes_matches_oracle(self):
        for n in range(2, 5001):
            assert count_shapes(n) == ordered_factorization_count(n), n

    # below 5000 a target has at most 12 prime factors; these reach 63
    def test_count_shapes_of_powers_of_two(self):
        for k in range(1, 64):  # a layout of 2**k is a composition of k
            assert count_shapes(2**k) == 2 ** (k - 1), k

    def test_count_shapes_of_primorials_are_fubini_numbers(self):
        # the ordered set partitions of r primes, OEIS A000670; 2 * 3 * ... * 47 < 2**64
        fubini = [1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563, 1622632573, 28091567595,
                  526858348381, 10641342970443, 230283190977853]
        primes = [p for p in range(2, 48) if is_prime(p)]
        assert [count_shapes(math.prod(primes[:r])) for r in range(1, 16)] == fubini

    def test_count_shapes_of_two_prime_powers_matches_the_double_sum(self):
        for a in range(64):
            for b in range(41):
                if 2 <= 2**a * 3**b < 2**64:
                    exponents = [e for e in (a, b) if e]
                    assert count_shapes(2**a * 3**b) == ordered_factorization_count_by_exponents(exponents), (a, b)

    @pytest.mark.parametrize("shape_filter", list(ShapeClass))
    @given(st.integers(min_value=2, max_value=2520))
    @example(2)
    @example(64)
    @example(720)
    @example(729)
    @example(1296)
    @example(4096)
    def test_filter_equals_filtered_enumeration(self, shape_filter, n):
        expected = [s for s in enumerate_shapes(n) if s.classification is shape_filter]
        assert enumerate_shapes(n, shape_filter) == expected

    @given(st.integers(min_value=2, max_value=2520))
    @example(2)
    @example(6)
    @example(64)
    @example(720)
    @example(729)
    @example(1296)
    @example(4096)
    @example(5040)
    @example(65536)  # a rectangle at index 0 of a long list
    def test_classification_matches_oracle(self, n):
        for shape in enumerate_shapes(n):
            assert shape.classification.value == shape_class(shape.lamp_counts)
            assert shape.total_lamps == sum(shape.lamp_counts)

    # 65536 == 2**16: 32,768 layouts, the four rectangles at 0, 21845, 30583 and 32639
    @pytest.mark.parametrize("shape_filter", [None, *ShapeClass])
    @pytest.mark.parametrize("n", [720, 4096, 5040, 65536])
    def test_builds_only_what_it_returns(self, monkeypatch, shape_filter, n):
        built = []
        init, new = SchemeShape.__init__, schemes._new

        def counting_init(self, *args):
            built.append(None)
            init(self, *args)

        def counting_new(cls):  # the bare instances that enumerate_shapes fills through the slots
            built.append(None)
            return new(cls)

        monkeypatch.setattr(SchemeShape, "__init__", counting_init)
        monkeypatch.setattr(schemes, "_new", counting_new)
        shapes = enumerate_shapes(n, shape_filter)
        assert len(built) == len(shapes)

    def test_rectangular_query_needs_no_triangle(self, monkeypatch):
        def no_triangles(target_states):
            raise AssertionError("a rectangular query asked for the triangle")

        monkeypatch.setattr(schemes, "is_triangular_feasible", no_triangles)
        assert [s.lamp_counts for s in enumerate_shapes(720, ShapeClass.RECTANGULAR)] == []
        assert [s.lamp_counts for s in enumerate_shapes(64, ShapeClass.RECTANGULAR)] == [
            (1, 1, 1, 1, 1, 1), (3, 3, 3), (7, 7)]

    def test_triangular_query_builds_no_rectangle(self, monkeypatch):
        # the rectangles come from the gcd of the exponents and a product of prime powers. Factoring
        # takes gcds of its own, so the targets are factored first and the query is handed the result.
        factorizations = {n: _factorize(n) for n in (4096, 720)}

        def no_rectangles(*args):
            raise AssertionError("a triangular query worked out the rectangles")

        monkeypatch.setattr(schemes, "_factorize", lambda n: dict(factorizations[n]))
        monkeypatch.setattr(schemes, "gcd", no_rectangles)
        monkeypatch.setattr(schemes, "prod", no_rectangles)
        assert enumerate_shapes(4096, ShapeClass.TRIANGULAR) == []
        assert [s.lamp_counts for s in enumerate_shapes(720, ShapeClass.TRIANGULAR)] == [(1, 2, 3, 4, 5)]

    @given(st.integers(min_value=2, max_value=400))
    def test_products_hit_target_exactly(self, n):
        for shape in enumerate_shapes(n):
            assert math.prod(c + 1 for c in shape.lamp_counts) == n
            assert shape.total_lamps == sum(shape.lamp_counts)

    @given(st.integers(min_value=2, max_value=2520))
    def test_triangular_filter_agrees_with_feasibility(self, n):
        triangles = enumerate_shapes(n, ShapeClass.TRIANGULAR)
        rows = is_triangular_feasible(n)
        if rows is None:
            assert triangles == []
        else:
            assert len(triangles) == 1
            assert triangles[0].lamp_counts == tuple(range(1, rows + 1))


class TestFactorize:
    @pytest.mark.parametrize("n", [
        561, 41041, 825265,  # Carmichael numbers
        # the least strong pseudoprimes to the bases 2, 2..3, 2..5, 2..7, 2..11, 2..13, 2..19
        # and 2..31; each but 2..5's and 2..7's is the bound of a tier, so it is tested with the next tier's bases
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
        3825123056546413051,
        999983**2, 1000003**2, 999983**3, 1000003**3,
        2147483647 * 2147483629, 2147483659 * 2147483647,  # two primes near 2**31
        (2**32 - 5) * (2**32 - 17), (2**32 - 5) ** 2,  # the hardest below 2**64: two primes near 2**32
    ])
    def test_product_of_trial_division_primes(self, n):
        factors = _factorize(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        assert all(is_prime(p) for p in factors)
        assert list(factors) == sorted(factors)

    def test_pollard_brent_gives_the_one_step_proper_divisor_below_200000(self):
        # every odd composite with no prime factor up to 37, as _factorize passes them;
        # tests/sweeps.py::test_pollard_brent sweeps the same set below 10**7
        sieve = prime_sieve(200_000)
        composites = [n for n in range(3, 200_000, 2) if not sieve[n] and all(n % p for p in range(3, 38, 2))]
        assert len(composites) == 11_798
        factors = {n: _pollard_brent(n) for n in composites}
        assert [n for n, d in factors.items() if not 1 < d < n or n % d] == []
        assert [n for n, d in factors.items() if d != one_step_rho(n)] == []

    # The gcds in the order taken. 2021: the third batch's gcd is n, and the replay's first step finds 43.
    # 2537: the replay's first step gives n too, so c moves from 1 to 2, whose second batch finds 43.
    @pytest.mark.parametrize("n, gcds", [(2021, [1, 1, 2021, 43]), (2537, [1, 1, 2537, 2537, 1, 43])])
    def test_pollard_brent_replays_an_overshot_batch_and_moves_to_the_next_c(self, monkeypatch, n, gcds):
        taken = []
        monkeypatch.setattr(schemes, "gcd", lambda a, b: taken.append(math.gcd(a, b)) or taken[-1])
        assert _pollard_brent(n) == 43
        assert taken == gcds

    def test_largest_prime_below_2_to_the_64(self):
        n = 2**64 - 59
        assert _factorize(n) == {n: 1}
        assert lucas_proves_prime(n, [2, 2, 11, 137, 547, 5594472617641])

    @pytest.mark.parametrize("twos, threes", [(3, 22), (4, 36)])  # inside the 5th and 8th tiers
    def test_primes_of_the_middle_tiers(self, twos, threes):
        n = 2**twos * 3**threes + 1
        assert _factorize(n) == {n: 1}
        assert lucas_proves_prime(n, [2] * twos + [3] * threes)

    @pytest.mark.parametrize("bound, factors, bases", [
        (9080191, {2131: 1, 4261: 1}, (31, 73)),
        (4759123141, {48781: 1, 97561: 1}, (2, 7, 61)),
        (1122004669633, {611557: 1, 1834669: 1}, (2, 13, 23, 1662803)),
    ])
    def test_each_minimal_base_set_is_fooled_at_its_bound(self, bound, factors, bases):
        # Jaeschke's sets: exact below the bound, and the bound itself is a strong pseudoprime to them
        assert (bound, bases) in _MR_TIERS
        assert _factorize(bound) == factors and all(is_prime(p) for p in factors)
        s = ((bound - 1) & (1 - bound)).bit_length() - 1
        odd = (bound - 1) >> s
        for a in bases:
            assert pow(a, odd, bound) == 1 or bound - 1 in [pow(a, odd << r, bound) for r in range(s)]

    # a prime just below the bound of each tier but the last three, with the primes of n - 1
    @pytest.mark.parametrize("n, primes_of_n_minus_1, bases", [
        (2039, [2, 1019], (2,)),
        (1373639, [2, 7, 59, 1663], (2, 3)),
        (9080189, [2, 2, 13, 41, 4259], (31, 73)),
        (4759123129, [2, 2, 2, 3, 53, 3741449], (2, 7, 61)),
        (1122004669603, [2, 3, 131, 1427486857], (2, 13, 23, 1662803)),
        (2152302898729, [2, 2, 2, 3, 2689, 33350423], (2, 3, 5, 7, 11)),
        (3474749660329, [2, 2, 2, 3, 3, 3, 30259, 531637], (2, 3, 5, 7, 11, 13)),
    ], ids=str)
    def test_primes_below_the_bounds_use_the_fewest_bases(self, monkeypatch, n, primes_of_n_minus_1, bases):
        assert lucas_proves_prime(n, primes_of_n_minus_1)
        assert _factorize(n) == {n: 1}
        used = []  # a module global shadows the builtin pow that _is_prime calls
        monkeypatch.setattr(schemes, "pow", lambda a, d, m: used.append(a) or pow(a, d, m), raising=False)
        assert _is_prime(n)
        assert tuple(used) == bases

    def test_is_prime_agrees_with_a_sieve_below_a_million(self):
        sieve = prime_sieve(10**6)
        assert [n for n in range(39, 10**6, 2) if _is_prime(n) != sieve[n]] == []

    def test_is_prime_agrees_with_a_sieve_at_both_ends_of_the_31_73_tier(self):
        # the whole tier, [1373653, 9080191), is checked by tests/sweeps.py::test_miller_rabin_tier
        sieve = prime_sieve(9_080_191)
        for low, high in ((1_373_653, 1_573_653), (8_880_191, 9_080_191)):
            assert [n for n in range(low, high, 2) if _is_prime(n) != sieve[n]] == []


class TestTriangularFeasibility:
    def test_twelve_hours_of_minutes(self):
        assert is_triangular_feasible(720) == 5

    def test_smallest(self):
        assert is_triangular_feasible(2) == 1

    def test_full_day_is_not_factorial(self):
        assert is_triangular_feasible(1440) is None

    def test_decimal_day_is_not_factorial(self):
        # 10 hours of 100 minutes
        assert is_triangular_feasible(1000) is None

    @pytest.mark.parametrize("n", range(1, 300))
    def test_recognizes_every_factorial(self, n):
        fact = math.factorial(n + 1)
        assert is_triangular_feasible(fact) == n
        assert is_triangular_feasible(fact + 2) is None  # one factor 2, as 2! has, and larger
        assert fact == 2 or is_triangular_feasible(fact - 2) is None

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            is_triangular_feasible(1)

    @pytest.mark.parametrize("bad", [720.0, 2.5, True, "720", None], ids=repr)
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            is_triangular_feasible(bad)

    def test_has_no_upper_bound(self):
        assert is_triangular_feasible(math.factorial(21)) == 20  # past 2**64

    def test_matches_the_factorials_below_200000(self):
        rows = {math.factorial(n + 1): n for n in range(1, 9)}  # 9! = 362880
        assert [t for t in range(2, 200_000) if is_triangular_feasible(t) != rows.get(t)] == []

    # a loop over the factorials below the target took 1.4 s, 5.5 s and 2.5 s on these
    @pytest.mark.parametrize("build, rows", [(lambda: 2**800_000, None), (lambda: 2**1_600_000, None),
                                             (lambda: math.factorial(100_001), 100_000)],
                             ids=["2**800000", "2**1600000", "100001!"])
    def test_huge_targets_take_under_a_second(self, build, rows):
        target = build()  # not timed
        start = time.perf_counter()
        assert is_triangular_feasible(target) == rows
        assert time.perf_counter() - start < 1


class TestShapeToScheme:
    def test_realizes_builtin_triangular(self):
        shape = SchemeShape((1, 2, 3, 4, 5), ShapeClass.TRIANGULAR)
        scheme = shape_to_scheme(shape, 1, 720, name="triangular")
        assert scheme == TRIANGULAR

    def test_realizes_builtin_berlin(self):
        shape = SchemeShape((4, 4, 11, 4), ShapeClass.IRREGULAR)
        scheme = shape_to_scheme(shape, 1, 1440, name="berlin")
        assert scheme == BERLIN

    def test_capacity_shortfall_rejected(self):
        with pytest.raises(InvalidSchemeError):
            shape_to_scheme(SchemeShape((1,), ShapeClass.TRIANGULAR), 1, 720)

    def test_generated_name(self):
        scheme = shape_to_scheme(SchemeShape((2, 1), ShapeClass.IRREGULAR), 1, 6)
        assert scheme.name == "rows-2-1"

    def test_all_enumerated_shapes_validate(self):
        for shape in enumerate_shapes(24):
            scheme = shape_to_scheme(shape, 1, 24)
            assert validate(scheme).ok
