"""enumerate: one ``enumerate_shapes`` or ``is_triangular_feasible`` call per op.

Every round has the same 30 ops, in seeded order, so that the median and
the 90th percentile of a round sit in the middle of one cost class rather
than on the edge between two:

====  ======================================================  ==========
ops   class                                                   cost today
====  ======================================================  ==========
 6    ``is_triangular_feasible`` on factorials and near-misses     ~2 us
 4    tiny targets: small factorials and prime powers             <0.05 ms
10    fresh primes near 4e6 (the median lands here)                ~0.1 ms
 4    highly composite numbers 120..2520, and filtered
      ``--triangular``/``--rectangular`` queries up to 5040      0.3-50 ms
 5    fresh semiprimes of two primes near 1e6 (p90 lands here)     ~90 ms
 1    a target past the default cap, such as 40320                ~450 ms
====  ======================================================  ==========

Primes and semiprimes are drawn fresh each round; the other classes draw
from small fixed pools, so their targets repeat across rounds. The
target past the cap cycles through its pool in seeded order, so that a
run of nine rounds or more meets each of them: they differ in cost and
in peak memory.
"""

from __future__ import annotations

from time import perf_counter

from oracles import (
    check_shape_list, expected_filtered, factorize_small, is_prime,
    ordered_factorization_count, triangular_rows,
)

NAME = "enumerate"
TINY = (6, 8, 12, 24, 27, 32, 81, 16807)
COMPOSITE = (120, 720, 840, 1260, 1680, 2520)
FILTERED = (720, 5040, 4096, 2520, 1680)
CAP = (40320, 45360, 50400, 55440, 60480, 362880, 2**18, 30240, 25200)
FEASIBLE = [6, 24, 120, 720, 5040, 40320, 3628800, 6227020800, 10**18, 1000, 2, 3]
FEASIBLE += [f + d for f in (720, 5040, 362880, 479001600) for d in (-1, 1)]
LIMIT = 100_000
TRIAL_REFERENCE_S = 2.0e-3
TRIAL_N = 1_000_003 * 1_000_033  # a semiprime with no factor below 60000


def _trial_division() -> None:
    d = 3
    while d < 60_000 and TRIAL_N % d:
        d += 2


def slowness(ctx) -> float:
    """How slow integer arithmetic is right now: the best of three timings
    of a trial-division loop, over its time on the reference machine.

    Divisor search is most of this workload's time, and it follows the
    machine's speed more closely than the run's general calibration loop
    does; the loop uses no lampclock code, so lampclock changes still show.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _trial_division()
        best = min(best, perf_counter() - t0)
    return best / TRIAL_REFERENCE_S


def _prime_near(rng, low: int) -> int:
    n = rng.randrange(low, low + low // 20) | 1
    while not is_prime(n):
        n += 2
    return n


class Enumerate:
    def __init__(self, ctx, rng):
        self.lc = ctx.lampclock
        self.rng = rng
        self.filters = {"TRIANGULAR": self.lc.ShapeClass.TRIANGULAR,
                        "RECTANGULAR": self.lc.ShapeClass.RECTANGULAR}
        self.counts = {n: ordered_factorization_count(factorize_small(n))
                       for n in TINY + COMPOSITE + FILTERED + CAP}
        self.cap_cycle = rng.sample(CAP, len(CAP))
        self.rounds = 0
        self._run([("feasible", 720, None, None), ("shapes", 720, None, self.counts[720]),
                   ("shapes", 4_000_037, None, 1)], None)  # warm-up

    def _ops(self):
        rng = self.rng
        counts = self.counts
        ops = [("feasible", rng.choice(FEASIBLE), None, None) for _ in range(6)]
        ops += [("shapes", n, None, counts[n]) for n in rng.sample(TINY, 4)]
        ops += [("shapes", _prime_near(rng, 4_000_000), None, 1) for _ in range(10)]
        ops += [("shapes", n, None, counts[n]) for n in rng.sample(COMPOSITE, 2)]
        ops += [("shapes", n, rng.choice(("TRIANGULAR", "RECTANGULAR")), counts[n])
                for n in rng.sample(FILTERED, 2)]
        for _ in range(5):
            p, q = _prime_near(rng, 1_000_000), _prime_near(rng, 1_000_000)
            ops.append(("shapes", p * q, None, 2 if p == q else 3))
        cap = self.cap_cycle[self.rounds % len(CAP)]
        self.rounds += 1
        ops.append(("shapes", cap, None, counts[cap]))
        rng.shuffle(ops)
        return ops

    def _check(self, op, out):
        kind, n, which, count = op
        if kind == "feasible":
            want = triangular_rows(n)
            return None if out == want else f"is_triangular_feasible({n}) = {out!r}, want {want!r}"
        if count > LIMIT:
            if isinstance(out, self.lc.EnumerationCapError):
                return None
            return f"enumerate_shapes({n}) = {type(out).__name__}, want cap error ({count} shapes)"
        if not isinstance(out, list):
            return f"enumerate_shapes({n}, {which}) raised {out!r}"
        lamps = [s.lamp_counts for s in out]
        if which is not None:
            want = expected_filtered(n, which)
            return None if lamps == want else f"enumerate_shapes({n}, {which}) = {lamps}, want {want}"
        return check_shape_list(lamps, [s.classification.value for s in out],
                                [s.total_lamps for s in out], n, count)

    def round(self, tracer):
        return self._run(self._ops(), tracer)

    def _run(self, ops, tracer):
        lc = self.lc
        latencies = []
        failures = []
        for op in ops:
            kind, n, which, count = op
            if tracer is not None:
                tracer.new_op()
                root = tracer.open("op")
            t0 = perf_counter()
            try:
                if kind == "feasible":
                    out = lc.is_triangular_feasible(n)
                else:
                    out = lc.enumerate_shapes(n, self.filters.get(which), LIMIT)
            except Exception as exc:  # judged by _check: expected or a failure
                out = exc
            latencies.append(perf_counter() - t0)
            if tracer is not None:
                tracer.close(root)
                if which is not None:
                    tracer.counters["schemes.filtered_returned"] += len(out) if isinstance(out, list) else 0
                    tracer.counters["schemes.filtered_factorizations"] += count
            reason = self._check(op, out)
            if reason:
                failures.append(reason)
            del out  # a cap error's traceback holds its partial list: free it before the next op
        return latencies, failures


def setup(ctx, rng):
    return Enumerate(ctx, rng)
