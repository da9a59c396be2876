"""``enumerate_shapes`` and ``count_shapes`` against the oracle on every target from 2 to BOUND.

For each target, the oracle's whole records come from ``oracles.ordered_factorizations``: the lamp
counts of each ordered factorization, in lexicographic order, with ``oracles.shape_class`` and the sum
of the lamp counts. The library must return exactly those records, unfiltered and under each
``ShapeClass`` filter (the oracle's records of that class, in the same order), and ``count_shapes``
must equal their number. Tier-1 compares whole records on a few dozen targets; this script covers
every target up to BOUND, which takes about 50 s on one CPU with Python 3.11, so it is not named as
a test module and pytest does not collect it. Run it from the repository root:

    PYTHONPATH=src:tests python tests/check_enumerate_sweep.py

It prints the targets and queries checked and the time, and exits 1 on any mismatch.
"""

import sys
import time

from lampclock import SchemeShape, ShapeClass, count_shapes, enumerate_shapes
from lampclock.codec import MAX_SHAPE_LIMIT
from oracles import ordered_factorizations, shape_class

BOUND = 15_000  # the largest round bound whose sweep took under 60 s on one CPU (Python 3.11)


def main() -> int:
    start = time.perf_counter()
    queries, wrong = 0, []
    for n in range(2, BOUND + 1):
        lamp_counts = sorted(tuple(f - 1 for f in factors) for factors in ordered_factorizations(n))
        records = [SchemeShape(lamps, ShapeClass(shape_class(lamps)), sum(lamps)) for lamps in lamp_counts]
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
    print(f"targets 2..{BOUND}: {queries} enumerate_shapes queries and {BOUND - 1} counts checked against the "
          f"oracle, {len(wrong)} mismatches, {time.perf_counter() - start:.1f} s")
    if wrong:
        print("the library disagrees with the oracle at", wrong[:20])
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
