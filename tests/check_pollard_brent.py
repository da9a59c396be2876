"""``_factorize`` against a sieve on every number that reaches Pollard's rho below
10**7: each odd composite n < 10**7 with no prime factor up to 37.

Each such n must come back as a product of primes, each confirmed by the sieve,
equal to n. Tier-1 checks ``_pollard_brent`` on the same set below 200,000; this
script checks all of it, which takes about 30 s on one CPU with Python 3.11,
so it is not named as a test module and pytest does not collect it. Run it from
the repository root:

    PYTHONPATH=src:tests python tests/check_pollard_brent.py

It prints the count of composites checked and the time, and exits 1 on any
mismatch.
"""

import math
import sys
import time

from lampclock.schemes import _factorize
from oracles import prime_sieve

HIGH = 10**7


def main() -> int:
    start = time.perf_counter()
    sieve = prime_sieve(HIGH)
    composites = [n for n in range(3, HIGH, 2) if not sieve[n] and all(n % p for p in range(3, 38, 2))]
    wrong = []
    for n in composites:
        factors = _factorize(n)
        if math.prod(p**e for p, e in factors.items()) != n or not all(sieve[p] for p in factors):
            wrong.append((n, factors))
    print(f"{len(composites)} odd composites below {HIGH} with no prime factor up to 37, "
          f"{len(wrong)} mismatches, {time.perf_counter() - start:.1f} s")
    if wrong:
        print("_factorize disagrees with the sieve at", wrong[:20])
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
