"""Miller-Rabin on the bases 31 and 73 against a sieve, over the whole tier
where ``lampclock.schemes`` uses them: every odd n in [1373653, 9080191).

Tier-1 checks both ends of the tier; this script checks all of it, which takes
about 14 s on one CPU with Python 3.11, so it is not named as a test module and
pytest does not collect it. Run it from the repository root:

    PYTHONPATH=src:tests python tests/check_miller_rabin_tier.py

It prints the count of numbers checked and exits 1 on any mismatch.
"""

import sys
import time

from lampclock.schemes import _MR_TIERS, _is_prime
from oracles import prime_sieve

LOW, HIGH = 1_373_653, 9_080_191


def main() -> int:
    bounds = [bound for bound, _ in _MR_TIERS]
    if (HIGH, (31, 73)) not in _MR_TIERS or bounds[bounds.index(HIGH) - 1] != LOW:
        print(f"the tier [{LOW}, {HIGH}) with bases 31 and 73 is not in _MR_TIERS: {_MR_TIERS}")
        return 1
    start = time.perf_counter()
    sieve = prime_sieve(HIGH)
    wrong = [n for n in range(LOW, HIGH, 2) if _is_prime(n) != sieve[n]]
    print(f"{len(range(LOW, HIGH, 2))} odd numbers in [{LOW}, {HIGH}), {len(wrong)} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    if wrong:
        print("Miller-Rabin disagrees with the sieve at", wrong[:20])
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
