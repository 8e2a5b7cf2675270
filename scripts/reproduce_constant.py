"""Recompute the 200-digit constant term of sample 39 at power 150.

Takes about 5.4 s with --threads 1 (the median of coeff39_p150 in
BENCH_17.json, 2 shared vCPUs); --threads 0 uses every core.  The run
cross-checks the freshly computed value against the stored reference digits
and reports the prime budget it used.
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctpow.fixtures import SAMPLE39_POWER150_CONSTANT, sample_polynomial
from ctpow.laurent import normalize, total_weight
from ctpow.recurrence import exact_coefficient
from ctpow.rns import select_primes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--power", type=int, default=150)
    ap.add_argument("--threads", type=int, default=0,
                    help="worker processes, at most the cores; 0 = all")
    args = ap.parse_args()

    h = sample_polynomial("39")
    nf = normalize(h)
    # |a| <= w^p, and the product of the primes must exceed twice that
    bound = total_weight(h) ** args.power
    primes = select_primes(bound).primes
    print(f"polynomial: 23 terms, cleared shape "
          f"{tuple(d + 1 for d in nf.degrees)}")
    print(f"coefficient bound: 2 w^p = 2^{math.log2(2 * bound):.2f} -> "
          f"{len(primes)} primes of 31 bits")

    t0 = time.perf_counter()
    value = exact_coefficient(h, args.power, threads=args.threads)
    dt = time.perf_counter() - t0
    print(f"power {args.power} constant term ({len(str(value))} digits, "
          f"{dt:.1f}s):")
    print(value)
    if args.power == 150:
        status = "match" if value == SAMPLE39_POWER150_CONSTANT else "MISMATCH"
        print(f"stored reference: {status}")


if __name__ == "__main__":
    main()
