"""Recompute the 200-digit constant term of sample 39 at power 150.

Takes about 72 s on one core (2.0 GHz Xeon); --threads 0 uses every core.  The run
cross-checks the freshly computed value against the stored reference digits
and reports the prime budget it used.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from ctpow.fixtures import SAMPLE39_POWER150_CONSTANT, sample_polynomial
from ctpow.laurent import normalize, total_weight
from ctpow.recurrence import exact_coefficient
from ctpow.rns import coefficient_bound_bits, select_primes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--power", type=int, default=150)
    ap.add_argument("--threads", type=int, default=0,
                    help="worker processes, 0 = all cores")
    args = ap.parse_args()

    h = sample_polynomial("39")
    nf = normalize(h)
    bits = coefficient_bound_bits(total_weight(h), args.power)
    primes = select_primes(bits).primes
    print(f"polynomial: 23 terms, cleared shape {nf.tensor.shape}")
    print(f"coefficient bound: {bits} bits -> {len(primes)} primes of 31 bits")

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
