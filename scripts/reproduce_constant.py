"""Recompute the 200-digit constant term of sample 39 at power 150.

Takes about 6.3 s with --threads 1 (the median of coeff39_p150 in
BENCH_27.json, 2 shared vCPUs); --threads 0 uses every core.  The run
cross-checks the freshly computed value against the stored reference digits
and prints the primes the run uses.
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctpow.fixtures import SAMPLE39_POWER150_CONSTANT, sample_polynomial
from ctpow.laurent import normalize, total_weight
from ctpow.recurrence import _prepare, exact_coefficient


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--power", type=int, default=150)
    ap.add_argument("--threads", type=int, default=0,
                    help="worker processes, at most the cores; 0 = all")
    args = ap.parse_args()

    h = sample_polynomial("39")
    w = total_weight(h)
    # the run's primes: 1 mod the grid size M, and their product exceeds
    # twice the bound |a| <= w^p
    tp, ms = _prepare(h, args.power)
    print(f"polynomial: 23 terms, cleared shape "
          f"{tuple(d + 1 for d in normalize(h).degrees)}")
    print(f"coefficient bound: 2 w^p = 2^{math.log2(2 * w ** args.power):.2f}"
          f" -> {len(ms.primes)} primes of 31 bits, 1 mod M = {tp.M}:")
    print(" ".join(map(str, ms.primes)))

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
