"""Rediscover the annihilating operators of the sample constant term series.

For each requested sample this computes an exact series prefix, searches all
(length, degree) shapes the prefix can support, and prints the surviving
operators in theta form.  With --count 67 the four length-12 operators come
back in full; shorter prefixes demonstrate the honest failure mode (either
"no operator" or a clearly labelled partial search).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctpow.fixtures import OPERATOR_NAMES, sample_operator, sample_polynomial
from ctpow.recurrence import (constant_term_series, operator_to_recurrence,
                              recurrence_to_operator, search_recurrence)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", default=",".join(OPERATOR_NAMES),
                    help="comma separated sample names")
    ap.add_argument("--count", type=int, default=67,
                    help="series terms to compute (a_0 .. a_count)")
    ap.add_argument("--max-length", type=int, default=11)
    ap.add_argument("--max-degree", type=int, default=4)
    ap.add_argument("--threads", type=int, default=0)
    args = ap.parse_args()

    for name in args.samples.split(","):
        h = sample_polynomial(name)
        t0 = time.perf_counter()
        s = constant_term_series(h, args.count, threads=args.threads)
        dt = time.perf_counter() - t0
        print(f"\n=== sample {name}: {len(s)} terms in {dt:.1f}s ===")

        t0 = time.perf_counter()
        hits = search_recurrence(s, args.max_length, args.max_degree)
        dt = time.perf_counter() - t0
        if not hits:
            print(f"no operator found ({dt:.2f}s)")
            continue
        expected = operator_to_recurrence(sample_operator(name))
        for rec in hits:
            tag = " (matches the transcribed table)" \
                if rec.polys == expected.polys else ""
            print(f"length {rec.k}, degree {rec.degree}, "
                  f"found in {dt:.2f}s{tag}")
            print(recurrence_to_operator(rec).to_text())


if __name__ == "__main__":
    main()
