"""Scaling study: time, memory meter, and operation counts against the power.

Prints one row per power for a chosen sample: wall time for the full exact
computation (torus engine), the peak auxiliary field elements the torus
engine holds per prime (the quantity that should grow linearly in p), and
the reference engine's split2 versus generic multiplication counters.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from ctpow import torus
from ctpow.engine import AllocationMeter, coefficient_mod_prime, make_context
from ctpow.fixtures import SAMPLE_NAMES, sample_polynomial
from ctpow.laurent import normalize
from ctpow.recurrence import exact_coefficient
from ctpow.rns import select_primes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fixture", default="39", choices=SAMPLE_NAMES)
    ap.add_argument("--powers", default="5,10,20,40,80")
    ap.add_argument("--threads", type=int, default=0)
    args = ap.parse_args()

    h = sample_polynomial(args.fixture)
    nf = normalize(h)
    q = select_primes(31).primes[0]
    print(f"sample {args.fixture}, cleared shape {nf.tensor.shape}, "
          f"meter prime {q}")
    header = (f"{'p':>4} {'digits':>7} {'total s':>9} {'peak elems':>11} "
              f"{'mults on':>12} {'mults off':>12}")
    print(header)
    print("-" * len(header))

    for p in (int(x) for x in args.powers.split(",")):
        t0 = time.perf_counter()
        value = exact_coefficient(h, p, threads=args.threads)
        dt = time.perf_counter() - t0

        target = tuple(p * s for s in nf.shift)
        tp = torus.plan(nf, target, p)
        meter = AllocationMeter()
        one_prime = select_primes(31, p, congruent_to_1_mod=tp.M).primes[:1]
        torus.coefficient_residues(nf, target, p, one_prime, tp, meter=meter)
        peak = meter.peak
        counts = {}
        for flag in (True, False):
            ctx = make_context(nf, target, p, q, use_split2=flag)
            coefficient_mod_prime(nf, target, p, q, use_split2=flag, ctx=ctx)
            counts[flag] = ctx.counters.mults
        print(f"{p:>4} {len(str(value)):>7} {dt:>9.2f} {peak:>11} "
              f"{counts[True]:>12} {counts[False]:>12}")


if __name__ == "__main__":
    main()
