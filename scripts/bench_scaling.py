"""Scaling study: time, memory meter, and operation counts against the power.

Prints one row per power for a chosen sample: wall time for the full exact
computation (torus engine), the peak auxiliary field elements the torus
engine holds per prime (the quantity that should grow linearly in p), and
the elementwise multiplications of the reference engine's node walk with
split2 on (X1 summed by the trinomial formula) and off (every variable's
nodes walked and f powered at each).

With --series P1,P2,... it times constant_term_series(sample, P) on one
thread instead and prints the nanoseconds per grid point, power (p = 1..P)
and prime:

    python scripts/bench_scaling.py --fixture 39 --series 10,20,40

With --json FILE it times the north-star cases on one thread instead:
exact_coefficient of sample 39 at p = 40, 80 and 150, its constant term
series to p = 59, search_recurrence on those 60 terms, and exact_coefficient
at p = 20 and 40 of a polynomial without lattice symmetries (a seeded random
23-term polynomial in 4 variables with distinct coefficients, so that the
whole grid is summed), and exact_coefficient of the walk X + 1/X + Y + 1/Y
at p = 256 and index (1, 3); and sample 39 at p = 40 and 80 and its series
to 59 on two workers as well (the cases ending in _t2).  Each case runs at
least five times in about 2 s (once past 5 s); the best run, and the median
and quartiles of all of them, go into one column of FILE (created if
missing; other columns are kept) with the git revision, the Python and
numpy versions and the core count.  --src picks the source tree to time,
so that one file can compare two checkouts:

    python scripts/bench_scaling.py --json BENCH_13.json --column parent \
        --src ../parent/src
    python scripts/bench_scaling.py --json BENCH_13.json --column change
"""

import argparse
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fixture", default="39")
    ap.add_argument("--powers", default="5,10,20,40,80")
    ap.add_argument("--threads", type=int, default=0)
    ap.add_argument("--series", metavar="P1,P2,...",
                    help="time one-thread constant term series instead")
    ap.add_argument("--json", metavar="FILE",
                    help="time the north-star cases into FILE instead")
    ap.add_argument("--column", default="change",
                    help="column of the --json file to write")
    ap.add_argument("--src", default="src", help="source tree to time")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    if args.json:
        north_star(Path(args.json), args.column, Path(args.src))
        return

    from ctpow import torus
    from ctpow.engine import coefficient_mod_prime, make_context
    from ctpow.fixtures import SAMPLE_NAMES, sample_polynomial
    from ctpow.laurent import normalize
    from ctpow.recurrence import exact_coefficient
    from ctpow.rns import select_primes
    if args.fixture not in SAMPLE_NAMES:
        ap.error(f"--fixture must be one of {', '.join(SAMPLE_NAMES)}")
    h = sample_polynomial(args.fixture)
    nf = normalize(h)
    if args.series:
        series_table(args.fixture, h, nf,
                     [int(x) for x in args.series.split(",")])
        return
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
        tp, nf_u, target_u = torus.plan(nf, target, p)
        meter = torus.AllocationMeter()
        one_prime = select_primes(31, p, congruent_to_1_mod=tp.M).primes[:1]
        torus.coefficient_residues(nf_u, target_u, p, one_prime, tp,
                                   meter=meter)
        peak = meter.peak
        counts = {}
        for flag in (True, False):
            ctx = make_context(nf, target, p, q, use_split2=flag)
            coefficient_mod_prime(nf, target, p, q, use_split2=flag, ctx=ctx)
            counts[flag] = ctx.counters.mults
        print(f"{p:>4} {len(str(value)):>7} {dt:>9.2f} {peak:>11} "
              f"{counts[True]:>12} {counts[False]:>12}")


def series_table(name, h, nf, counts):
    from ctpow import torus
    from ctpow.laurent import total_weight
    from ctpow.recurrence import _primes_for, constant_term_series
    print(f"sample {name} series, cleared shape {nf.tensor.shape}, one thread")
    header = (f"{'P':>4} {'M':>4} {'grid pts':>9} {'primes':>6} "
              f"{'total s':>8} {'ns/(pt*power*prime)':>20}")
    print(header)
    print("-" * len(header))
    for P in counts:
        # the plan and primes that constant_term_series uses
        tp = torus.plan(nf, tuple(P * s for s in nf.shift), P)[0]
        primes = len(_primes_for(total_weight(h), tp.M, P, 31).primes)
        points = tp.M ** len(tp.grid)
        t0 = time.perf_counter()
        constant_term_series(h, P, threads=1)
        dt = time.perf_counter() - t0
        ns = 1e9 * dt / (points * P * primes) if P else float("nan")
        print(f"{P:>4} {tp.M:>4} {points:>9} {primes:>6} {dt:>8.3f} "
              f"{ns:>20.1f}")


def _timed(fn, *args, **kwargs):
    """(result, times): the seconds of the runs made in about 2 s, at least
    five, or of one run past 5 s."""
    times = []
    while not times or times[0] <= 5 and (len(times) < 5 or sum(times) < 2):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return out, times


def _summary(times):
    """The best run, and the median and quartiles of all of them."""
    q1, median, q3 = (statistics.quantiles(times, n=4) if len(times) > 1
                      else times * 3)
    return {"best": min(times), "q1": q1, "median": median, "q3": q3,
            "runs": len(times)}


def asymmetric_polynomial():
    """23 of the exponents in {-1, 0, 1}^4, drawn with seed 23, with the
    distinct coefficients 1..23: the only lattice automorphism is the
    identity, so the torus engine sums every grid point."""
    from ctpow.laurent import make_polynomial
    rng = random.Random(23)
    exps = rng.sample(list(itertools.product((-1, 0, 1), repeat=4)), 23)
    return make_polynomial(("X", "Y", "Z", "T"),
                           [(c, e) for c, e in enumerate(exps, 1)])


def north_star(path: Path, column: str, src: Path):
    # ctpow first, so that numpy loads as the package would load it
    from ctpow import fixtures
    from ctpow.fixtures import sample_polynomial
    from ctpow.laurent import parse_laurent
    from ctpow.recurrence import (constant_term_series, exact_coefficient,
                                  search_recurrence)
    import numpy
    h = sample_polynomial("39")
    times = {}
    for p in (40, 80, 150):
        value, times[f"coeff39_p{p}"] = _timed(exact_coefficient, h, p,
                                               threads=1)
        if p == 150:
            assert value == fixtures.SAMPLE39_POWER150_CONSTANT
        else:
            value_t2, times[f"coeff39_p{p}_t2"] = _timed(exact_coefficient,
                                                         h, p, threads=2)
            assert value_t2 == value
    s, times["series39_P59"] = _timed(constant_term_series, h, 59, threads=1)
    s_t2, times["series39_P59_t2"] = _timed(constant_term_series, h, 59,
                                            threads=2)
    assert s_t2.terms == s.terms
    hits, times["search39_8_4"] = _timed(search_recurrence, s.terms, 8, 4)
    assert len(hits) == 1
    h = asymmetric_polynomial()
    for p in (20, 40):
        _, times[f"nosym_p{p}"] = _timed(exact_coefficient, h, p, threads=1)
    walk = parse_laurent("X + X^-1 + Y + Y^-1")
    value, times["walk_p256"] = _timed(exact_coefficient, walk, 256, (1, 3),
                                       threads=1)
    stats = {case: _summary(t) for case, t in times.items()}
    # with X = uv and Y = u/v the power is (u + 1/u)^256 (v + 1/v)^256
    assert value == math.comb(256, 130) * math.comb(256, 127)
    root = src.resolve().parent
    git = ["git", "-C", str(root)]
    try:
        rev = subprocess.run(git + ["rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(git + ["status", "--porcelain", "src"],
                               capture_output=True, text=True).stdout.strip()
    except OSError:
        rev, dirty = "", ""
    record = json.loads(path.read_text()) if path.exists() else {}
    record["cases"] = {
        "coeff39_pN": "exact_coefficient(sample 39, N), constant term",
        "series39_P59": "constant_term_series(sample 39, 59)",
        "search39_8_4": "search_recurrence(those 60 terms, 8, 4)",
        "nosym_pN": "exact_coefficient(asymmetric_polynomial(), N): no "
                    "lattice symmetry, the whole grid",
        "walk_p256": "exact_coefficient(X + 1/X + Y + 1/Y, 256, (1, 3))",
        "threads": "1; 2 in the cases ending in _t2",
        "unit": "s; seconds: the best of the runs in 2 s, at least 5 (or "
                "of 1 past 5 s); stats: best, quartiles and median of them"}
    record.setdefault("columns", {})[column] = {
        "revision": (rev or "unknown") + ("+uncommitted" if dirty else ""),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "seconds": {case: st["best"] for case, st in stats.items()},
        "stats": stats}
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(stats))


if __name__ == "__main__":
    main()
