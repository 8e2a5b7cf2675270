"""Scaling study: time, traced memory, and operation counts against the power.

Prints one row per power for a chosen sample: wall time for the full exact
computation (torus engine), the peak memory in MiB that tracemalloc traces
(numpy reports its buffers to it) during one torus engine call on one prime
(the quantity that should grow linearly in p), and
the elementwise multiplications of the reference engine's node walk with
split2 on (X1 summed by the trinomial formula) and off (every variable's
nodes walked and f powered at each).

With --series P1,P2,... it times constant_term_series(sample, P) on one
thread instead and prints the nanoseconds per grid point, power (p = 1..P)
and prime:

    python scripts/bench_scaling.py --fixture 39 --series 10,20,40

With --json FILE it times the north-star cases on one thread instead:
exact_coefficient of sample 39 at p = 40, 80 and 150, of samples 24 and 38
at p = 40, the constant term series of sample 39 to p = 59 and of sample 38
to p = 34, search_recurrence on sample 39's 60 terms, exact_coefficient at
p = 20 and 40 of a polynomial without lattice symmetries (a seeded random
23-term polynomial in 4 variables with distinct coefficients, so that the
whole grid is summed), and exact_coefficient of the walk X + 1/X + Y + 1/Y
at p = 256 and index (1, 3); and sample 39 at p = 40 and 80 and its series
to 59 on two workers as well (the cases ending in _t2).  Each case runs in
a child process of its own, at least five times in about 2 s (once past
5 s), in three rounds.  The best run, and the median and quartiles of all
of them, and each round's median, go into one column of FILE (created if
missing; other columns are kept) with the git revision, the Python and
numpy versions and the core count.  --src picks the source tree to time.
With --parent SRC the tree SRC is timed too, into the column "parent": the
two trees alternate case by case (which goes first alternates as well), so
that paired runs are made at the same time, and their results must agree:

    python scripts/bench_scaling.py --json BENCH_15.json --parent ../parent/src
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
import tracemalloc
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
    ap.add_argument("--src", type=Path, help="source tree to time",
                    default=Path(__file__).resolve().parents[1] / "src")
    ap.add_argument("--parent", metavar="SRC",
                    help="with --json, time this source tree too, paired")
    ap.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = ap.parse_args()
    sys.path.insert(0, str(args.src))
    if args.case:
        print(json.dumps(run_case(args.case)))
        return
    if args.json:
        trees = {args.column: args.src}
        if args.parent:
            trees = {"parent": Path(args.parent), **trees}
        north_star(Path(args.json), trees)
        return

    from ctpow import torus
    from ctpow.engine import Counters, coefficient_mod_prime
    from ctpow.fixtures import SAMPLE_NAMES, sample_polynomial
    from ctpow.laurent import normalize
    from ctpow.recurrence import _prepare, exact_coefficient
    from ctpow.rns import select_primes
    if args.fixture not in SAMPLE_NAMES:
        ap.error(f"--fixture must be one of {', '.join(SAMPLE_NAMES)}")
    h = sample_polynomial(args.fixture)
    nf = normalize(h)
    if args.series:
        series_table(args.fixture, h, nf,
                     [int(x) for x in args.series.split(",")])
        return
    q = select_primes(1 << 30).primes[0]
    print(f"sample {args.fixture}, cleared shape "
          f"{tuple(d + 1 for d in nf.degrees)}, reference prime {q}")
    header = (f"{'p':>4} {'digits':>7} {'total s':>9} {'peak MiB':>9} "
              f"{'mults on':>12} {'mults off':>12}")
    print(header)
    print("-" * len(header))

    for p in (int(x) for x in args.powers.split(",")):
        t0 = time.perf_counter()
        value = exact_coefficient(h, p, threads=args.threads)
        dt = time.perf_counter() - t0

        tp, ms = _prepare(h, p)          # the run's plan, its first prime
        tracemalloc.start()
        torus.coefficient_residues(tp, ms.primes[:1])
        peak = tracemalloc.get_traced_memory()[1] / (1 << 20)
        tracemalloc.stop()
        counts = {}
        for flag in (True, False):
            c = Counters()
            coefficient_mod_prime(nf, tuple(p * s for s in nf.shift), p, q,
                                  flag, c)
            counts[flag] = c.mults
        print(f"{p:>4} {len(str(value)):>7} {dt:>9.2f} {peak:>9.2f} "
              f"{counts[True]:>12} {counts[False]:>12}")


def series_table(name, h, nf, counts):
    from ctpow.recurrence import _prepare, constant_term_series
    print(f"sample {name} series, cleared shape "
          f"{tuple(d + 1 for d in nf.degrees)}, one thread")
    header = (f"{'P':>4} {'M':>4} {'grid pts':>9} {'primes':>6} "
              f"{'total s':>8} {'ns/(pt*power*prime)':>20}")
    print(header)
    print("-" * len(header))
    for P in counts:
        tp, ms = _prepare(h, P)     # what constant_term_series uses
        primes = len(ms.primes)
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


# rounds of each --json case, each in a child process of its own per tree
ROUNDS = 3
# what each --json case runs: (kind, polynomial, power, threads, or the
# recurrence search's shape for "search")
CASES = {
    "coeff39_p40": ("coeff", "39", 40, 1),
    "coeff39_p40_t2": ("coeff", "39", 40, 2),
    "coeff24_p40": ("coeff", "24", 40, 1),
    "coeff38_p40": ("coeff", "38", 40, 1),
    "coeff39_p80": ("coeff", "39", 80, 1),
    "coeff39_p80_t2": ("coeff", "39", 80, 2),
    "coeff39_p150": ("coeff", "39", 150, 1),
    "series39_P59": ("series", "39", 59, 1),
    "series39_P59_t2": ("series", "39", 59, 2),
    "series38_P34": ("series", "38", 34, 1),
    "search39_8_4": ("search", "39", 59, (8, 4)),
    "nosym_p20": ("coeff", "nosym", 20, 1),
    "nosym_p40": ("coeff", "nosym", 40, 1),
    "walk_p256": ("coeff", "walk", 256, 1),
}


def run_case(name: str) -> dict:
    """One case's times and result, as --case prints them; the result is
    checked where it is known."""
    # ctpow first, so that numpy loads as the package would load it
    from ctpow import fixtures
    from ctpow.fixtures import sample_polynomial
    from ctpow.laurent import parse_laurent
    from ctpow.recurrence import (constant_term_series, exact_coefficient,
                                  search_recurrence)
    import numpy
    kind, poly, power, extra = CASES[name]
    h = (asymmetric_polynomial() if poly == "nosym" else
         parse_laurent("X + X^-1 + Y + Y^-1") if poly == "walk" else
         sample_polynomial(poly))
    if kind == "coeff":
        index = (1, 3) if poly == "walk" else None
        value, times = _timed(exact_coefficient, h, power, index,
                              threads=extra)
    elif kind == "series":
        value, times = _timed(constant_term_series, h, power, threads=extra)
        value = value.terms
    else:
        terms = constant_term_series(h, power).terms
        hits, times = _timed(search_recurrence, terms, *extra)
        assert len(hits) == 1
        value = [rec.polys for rec in hits]
    if name == "coeff39_p150":
        assert value == fixtures.SAMPLE39_POWER150_CONSTANT
    if poly == "walk":
        # with X = uv and Y = u/v the power is (u + 1/u)^256 (v + 1/v)^256
        assert value == math.comb(256, 130) * math.comb(256, 127)
    return {"times": times, "result": str(value),
            "python": platform.python_version(), "numpy": numpy.__version__}


def _revision(src: Path) -> str:
    git = ["git", "-C", str(src.resolve().parent)]
    try:
        rev = subprocess.run(git + ["rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(git + ["status", "--porcelain", "src"],
                               capture_output=True, text=True).stdout.strip()
    except OSError:
        rev, dirty = "", ""
    return (rev or "unknown") + ("+uncommitted" if dirty else "")


def north_star(path: Path, trees: dict):
    """Time every case of CASES in a child process per tree and round, the
    trees alternating, into one column of `path` per tree."""
    times = {col: {case: [] for case in CASES} for col in trees}
    medians = {col: {case: [] for case in CASES} for col in trees}
    results, meta = {}, {}
    for r in range(ROUNDS):
        for i, case in enumerate(CASES):
            order = list(trees.items())
            for col, src in order[::-1] if (r + i) % 2 else order:
                out = subprocess.run(
                    [sys.executable, __file__, "--case", case, "--src",
                     str(src)], capture_output=True, text=True, check=True)
                rec = json.loads(out.stdout.splitlines()[-1])
                times[col][case] += rec["times"]
                medians[col][case].append(statistics.median(rec["times"]))
                results.setdefault(case.removesuffix("_t2"), set()).add(
                    rec["result"])
                meta[col] = {"python": rec["python"], "numpy": rec["numpy"]}
            print(case, {col: medians[col][case][-1] for col in trees},
                  flush=True)
    # every tree and thread count gives the same result
    assert all(len(found) == 1 for found in results.values()), results
    record = json.loads(path.read_text()) if path.exists() else {}
    record["cases"] = {
        "coeffS_pN": "exact_coefficient(sample S, N), constant term",
        "seriesS_PN": "constant_term_series(sample S, N)",
        "search39_8_4": "search_recurrence(sample 39's 60 terms, 8, 4)",
        "nosym_pN": "exact_coefficient(asymmetric_polynomial(), N): no "
                    "lattice symmetry, the whole grid",
        "walk_p256": "exact_coefficient(X + 1/X + Y + 1/Y, 256, (1, 3))",
        "threads": "1; 2 in the cases ending in _t2",
        "unit": "s; seconds: the best of all runs; stats: best, quartiles "
                "and median of all runs, the runs, and each round's median "
                "(a round runs a case at least 5 times in 2 s, or once "
                "past 5 s, in a child process of its own)"}
    for col, src in trees.items():
        stats = {case: dict(_summary(t), round_medians=medians[col][case])
                 for case, t in times[col].items()}
        record.setdefault("columns", {})[col] = {
            "revision": _revision(src), **meta[col],
            "cores": os.cpu_count(),
            "seconds": {case: st["best"] for case, st in stats.items()},
            "stats": stats}
    path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
