"""The paired timing file: the north-star cases of CASES, on one thread
(at most 2 workers in the cases ending in _t2), into BENCH_<n>.json.

Each case runs in a child process of its own, at least five times in about
2 s (once past 5 s), in three rounds.  The best run, and the median and
quartiles of all of them, each round's median and the row-block workers of
the run, go into one column of FILE (created if missing; other columns are
kept) with the git revision, the Python and numpy versions and the core
count; FILE's "cases" says what each case computes.  --src picks the source
tree to time, into the column "change".  With --parent SRC the tree SRC is
timed too, into the column "parent": the two trees alternate case by case
(which goes first alternates as well), so that paired runs are made at the
same time, and their results must agree:

    python scripts/bench_scaling.py --json BENCH_27.json --parent ../parent/src
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
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--json", metavar="FILE",
                    help="time the north-star cases into FILE")
    ap.add_argument("--src", type=Path, help="source tree to time",
                    default=Path(__file__).resolve().parents[1] / "src")
    ap.add_argument("--parent", metavar="SRC",
                    help="time this source tree too, paired")
    ap.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = ap.parse_args()
    sys.path.insert(0, str(args.src))
    if args.case:
        print(json.dumps(run_case(args.case)))
    elif args.json:
        trees = {"change": args.src}
        if args.parent:
            trees = {"parent": Path(args.parent), **trees}
        north_star(Path(args.json), trees)
    else:
        ap.error("the following arguments are required: --json")


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
    "series39_P34": ("series", "39", 34, 1),
    "series24_P34": ("series", "24", 34, 1),
    "series38_P34": ("series", "38", 34, 1),
    "search39_8_4": ("search", "39", 59, (8, 4)),
    "nosym_p20": ("coeff", "nosym", 20, 1),
    "nosym_p40": ("coeff", "nosym", 40, 1),
    "walk_p256": ("coeff", "walk", 256, 1),
    "sum8_p3": ("coeff", "sum8", 3, 1),
    "cross4_p5": ("coeff", "cross4", 5, 1),
    "cross5_p50": ("coeff", "cross5", 50, 1),
    "dwork4_p80": ("coeff", "dwork4", 80, 1),
    "dwork4_p150": ("coeff", "dwork4", 150, 1),
}
# the polynomials of the cases that are not samples
POLYS = {
    "walk": "X + X^-1 + Y + Y^-1",
    "sum8": " + ".join(f"{c}*X{k} + {c}*X{k}^-1" for k, c in
                       enumerate((1, 1, 2, 2, 3, 4, 5, 6))),
    "cross4": " + ".join(f"X{k} + X{k}^-1" for k in range(4)),
    "cross5": " + ".join(f"X{k} + X{k}^-1" for k in range(5)),
}


def run_case(name: str) -> dict:
    """One case's times and result, as --case prints them; the result is
    checked where it is known."""
    # ctpow first, so that numpy loads as the package would load it
    from ctpow import fixtures
    from ctpow.fixtures import sample_polynomial
    from ctpow.laurent import parse_laurent
    from ctpow.oracle import known_family
    from ctpow.recurrence import (constant_term_series, exact_coefficient,
                                  search_recurrence)
    import numpy
    kind, poly, power, extra = CASES[name]
    h = (asymmetric_polynomial() if poly == "nosym" else
         parse_laurent(POLYS[poly]) if poly in POLYS else
         sample_polynomial(poly))
    workers = 1
    if kind == "coeff":
        index = (1, 3) if poly == "walk" else None
        value, times = _timed(exact_coefficient, h, power, index,
                              threads=extra)
        workers = _workers_of(h, power, index, extra, series=False)
    elif kind == "series":
        value, times = _timed(constant_term_series, h, power, threads=extra)
        value = value.terms
        workers = _workers_of(h, power, None, extra, series=True)
    else:
        terms = constant_term_series(h, power).terms
        hits, times = _timed(search_recurrence, terms, *extra)
        assert len(hits) == 1
        value = [rec.polys for rec in hits]
    if name == "coeff39_p150":
        assert value == fixtures.SAMPLE39_POWER150_CONSTANT
    if poly == "dwork4":
        assert value == known_family("dwork4", power)
    if poly == "walk":
        # with X = uv and Y = u/v the power is (u + 1/u)^256 (v + 1/v)^256
        assert value == math.comb(256, 130) * math.comb(256, 127)
    return {"times": times, "result": str(value), "workers": workers,
            "python": platform.python_version(), "numpy": numpy.__version__}


def _workers_of(h, power, index, threads, series):
    """The row-block workers of the run, as the tree's work model picks
    them."""
    from ctpow import recurrence, torus
    tp, ms = recurrence._prepare(h, power, index)
    return recurrence._workers(tp, torus.predicted_work(
        tp, ms.primes, series), recurrence._resolve_threads(threads))


def _revision(src: Path) -> str:
    """The git revision of the checkout that holds the tree src, marked
    +uncommitted if src has changes; exits if src is in no checkout."""
    git = ["git", "-C", str(src.resolve().parent)]
    try:
        rev = subprocess.run(git + ["rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(git + ["status", "--porcelain", "src"],
                               capture_output=True, text=True).stdout.strip()
    except OSError:
        rev, dirty = "", ""
    if not rev:
        sys.exit(f"{src} is not in a git checkout: its revision is unknown")
    return rev + ("+uncommitted" if dirty else "")


def north_star(path: Path, trees: dict):
    """Time every case of CASES in a child process per tree and round, the
    trees alternating, into one column of `path` per tree."""
    revisions = {col: _revision(src) for col, src in trees.items()}
    times = {col: {case: [] for case in CASES} for col in trees}
    medians = {col: {case: [] for case in CASES} for col in trees}
    workers = {col: {} for col in trees}
    results, meta = {}, {}
    for r in range(ROUNDS):
        for i, case in enumerate(CASES):
            order = list(trees.items())
            for col, src in order[::-1] if (r + i) % 2 else order:
                out = subprocess.run(
                    [sys.executable, __file__, "--case", case, "--src",
                     str(src)], capture_output=True, text=True)
                if out.returncode:
                    sys.exit(f"case {case} failed on {col} ({src}):\n"
                             f"{out.stderr}")
                rec = json.loads(out.stdout.splitlines()[-1])
                times[col][case] += rec["times"]
                medians[col][case].append(statistics.median(rec["times"]))
                workers[col][case] = rec["workers"]
                meta[col] = {"python": rec["python"], "numpy": rec["numpy"]}
                # every tree and thread count gives the same result
                found = results.setdefault(case.removesuffix("_t2"), set())
                found.add(rec["result"])
                if len(found) > 1:
                    sys.exit(f"case {case} on {col} disagrees with an "
                             f"earlier run:\n" + "\n".join(sorted(found)))
            print(case, {col: medians[col][case][-1] for col in trees},
                  flush=True)
    record = json.loads(path.read_text()) if path.exists() else {}
    record["cases"] = {
        "coeffS_pN": "exact_coefficient(sample S, N), constant term",
        "seriesS_PN": "constant_term_series(sample S, N)",
        "search39_8_4": "search_recurrence(sample 39's 60 terms, 8, 4)",
        "nosym_pN": "exact_coefficient(asymmetric_polynomial(), N): no "
                    "lattice symmetry, the whole grid",
        "walk_p256": "exact_coefficient(X + 1/X + Y + 1/Y, 256, (1, 3))",
        "sum8_p3": "exact_coefficient(sum of c_k (X_k + 1/X_k) over 8 "
                   "variables, c = 1,1,2,2,3,4,5,6, 3): its 1024 lattice "
                   "maps take more search nodes than a chunk of grid rows "
                   "has points, so the whole grid is summed",
        "cross4_p5": "exact_coefficient(sum of X_k + 1/X_k over 4 "
                     "variables, 5): its 384 lattice maps take more search "
                     "nodes (633) than a chunk of grid rows has points "
                     "(216), so the whole grid is summed",
        "cross5_p50": "exact_coefficient(sum of X_k + 1/X_k over 5 "
                      "variables, 50): 384 of its 3840 lattice maps act "
                      "on the grid",
        "dwork4_pN": "exact_coefficient(X + Y + Z + T + 1/(XYZT), N), "
                     "constant term: (5k)!/(k!)^5 for N = 5k",
        "threads": "1; at most 2 workers in the cases ending in _t2, and "
                   "stats' workers is the row blocks the run used",
        "unit": "s; seconds: the best of all runs; stats: best, quartiles "
                "and median of all runs, the runs, and each round's median "
                "(a round runs a case at least 5 times in 2 s, or once "
                "past 5 s, in a child process of its own)"}
    for col, revision in revisions.items():
        stats = {case: dict(_summary(t), round_medians=medians[col][case],
                            workers=workers[col][case])
                 for case, t in times[col].items()}
        record.setdefault("columns", {})[col] = {
            "revision": revision, **meta[col],
            "cores": os.cpu_count(),
            "seconds": {case: st["best"] for case, st in stats.items()},
            "stats": stats}
    path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
