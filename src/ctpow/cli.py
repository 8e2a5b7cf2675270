"""Command line front end.

Subcommands: coeff (one exact coefficient), series (constant term series as
JSON), findop (recurrence/operator search over a series file), bench (engine
vs dense oracle table, with the torus plan of each power), oracle (dense
reference computation), selftest.

Exit codes: 0 success (including "no operator found"), 2 usage error,
3 input error, 4 refused by a size guard or out of memory, 5 worker
process failed.
Results and series files are written and read at any size; a longer integer
literal than sys.get_int_max_str_digits() (4300 digits) is an input error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

from . import torus
from .fixtures import SAMPLE_NAMES, sample_polynomial
from .laurent import LaurentError, parse_laurent, to_expr_string, total_weight
from .oracle import SizeGuardError, known_family, naive_power_coeff
from .recurrence import (WorkerError, _prepare, constant_term_series,
                         exact_coefficient, recurrence_to_operator,
                         search_recurrence, series_from_json, series_to_json,
                         to_decimal)


def _load_polynomial(args):
    if args.fixture:
        return sample_polynomial(args.fixture)
    text = Path(args.poly).read_text()
    fmt = args.format or ("json" if text.lstrip().startswith("{") else "expr")
    return parse_laurent(text, fmt)


def _parse_index(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise LaurentError(f"bad index {text!r}; expected i1,i2,...")


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


_open_line = False    # a progress line is open on stderr: main ends it


def _progress(label, unit):
    def report(done, total):
        global _open_line
        _open_line = done < total
        print(f"\r{label}: {done}/{total} {unit}", file=sys.stderr,
              end="" if _open_line else "\n", flush=True)
    return report


# --- subcommands --------------------------------------------------------------

def cmd_coeff(args) -> int:
    h = _load_polynomial(args)
    index = _parse_index(args.index) if args.index else None
    value = exact_coefficient(h, args.power, index, threads=args.threads)
    _emit(to_decimal(value), args.out)
    return 0


def cmd_series(args) -> int:
    h = _load_polynomial(args)
    s = constant_term_series(h, args.count, threads=args.threads,
                             progress=_progress("series", "row blocks"))
    _emit(json.dumps(series_to_json(s), indent=2, sort_keys=True), args.out)
    return 0


def cmd_findop(args) -> int:
    s = series_from_json(json.loads(Path(args.series).read_text()))
    hits = search_recurrence(s, args.max_length, args.max_degree,
                             extra=args.extra)
    if not hits:
        _emit("no operator found", args.out)
        return 0
    blocks = [recurrence_to_operator(rec).to_text() for rec in hits]
    _emit("\n\n".join(blocks), args.out)
    return 0


def cmd_bench(args) -> int:
    h = _load_polynomial(args)
    powers = sorted({int(p) for p in args.power.split(",")})
    w = total_weight(h)
    lines = [f"polynomial: {to_expr_string(h)}",
             f"terms: {len(h.terms)}  weight: {w}", ""]
    for p in powers:          # the plan and primes (|a| <= w^p) of the run
        tp, ms = _prepare(h, p)
        inner = (tp.U[0] if tp.U else None if tp.inner is None
                 else h.variables[tp.inner])
        lines.append(f"plan p={p}: U={'yes' if tp.U else 'no'} inner={inner} "
                     f"M={tp.M} |H|={max(len(tp.H), 1)} points="
                     f"{torus.representatives(tp)}/{tp.M ** len(tp.grid)} "
                     f"primes={len(ms.primes)} bound="
                     f"{math.log2(2 * w ** p):.2f} bits "
                     f"product={math.log2(ms.product):.2f} bits")
        t0 = time.perf_counter()
        value = exact_coefficient(h, p, threads=args.threads)
        dt_engine = time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            ref = naive_power_coeff(h, p)
            dt_oracle = time.perf_counter() - t0
            agree = "yes" if ref == value else "NO"
            oracle_col = (f"oracle={to_decimal(ref)} time={dt_oracle:.3f}s "
                          f"agree={agree}")
        except SizeGuardError as exc:
            oracle_col = f"oracle=refused ({exc})"
        lines.append(f"p={p} engine={to_decimal(value)} bits="
                     f"{value.bit_length()} time={dt_engine:.3f}s {oracle_col}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_oracle(args) -> int:
    h = _load_polynomial(args)
    index = _parse_index(args.index) if args.index else None
    value = naive_power_coeff(h, args.power, index)
    _emit(to_decimal(value), args.out)
    return 0


def cmd_selftest(args) -> int:
    failures = 0

    def check(label, got, want):
        nonlocal failures
        ok = got == want
        failures += 0 if ok else 1
        print(f"{'ok' if ok else 'FAIL'}: {label} (got {got}, want {want})")

    x_plus_inv = parse_laurent("X + X^-1")
    check("(X + 1/X)^6 constant term", exact_coefficient(x_plus_inv, 6), 20)
    check("(X + 1/X)^7 constant term", exact_coefficient(x_plus_inv, 7), 0)
    dwork = sample_polynomial("dwork4")
    for p in (5, 10):
        check(f"dwork4 a_{p}", exact_coefficient(dwork, p),
              known_family("dwork4", p))
    rng = random.Random(20260814)
    agree = 0
    for _ in range(8):
        n = rng.randint(1, 3)
        terms = [(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in range(n)))
                 for _ in range(rng.randint(2, 5))]
        poly = parse_laurent(json.dumps(
            {"variables": [f"X{i+1}" for i in range(n)],
             "terms": [{"c": str(c), "e": list(e)} for c, e in terms]}),
            "json")
        p = rng.randint(0, 4)
        index = tuple(rng.randint(-1, 1) for _ in range(n))
        if exact_coefficient(poly, p, index) == naive_power_coeff(poly, p, index):
            agree += 1
    check("random engine/oracle agreement", agree, 8)
    print("selftest:", "ok" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


# --- parser -------------------------------------------------------------------

def _add_common(sub, poly_input=True, engine=True):
    """--out, plus the polynomial input options and the engine options for
    the subcommands that read a polynomial or run the engine."""
    if poly_input:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--poly", metavar="FILE",
                           help="polynomial file (expression or JSON)")
        group.add_argument("--fixture", choices=SAMPLE_NAMES,
                           help="built-in sample polynomial")
        sub.add_argument("--format", choices=("expr", "json"),
                         help="input polynomial format (default: sniff)")
    if engine:
        sub.add_argument("--threads", type=int, default=0,
                         help="worker processes, at most the usable cores; "
                              "0 = all of them (default)")
    sub.add_argument("--out", metavar="FILE", help="write output here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctpow",
        description="Exact coefficients of powers of Laurent polynomials, "
                    "constant term series, and recurrence discovery.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("coeff", help="one exact coefficient of h^p")
    _add_common(p)
    p.add_argument("--power", type=int, required=True, metavar="P")
    p.add_argument("--index", metavar="i1,i2,...",
                   help="target exponent vector (default: constant term)")
    p.set_defaults(func=cmd_coeff)

    p = subs.add_parser("series", help="constant term series as JSON")
    _add_common(p)
    p.add_argument("--count", type=int, required=True, metavar="N",
                   help="compute a_0 .. a_N")
    p.set_defaults(func=cmd_series)

    p = subs.add_parser("findop", help="search recurrences over a series file")
    p.add_argument("series", metavar="SERIES.json")
    p.add_argument("--max-length", type=int, default=8, dest="max_length",
                   help="largest recurrence length k to try")
    p.add_argument("--max-degree", type=int, default=4, dest="max_degree",
                   help="largest coefficient degree d to try")
    p.add_argument("--extra", type=int, default=5,
                   help="withheld extra equations for the stability check")
    _add_common(p, poly_input=False, engine=False)
    p.set_defaults(func=cmd_findop)

    p = subs.add_parser("bench", help="engine vs dense oracle timing table")
    _add_common(p)
    p.add_argument("--power", required=True, metavar="P1,P2,...",
                   help="comma separated list of powers")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("oracle", help="dense reference computation")
    _add_common(p, engine=False)
    p.add_argument("--power", type=int, required=True, metavar="P")
    p.add_argument("--index", metavar="i1,i2,...")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("selftest", help="quick built-in consistency battery")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    global _open_line
    _open_line = False
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        code, text = 4, f"refused: {exc}"
    except MemoryError as exc:
        code, text = 4, "error: out of memory" + (f": {exc}" if str(exc) else "")
    except WorkerError as exc:
        code, text = 5, f"error: worker failed: {exc}"
    except (ValueError, KeyError, OSError) as exc:
        code, text = 3, f"error: {exc}"
    print(("\n" if _open_line else "") + text, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
