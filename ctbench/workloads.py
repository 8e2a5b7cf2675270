"""The three workloads: inputs from a seed, the timed call, references, checks.

coeff39   exact_coefficient(sample, p=40) for the constant term, one thread.
          One large call down the four-variable split2 path; the engine
          takes almost all of the time.  The seed picks sample 39, 24 or 38:
          all have shape 3^4 and weight 23, so all use 6 primes and give the
          same work counts.
walk2d    exact_coefficient(X + 1/X + Y + 1/Y, p=256, index=(a, b)), one
          thread.  Two variables at a high power, so building the O(N^2)
          inverse-Vandermonde rows dominates.  The seed picks a != 0 (split2
          stays off), a != b (two distinct rows per prime) and a + b even (the
          coefficient is nonzero); every index then does the same work.
series39  constant_term_series(sample, P=34, threads=nproc) followed by
          search_recurrence(terms, 6, 3).  Many small (power, prime) tasks
          through the process pool plus exact fitting, so per-call overhead
          and scheduling weigh most.  The seed picks the sample as in coeff39.

References are independent of the engine: walk2d has a closed form, and the
sample series come from the stored annihilating operator, anchored on a
prefix that the dense oracle computes.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("coeff39", "walk2d", "series39")
SAMPLES = ("39", "24", "38")  # indexed by seed % 3, so seed 0 is sample 39
COEFF_POWER = 40
WALK = "X + X^-1 + Y + Y^-1"
WALK_POWER = 256
WALK_RANGE = range(-6, 7)
SERIES_POWER = 34
FIT_SHAPE = (6, 3)
ORACLE_PREFIX = 8     # a_0..a_8 by dense expansion, about 0.25 s
HIT_CHECK_TERMS = 60  # a fitted relation must also hold on a_0..a_59


def inputs(workload: str, seed: int) -> dict:
    """The workload's inputs for this seed; JSON-able."""
    if workload == "walk2d":
        rng = random.Random(seed)
        a = rng.choice([x for x in WALK_RANGE if x != 0])
        b = rng.choice([y for y in WALK_RANGE
                        if y != a and (a + y + WALK_POWER) % 2 == 0])
        return {"poly": WALK, "power": WALK_POWER, "index": [a, b]}
    sample = SAMPLES[seed % len(SAMPLES)]
    if workload == "coeff39":
        return {"sample": sample, "power": COEFF_POWER}
    if workload == "series39":
        return {"sample": sample, "power": SERIES_POWER, "fit": list(FIT_SHAPE)}
    raise ValueError(f"unknown workload {workload!r}")


def polynomial(ctpow, spec: dict):
    if "sample" in spec:
        return ctpow.sample_polynomial(spec["sample"])
    return ctpow.parse_laurent(spec["poly"])


def run(recurrence, workload: str, spec: dict, h, threads: int):
    """The timed call.  Names are looked up on the module so that tracing
    wrappers installed there are seen."""
    if workload == "series39":
        s = recurrence.constant_term_series(h, spec["power"], threads=threads)
        hits = recurrence.search_recurrence(s.terms, *spec["fit"])
        return s.terms, hits
    index = spec.get("index")
    return recurrence.exact_coefficient(h, spec["power"], index,
                                        threads=threads)


def to_json(workload: str, out):
    if workload == "series39":
        terms, hits = out
        return {"terms": [str(t) for t in terms],
                "hits": [[list(p) for p in rec.polys] for rec in hits]}
    return str(out)


# --- references ---------------------------------------------------------------

def walk_coefficient(p: int, a: int, b: int) -> int:
    """[ (X + 1/X + Y + 1/Y)^p ]_(X^a Y^b): with X = uv, Y = u/v the power
    factors as (u + 1/u)^p (v + 1/v)^p."""
    if (p + a + b) % 2:
        return 0
    i, j = (p + a + b) // 2, (p + a - b) // 2
    if not (0 <= i <= p and 0 <= j <= p):
        return 0
    return math.comb(p, i) * math.comb(p, j)


def _poly_at(coeffs, x: int) -> int:
    return sum(c * x ** k for k, c in enumerate(coeffs))


def operator_series(polys, prefix, count: int) -> list[int]:
    """a_0..a_(count-1) from sum_i P_i(n-i) a_(n-i) = 0, anchored on `prefix`.

    Every prefix term past a_0 must agree with the relation, and every
    division by P_0(n) must be exact; otherwise the reference is unsound and
    ValueError is raised.
    """
    terms = [prefix[0]]
    for n in range(1, count):
        lead = _poly_at(polys[0], n)
        if lead == 0:
            raise ValueError(f"P_0 vanishes at n = {n}")
        rest = sum(_poly_at(polys[i], n - i) * terms[n - i]
                   for i in range(1, min(len(polys), n + 1)))
        if rest % lead:
            raise ValueError(f"inexact division at n = {n}")
        terms.append(-rest // lead)
        if n < len(prefix) and terms[n] != prefix[n]:
            raise ValueError(f"operator disagrees with the oracle at n = {n}")
    return terms


def reference(ctpow, workload: str, spec: dict) -> dict:
    """What a correct run returns, computed outside the timed calls."""
    if workload == "walk2d":
        return {"value": walk_coefficient(spec["power"], *spec["index"])}
    h = polynomial(ctpow, spec)
    prefix = [ctpow.naive_power_coeff(h, p) for p in range(ORACLE_PREFIX + 1)]
    polys = ctpow.operator_to_recurrence(
        ctpow.sample_operator(spec["sample"])).polys
    if workload == "coeff39":
        return {"value": operator_series(polys, prefix, spec["power"] + 1)[-1]}
    return {"polys": polys,
            "terms": operator_series(polys, prefix, HIT_CHECK_TERMS)}


def check(ctpow, workload: str, spec: dict, ref: dict, result) -> str | None:
    """None when `result` (as to_json wrote it) is right, else the reason."""
    if workload != "series39":
        if int(result) != ref["value"]:
            return f"coefficient {result} != reference {ref['value']}"
        return None
    terms = [int(t) for t in result["terms"]]
    want = ref["terms"][:spec["power"] + 1]
    if len(terms) != len(want):
        return f"{len(terms)} terms, expected {len(want)}"
    bad = [n for n, (x, y) in enumerate(zip(terms, want)) if x != y]
    if bad:
        return f"terms differ from the reference at n = {bad}"
    if not ctpow.verify_recurrence(ctpow.make_recurrence(ref["polys"]), terms):
        return "terms fail the stored operator"
    for polys in result["hits"]:
        if not ctpow.verify_recurrence(ctpow.make_recurrence(polys),
                                       ref["terms"]):
            return f"fitted relation {polys} fails on {len(ref['terms'])} terms"
    return None
