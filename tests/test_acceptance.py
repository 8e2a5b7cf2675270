"""Acceptance battery: one test_criterion_N_* function per claim.

The slow shared inputs (long series of the sample polynomials) are module
scoped fixtures so each is computed once.  Two multi-minute checks sit behind
the --long flag; everything else is meant to run in the default suite.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from ctpow.engine import Counters, coefficient_mod_prime
from ctpow.fixtures import (SAMPLE39_POWER150_CONSTANT, SAMPLE_NAMES,
                            sample_operator, sample_polynomial)
from ctpow.interp import interpolate_coefficient, inverse_vandermonde_row
from ctpow.laurent import normalize, parse_laurent
from ctpow.oracle import known_family, naive_power_coeff
from ctpow.recurrence import (constant_term_series, exact_coefficient,
                              operator_to_recurrence, search_recurrence,
                              verify_recurrence)
from ctpow.rns import ModulusSet, reconstruct, reduce_int, select_primes

PRIME31 = select_primes(1 << 30).primes[0]


@pytest.fixture(scope="module")
def f39_terms():
    # 60 exact constant terms a_0 .. a_59 (the slowest shared input)
    return constant_term_series(sample_polynomial("39"), 59).terms


@pytest.fixture(scope="module")
def series51():
    return {name: constant_term_series(sample_polynomial(name), 50).terms
            for name in ("24", "38", "41")}


@pytest.fixture(scope="module")
def dwork_terms():
    return constant_term_series(sample_polynomial("dwork4"), 25).terms


def _random_poly(rng, n, exp_bound):
    terms = {}
    for _ in range(rng.randint(2, 6)):
        e = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(n))
        terms[e] = rng.choice([-3, -2, -1, 1, 2, 3])
    return parse_laurent(json.dumps({
        "variables": [f"X{r + 1}" for r in range(n)],
        "terms": [{"c": str(c), "e": list(e)} for e, c in terms.items()],
    }), "json")


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260814)
    # powers are stratified by variable count so the dense oracle stays
    # affordable; the n=4 tail cases shrink the exponent box to [-1,1]
    schedule = []
    for idx in range(28):
        schedule.append((1, idx % 9, 2))
        schedule.append((2, idx % 9, 2))
        schedule.append((3, idx % 9, 2))
    for idx in range(21):
        schedule.append((4, idx % 5, 2))
    schedule += [(4, 6, 1), (4, 7, 1), (4, 8, 1)]

    cases = 0
    seen_p = set()
    seen_n = set()
    for n, p, exp_bound in schedule:
        h = _random_poly(rng, n, exp_bound)
        index = (tuple(rng.randint(-2, 2) for _ in range(h.n))
                 if rng.random() < 0.5 else None)
        got = exact_coefficient(h, p, index)
        want = naive_power_coeff(h, p, index)
        assert got == want, (h.terms, p, index)
        cases += 1
        seen_p.add(p)
        seen_n.add(n)
    assert cases >= 100
    assert seen_p == set(range(9))
    assert seen_n == {1, 2, 3, 4}
    assert time.perf_counter() - start < 120


def test_criterion_2_known_families(dwork_terms):
    start = time.perf_counter()
    central = constant_term_series(parse_laurent("X + X^-1"), 40).terms
    assert central == tuple(math.comb(p, p // 2) if p % 2 == 0 else 0
                            for p in range(41))
    assert dwork_terms == tuple(known_family("dwork4", p) for p in range(26))
    assert dwork_terms[5] == 120
    assert dwork_terms[10] == 113400
    assert dwork_terms[25] == math.factorial(25) // math.factorial(5) ** 5
    assert time.perf_counter() - start < 60


def _extend_by_recurrence(rec, prefix, upto):
    """Continue a series with a recurrence, insisting on exact integers."""
    vals = [Fraction(v) for v in prefix]
    k = rec.k
    for n in range(len(vals), upto + 1):
        total = Fraction(0)
        for i in range(1, k + 1):
            pn = sum(c * (n - i) ** j for j, c in enumerate(rec.polys[i]))
            total += pn * vals[n - i]
        p0 = sum(c * n ** j for j, c in enumerate(rec.polys[0]))
        assert p0 != 0
        vals.append(-total / p0)
    out = []
    for v in vals:
        assert v.denominator == 1
        out.append(int(v))
    return out


def test_criterion_3_constant_standin(f39_terms):
    # independent check of the first 26 terms: dense oracle to p = 8, then
    # the transcribed order-4 recurrence pushes that prefix to p = 25
    h = sample_polynomial("39")
    oracle_prefix = [naive_power_coeff(h, p) for p in range(9)]
    rec = operator_to_recurrence(sample_operator("39"))
    extended = _extend_by_recurrence(rec, oracle_prefix, 25)
    assert list(f39_terms[:26]) == extended


@pytest.mark.long
def test_criterion_3_constant_full(capsys):
    from ctpow.cli import main
    assert main(["coeff", "--fixture", "39", "--power", "150"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == str(SAMPLE39_POWER150_CONSTANT)
    assert len(printed) == 200


def test_criterion_4_operator_recovery(f39_terms):
    assert len(f39_terms) == 60
    start = time.perf_counter()
    hits = search_recurrence(f39_terms, 8, 4, extra=5)
    fit_time = time.perf_counter() - start
    assert len(hits) == 1
    expected = operator_to_recurrence(sample_operator("39"))
    assert hits[0].polys == expected.polys
    assert fit_time < 60


def test_criterion_5_operator_verification(series51):
    for name in ("24", "38", "41"):
        terms = series51[name]
        assert len(terms) >= 50
        rec = operator_to_recurrence(sample_operator(name))
        assert verify_recurrence(rec, terms), name


@pytest.mark.long
def test_criterion_5_operator_rediscovery():
    for name in ("24", "38", "41"):
        terms = constant_term_series(sample_polynomial(name), 67).terms
        hits = search_recurrence(terms, 11, 4, extra=5)
        expected = operator_to_recurrence(sample_operator(name))
        assert hits, name
        assert hits[0].polys == expected.polys, name


def test_criterion_6_memory_linear():
    nf = normalize(sample_polynomial("39"))
    peaks = []
    for p in (10, 20, 40):
        target = tuple(p * s for s in nf.shift)
        c = Counters()
        coefficient_mod_prime(nf, target, p, PRIME31, counters=c)
        peaks.append(c.meter.peak)
    for small, big in zip(peaks, peaks[1:]):
        ratio = big / small
        assert 1.6 <= ratio <= 2.4, peaks


def test_criterion_7_split2_on_off(f39_terms, series51, dwork_terms):
    prefixes = {
        "39": f39_terms[:21],
        "24": series51["24"][:21],
        "38": series51["38"][:21],
        "41": series51["41"][:21],
        "dwork4": dwork_terms[:21],
    }
    assert sorted(prefixes) == sorted(SAMPLE_NAMES)
    for name in SAMPLE_NAMES:
        h = sample_polynomial(name)
        plain = constant_term_series(h, 20, use_split2=False).terms
        assert plain == tuple(prefixes[name]), name

        nf = normalize(h)
        target = tuple(20 * s for s in nf.shift)
        mults = {}
        for flag in (True, False):
            c = Counters()
            coefficient_mod_prime(nf, target, 20, PRIME31, use_split2=flag,
                                  counters=c)
            mults[flag] = c.mults
            if flag:
                assert c.split2_calls > 0, name
            else:
                assert c.split2_calls == 0, name
        assert mults[True] < mults[False], name


def test_criterion_8_rns_roundtrip():
    rng = random.Random(8)
    pool = (select_primes(1 << 31 * 16 - 1).primes
            + select_primes(1 << 24 * 16 - 1, max_bits=24).primes)
    checked = 0
    while checked < 1000:
        ms = ModulusSet(tuple(rng.sample(pool, rng.randint(3, 30))))
        m = ms.product
        for _ in range(25):
            x = rng.randrange(-(m - 1) // 2, m // 2 + 1)
            assert reconstruct(reduce_int(x, ms), ms) == x
            checked += 1
    assert checked >= 1000


def _conv_power(coeffs, p):
    out = [1]
    for _ in range(p):
        nxt = [0] * (len(out) + len(coeffs) - 1)
        for a, va in enumerate(out):
            for b, vb in enumerate(coeffs):
                nxt[a + b] += va * vb
        out = nxt
    return out


def test_criterion_9_interpolation_identity():
    rng = random.Random(9)
    for _ in range(50):
        d = rng.randint(1, 4)
        coeffs = [rng.randint(-5, 5) for _ in range(d + 1)]
        coeffs[-1] = rng.choice([-5, -3, -1, 1, 3, 5])
        p = rng.randint(1, 5)
        n_nodes = p * d
        powered = _conv_power(coeffs, p)
        values = [sum(c * s ** j for j, c in enumerate(coeffs)) ** p
                  for s in range(n_nodes + 1)]
        for r in rng.sample(range(n_nodes + 1), min(4, n_nodes + 1)):
            row = inverse_vandermonde_row(n_nodes, r)
            got = interpolate_coefficient(values, row)
            assert got == powered[r]
            assert isinstance(got, (int, Fraction))
