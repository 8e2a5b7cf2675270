import random

import pytest

from ctpow import torus
from ctpow.engine import AllocationMeter
from ctpow.fixtures import sample_polynomial
from ctpow.laurent import normalize, parse_laurent
from ctpow.oracle import naive_power_coeff
from ctpow.rns import select_primes


def _primes(tp, p, bits=62):
    return select_primes(bits, max(1, p), congruent_to_1_mod=tp.M).primes


def test_plan_sums_the_neediest_trinomial_variable_exactly():
    nf = normalize(parse_laurent("X^3 + X*Y + Y^-1 + Z"))
    # degrees (3, 2, 1): X stays on the grid; at the index (0, 1, 0) Y needs
    # M > 5 on the grid and Z only M > 4, so Y is summed exactly
    p = 4
    target = (0, p + 1, 0)
    tp = torus.plan(nf, target, p)
    assert tp.inner == 1
    assert tp.grid == (0, 2)
    assert tp.M == 1 + max(p * 3 - target[0], target[0], p * 1 - target[2])
    off = torus.plan(nf, target, p, use_split2=False)
    assert off.inner is None
    assert off.grid == (0, 1, 2)
    assert off.M >= tp.M


def test_constant_polynomial_has_an_empty_grid():
    nf = normalize(parse_laurent("7"))
    tp = torus.plan(nf, (), 3)
    assert (tp.inner, tp.grid, tp.M, tp.rows) == (None, (), 1, 1)
    primes = _primes(tp, 3)
    assert torus.coefficient_residues(nf, (), 3, primes, tp) \
        == tuple(343 % q for q in primes)


def test_row_blocks_cover_the_sum():
    rng = random.Random(5)
    for name in ("39", "dwork4"):
        nf = normalize(sample_polynomial(name))
        p = 5
        target = tuple(p * s for s in nf.shift)
        for flag in (True, False):
            tp = torus.plan(nf, target, p, flag)
            primes = _primes(tp, p)
            full = torus.coefficient_residues(nf, target, p, primes, tp)
            cuts = sorted(rng.sample(range(1, tp.rows), 3))
            edges = [0] + cuts + [tp.rows]
            total = [0] * len(primes)
            for lo, hi in zip(edges, edges[1:]):
                part = torus.coefficient_residues(nf, target, p, primes, tp,
                                                  range(lo, hi))
                total = [(a + b) % q for a, b, q in zip(total, part, primes)]
            assert tuple(total) == full


@pytest.mark.parametrize("text,p,index", [
    ("X + X^-1 + Y + Y^-1", 9, (3, -2)),
    ("X + X^-1 + Y + Y^-1", 9, (-3, 2)),
    ("2*X^2*Y - X + 3*Y^-1", 6, (2, 1)),
    ("X*Y^-1 + Y^2 - 1", 7, (5, -4)),
    ("X*Y^-1 + Y^2 - 1", 7, (-2, 3)),  # outside the support
])
def test_off_centre_indices_match_the_oracle(text, p, index):
    h = parse_laurent(text)
    nf = normalize(h)
    target = tuple(i + p * s for i, s in zip(index, nf.shift))
    want = naive_power_coeff(h, p, index)
    for flag in (True, False):
        tp = torus.plan(nf, target, p, flag)
        primes = _primes(tp, p)
        assert torus.coefficient_residues(nf, target, p, primes, tp) \
            == tuple(want % q for q in primes)


def test_live_elements_per_prime_grow_linearly_in_p():
    # one prime per run, as criterion 6 meters the Vandermonde engine
    nf = normalize(sample_polynomial("39"))
    peaks = []
    for p in (10, 20, 40):
        target = tuple(p * s for s in nf.shift)
        tp = torus.plan(nf, target, p)
        meter = AllocationMeter()
        torus.coefficient_residues(nf, target, p, _primes(tp, p, 31)[:1], tp,
                                   meter=meter)
        assert meter.current == 0
        peaks.append(meter.peak)
    for small, big in zip(peaks, peaks[1:]):
        assert 1.6 <= big / small <= 2.4, peaks
