"""Differential suite: every engine and path agrees with the dense oracle.

For each case the exact value comes from naive_power_coeff.  The torus
engine with and without the exact inner sum, the Vandermonde engine with
and without split2, and exact_coefficient on one and two threads must all
reproduce it (the engines modulo their primes).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpow import torus
from ctpow.engine import coefficient_mod_prime
from ctpow.laurent import make_polynomial, normalize, parse_laurent
from ctpow.oracle import naive_power_coeff
from ctpow.recurrence import exact_coefficient
from ctpow.rns import select_primes

Q = (1 << 31) - 1
DENSE_LIMIT = 20_000  # entries of the oracle's dense power, to keep it quick


def check_all_paths(h, p, index):
    want = naive_power_coeff(h, p, index)
    nf = normalize(h)
    target = tuple(i + p * s for i, s in zip(index, nf.shift))
    for flag in (True, False):
        assert coefficient_mod_prime(nf, target, p, Q, use_split2=flag) \
            == want % Q, ("vandermonde", flag)
        if all(0 <= t <= p * d for t, d in zip(target, nf.degrees)):
            tp = torus.plan(nf, target, p, use_split2=flag)
            primes = select_primes(62, max(1, p),
                                   congruent_to_1_mod=tp.M).primes
            got = torus.coefficient_residues(nf, target, p, primes, tp)
            assert got == tuple(want % q for q in primes), ("torus", flag)
    for threads in (1, 2):
        assert exact_coefficient(h, p, index, threads=threads) == want, threads


@st.composite
def cases(draw):
    n = draw(st.integers(0, 4))
    exponent = st.tuples(*[st.integers(-2, 2)] * n)
    coeff = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])
    terms = draw(st.lists(st.tuples(coeff, exponent), min_size=1, max_size=6,
                          unique_by=lambda t: t[1]))
    h = make_polynomial([f"X{k + 1}" for k in range(n)], terms)
    degrees = normalize(h).degrees
    p_max = max(p for p in range(9)
                if math.prod(p * d + 1 for d in degrees) <= DENSE_LIMIT)
    p = draw(st.integers(0, p_max))
    # may fall outside the support of h^p
    index = tuple(draw(st.integers(-2 * p - 1, 2 * p + 1)) for _ in range(n))
    return h, p, index


@given(cases())
@settings(max_examples=300, deadline=None)
def test_engines_agree_on_random_polynomials(case):
    check_all_paths(*case)


DEGENERATE = {
    "single term": make_polynomial(("X", "Y"), [(-3, (2, -1))]),
    "degree-zero variable": make_polynomial(
        ("X", "Y", "Z"), [(1, (1, 0, 1)), (2, (-1, 0, 0)), (-1, (0, 0, -1))]),
    "no trinomial variable": parse_laurent("X^3 + Y^-2 + X*Y - 2*X^-1*Y"),
    "negative coefficients": parse_laurent("-2*X + 3*Y^-1 - X^-1*Y - 1"),
    "constant": parse_laurent("-3"),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_engines_agree_on_degenerate_shapes(name):
    h = DEGENERATE[name]
    for p in (0, 1, 2, 5):
        indices = {(0,) * h.n, (1,) * h.n, (-p,) * h.n, (p + 1,) * h.n}
        for index in sorted(indices):
            check_all_paths(h, p, index)
