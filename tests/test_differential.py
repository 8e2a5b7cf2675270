"""Differential suite: every engine and path agrees with the dense oracle.

For each case the exact value comes from naive_power_coeff.  The torus
engine with and without the exact inner sum, the Vandermonde engine with
and without split2, and exact_coefficient on one and two threads must all
reproduce it (the engines modulo their primes).  constant_term_series, with
and without the exact inner sum and on one and two threads, must reproduce
every term a_0..a_P.

Polynomials symmetrised under a small group (orbit sums under -I, a signed
permutation, or both) drive the torus engine's orbit sums: those must agree
with the oracle too, at indices fixed by the group and not, and the torus
residues of the samples must equal the Vandermonde engine's full sums, with
split2 and without (sample 39 at p = 12 walks 15,625 rows, so its last
chunk is partial).
"""

import contextlib
import math
import os
from unittest import mock

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpow import recurrence, torus
from ctpow.engine import coefficient_mod_prime
from ctpow.fixtures import sample_polynomial
from ctpow.laurent import make_polynomial, normalize, parse_laurent
from ctpow.oracle import naive_power_coeff
from ctpow.recurrence import constant_term_series, exact_coefficient
from ctpow.rns import select_primes
from ctpow.symmetry import automorphisms

Q = (1 << 31) - 1
DENSE_LIMIT = 20_000  # entries of the oracle's dense power, to keep it quick


@contextlib.contextmanager
def two_cpus():
    """Thread counts are capped at the usable CPUs and at one worker per
    _WORK_PER_WORKER predicted reductions: let two threads fork a second
    row block on any host and for any work."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1},
                           create=True), \
            mock.patch.object(recurrence, "_WORK_PER_WORKER", 1):
        yield


def check_all_paths(h, p, index):
    want = naive_power_coeff(h, p, index)
    nf = normalize(h)
    target = tuple(i + p * s for i, s in zip(index, nf.shift))
    for flag in (True, False):
        assert coefficient_mod_prime(nf, target, p, Q, use_split2=flag) \
            == want % Q, ("vandermonde", flag)
        if all(0 <= t <= p * d for t, d in zip(target, nf.degrees)):
            tp = torus.plan(nf, target, p, use_split2=flag)
            primes = select_primes(1 << 61, max(1, p),
                                   congruent_to_1_mod=tp.M).primes
            got = torus.coefficient_residues(tp, primes)
            assert got == tuple(want % q for q in primes), ("torus", flag)
    with two_cpus():
        for threads in (1, 2):
            assert exact_coefficient(h, p, index, threads=threads) == want, \
                threads


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


def check_series(h, P):
    want = tuple(naive_power_coeff(h, p) for p in range(P + 1))
    with two_cpus():
        for flag in (True, False):
            for threads in (1, 2):
                got = constant_term_series(h, P, threads=threads,
                                           use_split2=flag)
                assert got.terms == want, (flag, threads)


@given(cases())
@settings(max_examples=100, deadline=None)
def test_series_agree_with_the_oracle_on_random_polynomials(case):
    h, P, _ = case
    check_series(h, P)


DEGENERATE = {
    "single term": make_polynomial(("X", "Y"), [(-3, (2, -1))]),
    "degree-zero variable": make_polynomial(
        ("X", "Y", "Z"), [(1, (1, 0, 1)), (2, (-1, 0, 0)), (-1, (0, 0, -1))]),
    "no trinomial variable": parse_laurent("X^3 + Y^-2 + X*Y - 2*X^-1*Y"),
    "negative coefficients": parse_laurent("-2*X + 3*Y^-1 - X^-1*Y - 1"),
    "constant": parse_laurent("-3"),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_series_agree_with_the_oracle_on_degenerate_shapes(name):
    for P in (0, 1, 5):
        check_series(DEGENERATE[name], P)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_engines_agree_on_degenerate_shapes(name):
    h = DEGENERATE[name]
    for p in (0, 1, 2, 5):
        indices = {(0,) * h.n, (1,) * h.n, (-p,) * h.n, (p + 1,) * h.n}
        for index in sorted(indices):
            check_all_paths(h, p, index)


def _generated(gens, n):
    """The group generated by the integer matrices gens (finite order)."""
    group = {tuple(map(tuple, np.eye(n, dtype=np.int64)))}
    frontier = list(group)
    while frontier:
        a = np.array(frontier.pop())
        for g in gens:
            b = tuple(map(tuple, (g @ a).tolist()))
            if b not in group:
                group.add(b)
                frontier.append(b)
    return [np.array(b) for b in group]


@st.composite
def symmetric_cases(draw):
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    sigma = np.zeros((n, n), dtype=np.int64)
    for i, (j, sg) in enumerate(zip(perm, signs)):
        sigma[j, i] = sg
    gens = draw(st.sampled_from([[-np.eye(n, dtype=np.int64)], [sigma],
                                 [sigma, -np.eye(n, dtype=np.int64)]]))
    group = _generated(gens, n)
    exponent = st.tuples(*[st.integers(-2, 2)] * n)
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    seeds = draw(st.lists(st.tuples(coeff, exponent), min_size=1, max_size=3))
    terms = [(c, B @ e) for c, e in seeds for B in group]
    h = make_polynomial([f"X{k + 1}" for k in range(n)], terms)
    if h.is_zero():
        h = parse_laurent("1")
    degrees = normalize(h).degrees
    p_max = max(p for p in range(7)
                if math.prod(p * d + 1 for d in degrees) <= DENSE_LIMIT)
    p = draw(st.integers(0, p_max))
    v = np.array(draw(exponent), dtype=np.int64)
    # an index fixed by the group (0 if -I is in it), or one that may not be
    fixed = sum(B @ v for B in group) // len(group)
    index = tuple(int(x) for x in draw(st.sampled_from([v, fixed])))
    return h, group, p, index[:h.n]


@given(symmetric_cases())
@settings(max_examples=150, deadline=None)
def test_orbit_sums_agree_on_symmetrised_polynomials(case):
    h, group, p, index = case
    pts = np.array([e for _, e in h.terms]).reshape(len(h.terms), h.n)
    if h.n and np.linalg.matrix_rank(pts) == h.n:
        # the symmetrising group is a subgroup of the one found by a search
        # that is not cut short
        assert len(automorphisms(h.terms, 1 << 20)) % len(group) == 0
    check_all_paths(h, p, index)
    check_series(h, min(p, 4))


@pytest.mark.parametrize("text,p,index", [
    ("X + X^-1 + Y + Y^-1 + Z + Z^-1", 8, (2, 1, 1)),
    ("X + X^-1 + 2*Y + Y^-1 + 3*Z + Z^-1 + X*Y + X^-1*Y", 6, (0, 1, 1))])
def test_twisted_orbit_sums_with_a_shifted_last_variable(text, p, index):
    # the one path that keeps a twist omega^(-i.s): a grid index i that is
    # not 0 in the last grid variable, which has a shift, and |H| > 1
    h = parse_laurent(text)
    nf = normalize(h)
    target = tuple(i + p * s for i, s in zip(index, nf.shift))
    for flag in (True, False):
        tp = torus.plan(nf, target, p, use_split2=flag)
        last = tp.grid[-1]
        assert len(tp.H) > 1 and tp.nf.shift[last] != 0
        assert tp.target[last] != p * tp.nf.shift[last]
    assert naive_power_coeff(h, p, index) != 0
    check_all_paths(h, p, index)


@pytest.mark.parametrize("name", ["39", "24", "38", "dwork4"])
def test_torus_orbit_sums_equal_the_full_vandermonde_sums(name):
    h = sample_polynomial(name)
    nf = normalize(h)
    for p, index in [(6, (1, 0, 0, 0)), (9, (1, -1, 0, 1)),
                     (12, (0, 1, 1, -1))]:
        target = tuple(i + p * s for i, s in zip(index, nf.shift))
        tp = torus.plan(nf, target, p)
        q = select_primes(1 << 30, p, congruent_to_1_mod=tp.M).primes[0]
        got = torus.coefficient_residues(tp, [q])
        for flag in (True, False):
            assert got == (coefficient_mod_prime(nf, target, p, q, flag),), \
                (p, index, flag)
