import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpow.engine import (Counters, EngineError, ModulusTooSmall,
                          coefficient_mod_prime)
from ctpow.fixtures import sample_polynomial
from ctpow.laurent import make_polynomial, normalize, parse_laurent
from ctpow.oracle import naive_power_coeff

Q = (1 << 31) - 1


def test_univariate_coefficient():
    nf = normalize(parse_laurent("X^2 + 1"))
    # (X^2+1)^4: coefficient of X^4 is C(4,2)
    assert coefficient_mod_prime(nf, (4,), 4, 11) == 6
    assert coefficient_mod_prime(nf, (3,), 4, 11) == 0
    assert coefficient_mod_prime(nf, (8,), 4, Q) == 1
    assert coefficient_mod_prime(nf, (9,), 4, Q) == 0
    # the power and the index entries must be integers, not truncated ones
    nf = normalize(parse_laurent("X + X^-1"))
    assert coefficient_mod_prime(nf, (6,), 6, Q) == 20
    for index, p in (((6.7,), 6), ((6,), 6.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            coefficient_mod_prime(nf, index, p, Q)


def test_degenerate_axis_is_harmless():
    # same polynomial with a second variable that never appears
    h = make_polynomial(("X", "Y"), [(1, (2, 0)), (1, (0, 0))])
    nf = normalize(h)
    assert nf.degrees == (2, 0)
    assert coefficient_mod_prime(nf, (4, 0), 4, 11) == 6


def test_out_of_range_index_is_zero():
    nf = normalize(parse_laurent("X + Y"))
    assert coefficient_mod_prime(nf, (3, 0), 2, Q) == 0
    assert coefficient_mod_prime(nf, (-1, 0), 2, Q) == 0


def test_power_zero_and_one():
    nf = normalize(parse_laurent("5*X + 3"))
    assert coefficient_mod_prime(nf, (0,), 0, Q) == 1
    assert coefficient_mod_prime(nf, (1,), 0, Q) == 0
    assert coefficient_mod_prime(nf, (1,), 1, Q) == 5
    with pytest.raises(EngineError):
        coefficient_mod_prime(nf, (0,), -1, Q)


def test_modulus_must_exceed_node_count():
    nf = normalize(parse_laurent("X + Y + Z + X^-1*Y^-1*Z^-1"))
    with pytest.raises(ModulusTooSmall):
        coefficient_mod_prime(nf, (4, 4, 4), 4, 7)


def _random_poly(rng, n, span):
    terms = [(rng.randint(-3, 3),
              tuple(rng.randint(-span, span) for _ in range(n)))
             for _ in range(rng.randint(1, 6))]
    return make_polynomial(tuple(f"X{i+1}" for i in range(n)), terms)


def test_matches_oracle_on_randoms():
    rng = random.Random(42)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 3)
        h = _random_poly(rng, n, 2)
        if h.is_zero():
            continue
        p = rng.randint(0, 5)
        nf = normalize(h)
        index = tuple(rng.randint(0, max(0, p * d)) for d in nf.degrees)
        want = 0
        # oracle speaks Laurent indices; engine speaks cleared indices
        laurent_index = tuple(ix - p * s for ix, s in zip(index, nf.shift))
        want = naive_power_coeff(h, p, laurent_index)
        got = coefficient_mod_prime(nf, index, p, Q)
        assert got == want % Q, (h.terms, p, index)
        checked += 1


def test_split2_equals_generic_path():
    rng = random.Random(9)
    for _ in range(25):
        # degree exactly 2 in the first variable, anything in the second
        d2 = rng.randint(1, 3)
        terms = []
        for j1 in range(3):
            for j2 in range(d2 + 1):
                c = rng.randint(-4, 4)
                if c:
                    terms.append((c, (j1, j2)))
        terms.append((rng.randint(1, 4), (2, rng.randint(0, d2))))
        h = make_polynomial(("X", "Y"), terms)
        nf = normalize(h)
        if nf.degrees[0] != 2:
            continue
        p = rng.randint(2, 7)
        i2 = rng.randint(0, p * nf.degrees[1])
        a = coefficient_mod_prime(nf, (p, i2), p, Q, use_split2=True)
        b = coefficient_mod_prime(nf, (p, i2), p, Q, use_split2=False)
        assert a == b, (h.terms, p, i2)


def test_split2_counters_and_fallback():
    nf = normalize(parse_laurent("X^2*Y + X*Y + X + Y^2"))
    p = 5
    c = Counters()
    coefficient_mod_prime(nf, (p, 3), p, Q, True, c)
    assert c.split2_calls == 1
    # target exponent != p disables the shortcut
    c2 = Counters()
    coefficient_mod_prime(nf, (p - 1, 3), p, Q, True, c2)
    assert c2.split2_calls == 0
    # and so does a first variable of degree other than 2
    h3 = parse_laurent("X^3 + X*Y + 1")
    c3 = Counters()
    assert coefficient_mod_prime(normalize(h3), (4, 1), 4, Q, True, c3) \
        == naive_power_coeff(h3, 4, (4, 1)) % Q
    assert c3.split2_calls == 0 and c3.base_invocations > 0


def test_work_counters_follow_node_products():
    nf = normalize(parse_laurent("X + Y + Z + X^-1*Y^-1*Z^-1"))
    p = 4
    c = Counters()
    coefficient_mod_prime(nf, (4, 4, 4), p, 1009, False, c)
    n1, n2, n3 = (p * d for d in nf.degrees)
    assert c.base_invocations == (n3 + 1) * (n2 + 1)
    assert c.pow_mod_calls == (n3 + 1) * (n2 + 1) * (n1 + 1)
    # with split2, one row along X2 per node of X3 and X4
    nf39 = normalize(sample_polynomial("39"))
    p = 20
    target = tuple(p * s for s in nf39.shift)
    on = Counters()
    coefficient_mod_prime(nf39, target, p, Q, True, on)
    assert on.split2_calls == 41 ** 2
    assert on.base_invocations == on.pow_mod_calls == 0


def test_split2_does_strictly_less_work():
    nf = normalize(sample_polynomial("dwork4"))
    p = 6
    target = (p, p, p, p)
    on, off = Counters(), Counters()
    a = coefficient_mod_prime(nf, target, p, Q, True, on)
    b = coefficient_mod_prime(nf, target, p, Q, False, off)
    assert a == b
    assert on.mults < off.mults
    assert on.split2_calls > 0


def test_meter_peak_is_stable_across_runs():
    nf = normalize(sample_polynomial("39"))
    p = 6
    target = (p, p, p, p)
    c = Counters()
    coefficient_mod_prime(nf, target, p, Q, True, c)
    first_peak = c.meter.peak
    coefficient_mod_prime(nf, target, p, Q, True, c)
    assert c.meter.peak == first_peak
    assert first_peak > 0


@given(st.integers(2, 6), st.integers(0, 1))
@settings(max_examples=20, deadline=None)
def test_constant_term_invariant_under_variable_order(p, flip):
    # eliminating axes in either order gives the same constant term
    h = parse_laurent("X^2*Y + Y^-1 + X^-1")
    g = make_polynomial(("Y", "X"), [(c, (e[1], e[0])) for c, e in h.terms])
    poly = g if flip else h
    nf = normalize(poly)
    target = tuple(p * s for s in nf.shift)
    got = coefficient_mod_prime(nf, target, p, Q)
    want = naive_power_coeff(poly, p) % Q
    assert got == want
