import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpow.fixtures import sample_polynomial
from ctpow.laurent import make_polynomial, parse_laurent
from ctpow.oracle import (SizeGuardError, dense_from_normalized,
                          dense_multiply, known_family, naive_power_coeff)
from ctpow.laurent import normalize


def test_central_binomial_direct():
    h = parse_laurent("X + X^-1")
    assert naive_power_coeff(h, 6) == 20
    assert naive_power_coeff(h, 7) == 0
    for p in range(12):
        assert naive_power_coeff(h, p) == known_family("central_binomial", p)
    # powers and index entries that are not integers are refused, as the
    # engine refuses them, not truncated
    for p, index in ((4, (1.7,)), (2.0, None)):
        with pytest.raises(ValueError, match="must be an integer"):
            naive_power_coeff(h, p, index)


def test_binomial_expansion_coefficients():
    h = parse_laurent("X + 1")
    for k in range(6):
        assert naive_power_coeff(h, 5, (k,)) == math.comb(5, k)
    assert naive_power_coeff(h, 5, (6,)) == 0
    assert naive_power_coeff(h, 5, (-1,)) == 0


def test_power_zero_is_delta():
    h = parse_laurent("X*Y + X^-1*Y^-2")
    assert naive_power_coeff(h, 0) == 1
    assert naive_power_coeff(h, 0, (1, 0)) == 0


def test_power_one_reads_terms():
    h = parse_laurent("7*X^2*Y^-1 - 3")
    assert naive_power_coeff(h, 1, (2, -1)) == 7
    assert naive_power_coeff(h, 1, (0, 0)) == -3
    assert naive_power_coeff(h, 1, (1, 1)) == 0


def test_three_term_family():
    h = parse_laurent("X + Y + X^-1*Y^-1")
    for p in range(10):
        assert naive_power_coeff(h, p) == known_family("three_term", p)
    assert known_family("three_term", 3) == 6
    assert known_family("three_term", 6) == 90


def test_dwork_small_values():
    assert known_family("dwork4", 5) == 120
    assert known_family("dwork4", 10) == 113400
    assert known_family("dwork4", 25) == (
        math.factorial(25) // math.factorial(5) ** 5)
    assert known_family("dwork4", 7) == 0
    h = sample_polynomial("dwork4")
    for p in range(8):
        assert naive_power_coeff(h, p) == known_family("dwork4", p)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        known_family("nope", 3)
    with pytest.raises(ValueError):
        known_family("dwork4", -1)


def test_size_guard_refuses_huge_requests():
    f39 = sample_polynomial("39")
    with pytest.raises(SizeGuardError):
        naive_power_coeff(f39, 151)


def _dense(text):
    return dense_from_normalized(normalize(parse_laurent(text)))


def test_dense_multiply_matches_known_product():
    a = _dense("X + 1")
    sq = dense_multiply(a, a)
    assert sq.shape == (3,)
    assert list(sq.data) == [1, 2, 1]


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
       st.lists(st.integers(-5, 5), min_size=1, max_size=4))
@settings(max_examples=60)
def test_dense_multiply_commutes(a_coeffs, b_coeffs):
    a = make_polynomial(("X",), [(c, (j,)) for j, c in enumerate(a_coeffs)])
    b = make_polynomial(("X",), [(c, (j,)) for j, c in enumerate(b_coeffs)])
    if not a.terms or not b.terms:
        return
    da = dense_from_normalized(normalize(a))
    db = dense_from_normalized(normalize(b))
    assert dense_multiply(da, db).data == dense_multiply(db, da).data


def test_oracle_handles_single_constant():
    h = parse_laurent("5")
    assert naive_power_coeff(h, 3) == 125
    h = make_polynomial(("X",), [(2, (0,))])
    assert naive_power_coeff(h, 4, (0,)) == 16
