import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpow.laurent import (MAX_TENSOR, LaurentError, make_polynomial,
                           normalize, parse_laurent, polynomial_from_json,
                           polynomial_to_json, to_expr_string, total_weight)


def test_parse_simple_sum():
    h = parse_laurent("X + X^-1")
    assert h.variables == ("X",)
    assert h.terms == ((1, (-1,)), (1, (1,)))


def test_parse_coefficients_and_signs():
    h = parse_laurent("3*X^2*Y^-1 - 2*Y + 5")
    assert h.variables == ("X", "Y")
    assert set(h.terms) == {(3, (2, -1)), (-2, (0, 1)), (5, (0, 0))}


def test_parse_merges_duplicates():
    h = parse_laurent("X + X + 2*X - X")
    assert h.terms == ((3, (1,)),)


def test_parse_cancellation_gives_zero():
    h = parse_laurent("X - X")
    assert h.terms == ()
    assert to_expr_string(h) == "0"


def test_parse_whitespace_tolerant():
    assert parse_laurent("  X +\tY ").terms == parse_laurent("X+Y").terms


def test_parse_rejects_float_literal():
    with pytest.raises(LaurentError, match="non-integer literal"):
        parse_laurent("1.5*X")


def test_parse_rejects_garbage():
    with pytest.raises(LaurentError):
        parse_laurent("X + @Y")
    with pytest.raises(LaurentError):
        parse_laurent("X ^ Y")
    with pytest.raises(LaurentError):
        parse_laurent("")


def test_json_accepts_string_and_int_coefficients():
    obj = {"variables": ["X"],
           "terms": [{"c": "12", "e": [1]}, {"c": -3, "e": [0]}]}
    h = polynomial_from_json(obj)
    assert set(h.terms) == {(12, (1,)), (-3, (0,))}


def test_json_rejects_floats_and_bools():
    with pytest.raises(LaurentError):
        polynomial_from_json(
            {"variables": ["X"], "terms": [{"c": 1.5, "e": [1]}]})
    with pytest.raises(LaurentError):
        polynomial_from_json(
            {"variables": ["X"], "terms": [{"c": True, "e": [1]}]})
    for terms in (3, None, "ab"):
        with pytest.raises(LaurentError):
            polynomial_from_json({"variables": ["X"], "terms": terms})


def _poly_strategy(max_vars=3):
    def build(nvars, raw):
        variables = tuple(f"X{i+1}" for i in range(nvars))
        terms = [(c, tuple(e[:nvars])) for c, e in raw]
        return make_polynomial(variables, terms)
    return st.integers(1, max_vars).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(-9, 9),
                      st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                      .map(tuple)),
            min_size=0, max_size=6).map(lambda raw: build(n, raw)))


def _named_terms(h):
    # order-free view: {(coeff, ((var, exp), ...)), ...} without zero exponents
    return {(c, tuple(sorted((v, k) for v, k in zip(h.variables, e) if k)))
            for c, e in h.terms}


@given(_poly_strategy())
@settings(max_examples=80)
def test_expr_string_roundtrip(h):
    # the printed form drops unused variables and reorders terms, so compare
    # the named-exponent view
    back = parse_laurent(to_expr_string(h), "expr")
    assert _named_terms(back) == _named_terms(h)


@given(_poly_strategy())
@settings(max_examples=80)
def test_json_roundtrip(h):
    back = polynomial_from_json(polynomial_to_json(h))
    assert back.variables == h.variables
    assert back.terms == h.terms


def test_normalize_shift_and_degrees():
    h = parse_laurent("X^-2 + Y + X*Y^-1")
    nf = normalize(h)
    assert nf.shift == (2, 1)
    assert nf.degrees == (3, 2)
    # the cleared terms hold the shifted exponents
    assert nf.terms == ((1, (0, 1)),    # X^-2 -> X^0 Y^1
                        (1, (2, 2)),    # Y    -> X^2 Y^2
                        (1, (3, 0)))    # X/Y  -> X^3 Y^0


def test_normalize_refuses_a_huge_sparse_tensor_before_allocating():
    # 30001^2 = 9 * 10^8 entries; refused from the shape alone
    h = parse_laurent("X^30000*Y^30000 + X^-1 + Y^-1")
    tracemalloc.start()
    try:
        with pytest.raises(LaurentError, match="exceeds"):
            normalize(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a tensor one row past the limit is refused too
    side = 1 << 12
    assert side * side == MAX_TENSOR
    with pytest.raises(LaurentError, match="exceeds"):
        normalize(parse_laurent(f"X^{side} + Y^{side - 1}"))


def test_normalize_allocates_no_dense_table():
    # a box of 2000002 points holds two terms
    h = parse_laurent("X^2000000 + X^-1")
    tracemalloc.start()
    try:
        nf = normalize(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert nf.degrees == (2000001,)
    # h's terms shifted by nf.shift, in h's order
    assert nf.terms == tuple((c, tuple(x + s for x, s in zip(e, nf.shift)))
                             for c, e in h.terms)
    assert nf.terms == ((1, (0,)), (1, (2000001,)))


def test_normalize_no_negative_exponents_is_identity_shift():
    nf = normalize(parse_laurent("X^2 + X*Y"))
    assert nf.shift == (0, 0)
    assert nf.degrees == (2, 1)


def test_total_weight_sums_absolute_values():
    assert total_weight(parse_laurent("3*X - 2 + X^-1")) == 6
