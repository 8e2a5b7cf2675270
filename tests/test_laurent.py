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


@pytest.mark.parametrize("text, error, message", [
    ("X + Y*", LaurentError, "expected variable name at position 6"),
    ("X^", LaurentError, "expected integer exponent at position 2"),
    ("X ^ Y", LaurentError, "expected integer exponent at position 4"),
    ("3 X", LaurentError, "expected '+' or '-' between terms at position 2"),
    ("-", LaurentError, "expected variable name at position 1"),
    ("1.5*X", LaurentError, "non-integer literal at position 1"),
    ("X + @Y", LaurentError, "expected variable name at position 4"),
    # Python's int() refuses literals past its digit limit, in its own words
    pytest.param("X + " + "7" * 5000 + "*Y", ValueError,
                 "Exceeds the limit (4300 digits)", id="over-long literal"),
])
def test_parse_errors_name_the_character_position(text, error, message):
    with pytest.raises(ValueError) as info:
        parse_laurent(text)
    assert type(info.value) is error
    assert str(info.value).startswith(message)


_NAMES = ("X", "Y", "t_1")


@st.composite
def _written_polynomials(draw):
    """Drawn terms, written with random spaces, and the polynomial they make.

    A term is a sign, a coefficient written or left out, and factors X^k
    with k written ^k, ^+k, ^-k or ^ - k, or no exponent for 1; a term
    without factors is a bare integer."""
    def space():
        return draw(st.sampled_from(["", " ", "  ", "\t", "\n"]))
    text, names, raw = space(), [], []
    for k in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["", "+", "-"] if k == 0 else ["+", "-"]))
        factors = draw(st.lists(st.tuples(
            st.sampled_from(_NAMES), st.sampled_from([None, "", "+", "-"]),
            st.integers(0, 12)), max_size=4))
        coeff = draw(st.integers(0, 99) if not factors
                     else st.none() | st.integers(0, 99))
        written = [] if coeff is None else [str(coeff)]
        exps = {}
        for name, esign, e in factors:
            if esign is None:
                written.append(name)
                e = 1
            else:
                written.append(f"{name}{space()}^{space()}{esign}{space()}{e}")
                e = -e if esign == "-" else e
            exps[name] = exps.get(name, 0) + e
            if name not in names:
                names.append(name)
        text += f"{sign}{space()}" + f"{space()}*{space()}".join(written)
        text += space()
        c = 1 if coeff is None else coeff
        raw.append((-c if sign == "-" else c, exps))
    terms = [(c, tuple(exps.get(v, 0) for v in names)) for c, exps in raw]
    return text, make_polynomial(names, terms)


@given(_written_polynomials())
@settings(max_examples=200)
def test_parse_reads_drawn_terms_with_random_spaces(case):
    text, want = case
    assert parse_laurent(text) == want


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
