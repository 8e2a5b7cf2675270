import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpow.fixtures import sample_operator, sample_polynomial
from ctpow.laurent import make_polynomial, parse_laurent
from ctpow.oracle import known_family, naive_power_coeff
from ctpow.recurrence import (DifferentialOperator, FitError, Recurrence,
                              Series, constant_term_series, exact_coefficient,
                              fit_recurrence, make_recurrence,
                              operator_to_recurrence, parse_operator_text,
                              recurrence_to_operator, search_recurrence,
                              series_from_json, series_to_json,
                              verify_recurrence)
from ctpow.recurrence import _nullspace_1d, _relation_matrix


def test_exact_coefficient_small_cases():
    h = parse_laurent("X + X^-1")
    assert exact_coefficient(h, 6) == 20
    assert exact_coefficient(h, 7) == 0
    assert exact_coefficient(h, 0) == 1
    g = parse_laurent("2*X - 3")
    assert exact_coefficient(g, 3, (2,)) == 3 * 4 * (-3)


def test_constant_polynomials():
    five = parse_laurent("5")
    assert five.n == 0
    assert exact_coefficient(five, 3) == 125 == naive_power_coeff(five, 3)
    assert exact_coefficient(five, 0) == 1
    assert exact_coefficient(parse_laurent("-2"), 5, threads=2) == -32
    assert constant_term_series(parse_laurent("-2"), 4).terms \
        == (1, -2, 4, -8, 16)
    # a constant written in one variable: c^p at the zero index, 0 elsewhere
    c = make_polynomial(("X",), [(5, (0,))])
    assert exact_coefficient(c, 3, (0,)) == 125
    assert exact_coefficient(c, 3, (1,)) == 0


def test_exact_coefficient_matches_oracle_with_negative_values():
    h = parse_laurent("X - Y")
    # (X - Y)^5 has negative entries; balanced reconstruction must keep signs
    assert exact_coefficient(h, 5, (2, 3)) == naive_power_coeff(h, 5, (2, 3))
    assert exact_coefficient(h, 5, (2, 3)) == -10


def test_exact_coefficient_out_of_support():
    h = parse_laurent("X + Y")
    assert exact_coefficient(h, 4, (5, 0)) == 0
    assert exact_coefficient(h, 4, (-1, 2)) == 0


def test_series_values_and_json_roundtrip():
    h = parse_laurent("X + X^-1")
    s = constant_term_series(h, 8)
    assert s.terms == tuple(known_family("central_binomial", p)
                            for p in range(9))
    back = series_from_json(series_to_json(s))
    assert back.terms == s.terms
    assert back.poly.terms == h.terms


def test_series_json_accepts_bare_lists():
    s = series_from_json(["1", "0", "2"])
    assert s.terms == (1, 0, 2)
    assert s.poly is None
    with pytest.raises(FitError):
        series_from_json({"nope": []})
    with pytest.raises(FitError):
        series_from_json([1.5])


def test_series_of_pure_monomial():
    s = constant_term_series(parse_laurent("X"), 3)
    assert s.terms == (1, 0, 0, 0)


def test_make_recurrence_normalizes():
    rec = make_recurrence([(0, -2), (4, 0), (6,)])
    # content 2 removed, P_0 leading coefficient made positive
    assert rec.polys == ((0, 1), (-2, 0), (-3, 0))
    assert rec.k == 2
    assert rec.degree == 1
    # idempotent
    assert make_recurrence(rec.polys).polys == rec.polys


def test_make_recurrence_rejects_zero_p0():
    with pytest.raises(ValueError):
        make_recurrence([(0, 0), (1, 2)])
    with pytest.raises(ValueError):
        Recurrence(((0, 0), (1, 2)))
    with pytest.raises(ValueError):
        Recurrence(((1, 0), (1,)))


def test_verify_recurrence_detects_breakage():
    terms = [known_family("central_binomial", p) for p in range(12)]
    rec = make_recurrence([(0, 1), (0, 0), (-4, -4)])
    assert verify_recurrence(rec, terms)
    broken = terms[:]
    broken[6] += 1
    assert not verify_recurrence(rec, broken)


def test_fit_central_binomial():
    terms = [known_family("central_binomial", p) for p in range(16)]
    rec = fit_recurrence(terms, 2, 1)
    assert rec is not None
    assert rec.polys == ((0, 1), (0, 0), (-4, -4))


def test_fit_requires_enough_terms():
    with pytest.raises(FitError):
        fit_recurrence([1, 2, 3], 2, 2)
    with pytest.raises(FitError):
        fit_recurrence([1] * 20, 2, 1, extra=0)


def test_fit_rejects_random_noise():
    rng = random.Random(0)
    terms = [rng.randint(1, 10 ** 6) for _ in range(25)]
    assert fit_recurrence(terms, 2, 2) is None


def test_search_finds_minimal_shape_first():
    terms = [known_family("central_binomial", p) for p in range(18)]
    hits = search_recurrence(terms, 3, 2)
    assert len(hits) >= 1
    assert hits[0].polys == ((0, 1), (0, 0), (-4, -4))
    # no hit may be an enlargement of an earlier one
    shapes = [(r.k, r.degree) for r in hits]
    for a, (k, d) in enumerate(shapes):
        for k2, d2 in shapes[:a]:
            assert not (k2 <= k and d2 <= d)


def test_search_on_delta_series_finds_theta():
    terms = (1,) + (0,) * 14
    hits = search_recurrence(terms, 2, 2)
    assert hits and hits[0].polys == ((0, 1),)


def test_search_skips_underdetermined_cells():
    # 8 terms cannot support (k+1)(d+1)+5 unknowns beyond tiny shapes
    terms = [known_family("central_binomial", p) for p in range(8)]
    hits = search_recurrence(terms, 6, 4)
    for rec in hits:
        assert (rec.k + 1) * (rec.degree + 1) + 5 <= len(terms)


def _rref_nullspace(rows, ncols):
    """Plain Fraction Gauss-Jordan, used only to cross-check the solver."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return len(free), None
    x = [Fraction(0)] * ncols
    x[free[0]] = Fraction(1)
    for row, c in zip(m, pivots):
        x[c] = -sum(row[j] * x[j] for j in free)
    lcm = 1
    for v in x:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in x]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]
    return 1, tuple(ints)


@given(st.integers(0, 10 ** 6), st.data())
@settings(max_examples=40, deadline=None)
def test_nullspace_matches_plain_gauss_jordan(seed, data):
    rng = random.Random(seed)
    ncols = rng.randint(2, 6)
    v = [rng.randint(-9, 9) for _ in range(ncols)]
    if not any(v):
        v[0] = 1
    vv = sum(x * x for x in v)
    rows = []
    for _ in range(ncols + 2):
        w = [rng.randint(-9, 9) for _ in range(ncols)]
        wv = sum(a * b for a, b in zip(w, v))
        rows.append([a * vv - b * wv for a, b in zip(w, v)])
    got = _nullspace_1d(rows, ncols)
    want = _rref_nullspace(rows, ncols)
    assert got[0] == want[0]
    if got[0] == 1:
        assert got[1] == want[1]


def test_relation_matrix_layout():
    rows = _relation_matrix([3, 5, 7], k=1, d=1)
    # row n: [a_n, n*a_n, a_(n-1), (n-1)*a_(n-1)], missing terms are zero
    assert rows[0] == [3, 0, 0, 0]
    assert rows[1] == [5, 5, 3, 0]
    assert rows[2] == [7, 14, 5, 5]


def test_operator_text_rendering():
    op = recurrence_to_operator(make_recurrence([(0, 1), (0, 0), (-4, -4)]))
    text = op.to_text()
    assert text.splitlines() == ["z^0 * ( θ )", "z^1 * ( 0 )",
                                 "z^2 * ( -4*θ - 4 )"]


def test_operator_text_roundtrip_on_samples():
    for name in ("24", "38", "39", "41"):
        op = sample_operator(name)
        back = parse_operator_text(op.to_text())
        assert back.polys == op.polys


@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
                min_size=1, max_size=4))
@settings(max_examples=60)
def test_operator_text_roundtrip_random(table):
    width = max(len(p) for p in table)
    padded = tuple(tuple(p) + (0,) * (width - len(p)) for p in table)
    op = DifferentialOperator(padded)
    back = parse_operator_text(op.to_text())
    # trailing zero rows/columns may shrink; compare padded back up
    bk = [list(p) for p in back.polys]
    while len(bk) < len(padded):
        bk.append([0] * len(bk[0]))
    for row in bk:
        row.extend([0] * (width - len(row)))
    assert tuple(tuple(r) for r in bk) == padded


def test_operator_recurrence_conversions():
    rec = make_recurrence([(0, 1), (0, 0), (-4, -4)])
    assert operator_to_recurrence(recurrence_to_operator(rec)).polys == rec.polys


def test_sample_operators_annihilate_short_series():
    for name in ("24", "38", "39", "41"):
        s = constant_term_series(sample_polynomial(name), 14)
        rec = operator_to_recurrence(sample_operator(name))
        assert verify_recurrence(rec, s), name


def test_parse_operator_text_rejects_nonsense():
    with pytest.raises(FitError):
        parse_operator_text("")
    with pytest.raises(FitError):
        parse_operator_text("w^0 * ( 1 )")


def test_series_threads_do_not_change_results():
    h = sample_polynomial("dwork4")
    a = constant_term_series(h, 10, threads=1)
    b = constant_term_series(h, 10, threads=2)
    assert a.terms == b.terms
    assert exact_coefficient(h, 10, threads=2) == a.terms[10]
