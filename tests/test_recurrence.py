import json
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpow import torus
from ctpow.fixtures import sample_operator, sample_polynomial
from ctpow.laurent import make_polynomial, normalize, parse_laurent
from ctpow.oracle import known_family, naive_power_coeff
from ctpow.recurrence import (FitError, Recurrence, Series,
                              constant_term_series, exact_coefficient,
                              fit_recurrence, make_recurrence,
                              operator_to_recurrence, recurrence_to_operator,
                              search_recurrence, series_from_json,
                              series_to_json, verify_recurrence)
from ctpow import recurrence
from ctpow.recurrence import (_RANK_PRIME, WorkerError, _kernel_mod_prime,
                              _relation_matrix_mod, _resolve_threads)


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


def test_exact_coefficient_out_of_support(monkeypatch):
    h = parse_laurent("X + Y")
    assert exact_coefficient(h, 4, (5, 0)) == 0
    assert exact_coefficient(h, 4, (-1, 2)) == 0
    with pytest.raises(ValueError, match="index dimension mismatch"):
        exact_coefficient(h, 4, (1,))

    def no_plan(*args, **kwargs):
        raise AssertionError("planned a coefficient off the support")

    # 0 before any plan, whose M would grow with the index, and for the
    # constant term of a variable with only negative exponents, whose grid
    # would need M = 2 * 10**9 + 1 and find no prime 1 mod M below 2**31
    monkeypatch.setattr(torus, "plan", no_plan)
    assert exact_coefficient(h, 4, (10 ** 12, 0)) == 0
    assert exact_coefficient(parse_laurent("X^-100000 + X^-100005"),
                             20000) == 0


def test_series_values_and_json_roundtrip():
    h = parse_laurent("X + X^-1")
    s = constant_term_series(h, 8)
    assert s.terms == tuple(known_family("central_binomial", p)
                            for p in range(9))
    back = series_from_json(series_to_json(s))
    assert back.terms == s.terms
    assert back.poly.terms == h.terms


def test_series_json_roundtrip_past_the_digit_limit():
    # Python refuses str() and int() past 4300 digits by default; the
    # program's own series files are written and read at any size
    big = 3 ** 40000                               # 19085 digits
    for terms in ((big, -big, 10 ** 4300, -1), (big // 7, 1 - 10 ** 9000)):
        text = json.dumps(series_to_json(Series(None, terms)))
        assert series_from_json(json.loads(text)).terms == terms
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [str(x) for x in (-big, big // 7)]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [recurrence.to_decimal(x) for x in (-big, big // 7)] == want


def test_series_json_accepts_bare_lists():
    s = series_from_json(["1", "0", "2"])
    assert s.terms == (1, 0, 2)
    assert s.poly is None
    for bad in ({"nope": []}, [1.5], {"terms": 5}, {"terms": None},
                {"terms": "12"}):
        with pytest.raises(FitError):
            series_from_json(bad)


def test_series_of_pure_monomial():
    s = constant_term_series(parse_laurent("X"), 3)
    assert s.terms == (1, 0, 0, 0)
    # the target P * shift = P lies off the box [0, P * 0], yet a_0 = 1
    s = constant_term_series(parse_laurent("-4*X^-1"), 3)
    assert s.terms == (1, 0, 0, 0)


def test_series_refuses_negative_and_too_long_counts():
    h = parse_laurent("X + X^-1")
    for P in (-1, -2, 1 << 16):
        with pytest.raises(ValueError, match="series length"):
            constant_term_series(h, P)
    assert len(constant_term_series(h, 0)) == 1


def test_negative_thread_counts_are_refused():
    h = parse_laurent("X + X^-1")
    with pytest.raises(ValueError, match="threads"):
        exact_coefficient(h, 4, threads=-5)
    with pytest.raises(ValueError, match="threads"):
        constant_term_series(h, 4, threads=-2)
    # and so are thread counts that are not integers, on a grid of many
    # rows and on one of a single row
    walk = parse_laurent("X + X^-1 + Y + Y^-1")
    for threads in (2.0, "2", None):
        for fn, poly, p in ((exact_coefficient, sample_polynomial("39"), 6),
                            (constant_term_series, sample_polynomial("39"), 6),
                            (exact_coefficient, walk, 4)):
            with pytest.raises(ValueError, match="threads must be an integer"):
                fn(poly, p, threads=threads)
    # 0 still means every core
    assert exact_coefficient(h, 4, threads=0) == 6


def test_non_integer_powers_and_indices_are_refused():
    h = parse_laurent("X + X^-1")
    for p, index in ((6.0, None), (6, (2.7,)), (6, ("2",)), ("6", None)):
        with pytest.raises(ValueError, match="must be an integer"):
            exact_coefficient(h, p, index)
    with pytest.raises(ValueError, match="must be an integer"):
        constant_term_series(h, 3.0)
    # numpy integers are integers
    assert exact_coefficient(h, np.int64(6), (np.int64(2),)) == 15
    assert constant_term_series(h, np.int64(4)).terms == (1, 0, 2, 0, 6)


def _four_cpus(monkeypatch):
    # up to four row blocks on any host: the CPU count caps the threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)


def test_series_progress_counts_row_blocks(monkeypatch):
    _four_cpus(monkeypatch)
    seen = []
    s = constant_term_series(sample_polynomial("dwork4"), 10, threads=2,
                             progress=lambda *counts: seen.append(counts))
    total = seen[-1][1]
    assert total == 2                 # one block per worker
    assert seen == [(k, total) for k in range(1, total + 1)]
    assert s.terms[10] == known_family("dwork4", 10)


def test_row_blocks_that_do_not_divide_evenly(monkeypatch):
    _four_cpus(monkeypatch)
    h = sample_polynomial("39")
    nf = normalize(h)
    tp = torus.plan(nf, tuple(12 * s for s in nf.shift), 12)
    assert tp.rows % 3
    assert exact_coefficient(h, 12, threads=3) \
        == exact_coefficient(h, 12, threads=1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(sys.platform != "linux",
                    reason="row blocks run in forked workers only on Linux")
def test_row_block_workers_are_reaped_on_success_death_and_interrupt(
        monkeypatch):
    _four_cpus(monkeypatch)
    h = sample_polynomial("39")
    want = exact_coefficient(h, 12, threads=1)
    seen = []
    s = constant_term_series(h, 12, threads=3,
                             progress=lambda *counts: seen.append(counts))
    assert s.terms[12] == want
    assert seen == [(1, 3), (2, 3), (3, 3)]
    _no_child_left()

    caller, real = os.getpid(), torus.coefficient_residues

    def interrupted_in_caller(tp, primes, rows=None):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return real(tp, primes, rows)

    def short_in_child(tp, primes, rows=None):
        part = real(tp, primes, rows)
        return part if os.getpid() == caller else part[:-1]

    def dies_in_child(tp, primes, rows=None):
        if os.getpid() != caller:
            os._exit(7)
        return real(tp, primes, rows)

    for fn, error, match in ((interrupted_in_caller, KeyboardInterrupt, None),
                             (short_in_child, WorkerError, "bytes"),
                             (dies_in_child, WorkerError, "sent 0 of")):
        monkeypatch.setattr(torus, "coefficient_residues", fn)
        with pytest.raises(error, match=match):
            exact_coefficient(h, 12, threads=3)
        _no_child_left()


def test_zero_threads_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert _resolve_threads(0) == 1
    # no more workers than CPUs: every worker is forked before any is read
    assert _resolve_threads(5) == 1
    assert _resolve_threads(10 ** 6) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _resolve_threads(0) == (os.cpu_count() or 1)
    assert _resolve_threads(10 ** 6) == (os.cpu_count() or 1)


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


def _search_every_cell(terms, max_k, max_d, extra=5):
    """search_recurrence without the rank test: fit_recurrence on every
    admissible cell that enlarges no hit."""
    cells = sorted(((k, d) for k in range(max_k + 1) for d in range(max_d + 1)
                    if (k + 1) * (d + 1) + extra <= len(terms)),
                   key=lambda kd: ((kd[0] + 1) * (kd[1] + 1), kd[0]))
    hits = []
    for k, d in cells:
        if not any(r.k <= k and r.degree <= d for r in hits):
            rec = fit_recurrence(terms, k, d, extra)
            hits += [rec] if rec is not None else []
    return hits


def test_search_without_a_relation_runs_one_elimination(monkeypatch):
    # sample 39's a_0..a_34 support no relation of shape (6, 3) or less:
    # the one largest cell (6, 3) has full column rank modulo _RANK_PRIME,
    # so every cell inside it has too, and the search is one elimination
    terms = constant_term_series(sample_polynomial("39"), 34).terms
    calls = []

    def counted(m, q):
        calls.append(m.shape)
        return _kernel_mod_prime(m, q)

    monkeypatch.setattr(recurrence, "_kernel_mod_prime", counted)
    assert search_recurrence(terms, 6, 3) == []
    assert calls == [(30, 28)]
    monkeypatch.undo()
    assert _search_every_cell(terms, 6, 3) == []


@pytest.mark.parametrize("name,count,shape", [
    ("central_binomial", 18, (3, 2)), ("central_binomial", 8, (6, 4)),
    ("central_binomial", 14, (4, 3)), ("three_term", 30, (3, 3)),
    ("39", 60, (8, 4))])
def test_search_agrees_with_fitting_every_cell(name, count, shape):
    # with hits, and with several largest cells (8 or 14 terms)
    terms = ([known_family(name, p) for p in range(count)]
             if name != "39" else
             constant_term_series(sample_polynomial(name), count - 1).terms)
    want = _search_every_cell(terms, *shape)
    assert search_recurrence(terms, *shape) == want
    assert (len(want) > 0) == (count > 8)


def _exact_rows(terms, k, d):
    """Row n: a_(n-i) (n-i)^j for i = 0..k, j = 0..d (a_m = 0 for m < 0)."""
    return [[(terms[n - i] if n >= i else 0) * (n - i) ** j
             for i in range(k + 1) for j in range(d + 1)]
            for n in range(len(terms))]


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


def _reference_fit(terms, k, d, extra=5):
    """fit_recurrence's contract by Fraction Gauss-Jordan on exact rows."""
    rows = _exact_rows(terms, k, d)
    ncols = (k + 1) * (d + 1)
    nullity, v = _rref_nullspace(rows[:len(terms) - extra], ncols)
    if nullity != 1 or _rref_nullspace(rows, ncols) != (1, v):
        return None
    polys = [v[i * (d + 1):(i + 1) * (d + 1)] for i in range(k + 1)]
    return make_recurrence(polys) if any(polys[0]) else None


def _planted_terms(rng, k, d, N, size=9):
    """Integer terms with n a_n + sum_(i=1..k) P_i(n-i) a_(n-i) = 0 for
    every n >= 0, P_i random of degree d >= 1 with coefficients of at most
    size in absolute value: a dependent column.  Returns (terms,
    [P_0, ..., P_k])."""
    polys = [[rng.randint(-size, size) for _ in range(d + 1)] for _ in range(k)]
    a = [Fraction(rng.randrange(1, 2 ** 200))]
    for n in range(1, N):
        a.append(-sum(sum(c * (n - i) ** j for j, c in enumerate(pi))
                      * a[n - i] for i, pi in enumerate(polys, 1) if n >= i)
                 / n)
    lcm = math.lcm(*(x.denominator for x in a))
    return [int(x * lcm) for x in a], [[0, 1] + [0] * (d - 1)] + polys


@given(st.integers(0, 10 ** 6), st.sampled_from(["planted", "perturbed",
                                                 "wider", "random"]))
@settings(max_examples=40, deadline=None)
def test_nullspace_matches_plain_gauss_jordan(seed, kind):
    # the lifted kernel gives the relation, or None, exactly when plain
    # Gauss-Jordan over Q does; "wider" cells have nullity 2 or more, as do
    # planted relations that also fit a smaller cell (a P_i drops out)
    rng = random.Random(seed)
    k, d = rng.randint(1, 2), rng.randint(1, 2)
    N = (k + 2) * (d + 1) + 5 + rng.randint(0, 4)
    terms = _planted_terms(rng, k, d, N, size=rng.choice([9, 2 ** 40]))[0]
    if kind == "perturbed":
        terms[rng.randrange(N)] += rng.choice([-1, 1])
    elif kind == "random":
        terms = [rng.randrange(-2 ** 60, 2 ** 60) for _ in range(N)]
    k += kind == "wider"
    assert fit_recurrence(terms, k, d) == _reference_fit(terms, k, d)


def test_relation_matrix_layout():
    q = 11
    m = _relation_matrix_mod([3, 5, 7], k=1, d=1, q=q)
    # row n: [a_n, n*a_n, a_(n-1), (n-1)*a_(n-1)], missing terms are zero
    assert m.dtype == np.int64
    assert m.tolist() == [[3, 0, 0, 0], [5, 5, 3, 0], [7, 14 % q, 5, 5]]
    # negative and large terms are reduced into [0, q)
    terms = [-3, 2 ** 70]
    assert _relation_matrix_mod(terms, k=1, d=2, q=q).tolist() \
        == [[v % q for v in row] for row in _exact_rows(terms, 1, 2)]


def _sympy_rank(rows):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(rows).rank()


def _check_kernel(m, q, rank):
    """_kernel_mod_prime's rank, pivots and basis on m against rank."""
    pivots, basis = _kernel_mod_prime(m, q)
    ncols = m.shape[1]
    assert len(pivots) == rank
    assert pivots == sorted(pivots)
    assert len(basis) == ncols - rank
    free = [c for c in range(ncols) if c not in pivots]
    rows = m.tolist()
    for f, x in zip(free, basis):
        assert [x[c] for c in free] == [int(c == f) for c in free]
        assert all(sum(a * b for a, b in zip(row, x)) % q == 0
                   for row in rows)


def test_rank_filter_matches_sympy_on_relation_matrices():
    # random terms up to 2**200 give full column rank; planted ones do not
    rng = random.Random(11)
    q = _RANK_PRIME
    for k, d, N in ((1, 1, 8), (2, 2, 14), (3, 1, 12)):
        rand = [rng.randrange(-2 ** 200, 2 ** 200) for _ in range(N)]
        planted = _planted_terms(rng, k, d, N)[0]
        for terms, full in ((rand, True), (planted, False)):
            rows = _exact_rows(terms, k, d)
            m = _relation_matrix_mod(terms, k, d, q)
            assert m.tolist() == [[v % q for v in row] for row in rows]
            rank = _sympy_rank(rows)
            _check_kernel(m, q, rank)
            assert (rank == (k + 1) * (d + 1)) == full


def test_rank_filter_matches_sympy_on_random_matrices():
    rng = random.Random(12)
    q = _RANK_PRIME
    for nrows, ncols, dependent, zeros in (
            (6, 6, 0, 0), (9, 5, 0, 0), (9, 6, 2, 0), (7, 7, 3, 0),
            (4, 6, 0, 0), (8, 6, 0, 0.6), (8, 6, 1, 0.5)):
        # with zeros, pivots must be searched for below the first row
        cols = [[0 if rng.random() < zeros
                 else rng.randrange(-2 ** 200, 2 ** 200) for _ in range(nrows)]
                for _ in range(ncols - dependent)]
        for _ in range(dependent):
            w = [rng.randint(-5, 5) for _ in cols]
            cols.append([sum(x * row[r] for x, row in zip(w, cols))
                         for r in range(nrows)])
        rows = [list(r) for r in zip(*cols)]
        m = np.array([[v % q for v in row] for row in rows], dtype=np.int64)
        rank = _sympy_rank(rows)
        _check_kernel(m, q, rank)
        assert rank == min(nrows, ncols - dependent) or zeros


def test_fit_survives_a_first_prime_that_sees_only_zeros():
    # every residue mod _RANK_PRIME is 0, so the first prime shows nullity 6
    terms = [_RANK_PRIME * known_family("central_binomial", p)
             for p in range(16)]
    pivots, basis = _kernel_mod_prime(
        _relation_matrix_mod(terms[:-5], 2, 1, _RANK_PRIME), _RANK_PRIME)
    assert (pivots, len(basis)) == ([], 6)
    rec = fit_recurrence(terms, 2, 1)
    assert rec is not None and rec.polys == ((0, 1), (0, 0), (-4, -4))


def test_fit_lifts_a_kernel_over_several_primes(monkeypatch):
    # coefficients near 2**40 need more than one 31-bit prime to reconstruct
    rng = random.Random(5)
    terms, polys = _planted_terms(rng, 2, 2, 20, size=2 ** 40)
    calls = []

    def counted(m, q):
        calls.append(q)
        assert len(calls) < 50, "the lift does not converge"
        return _kernel_mod_prime(m, q)

    monkeypatch.setattr(recurrence, "_kernel_mod_prime", counted)
    assert fit_recurrence(terms, 2, 2) == make_recurrence(polys)
    assert len(calls) >= 2 and calls[0] == _RANK_PRIME
    assert calls == sorted(calls, reverse=True)
    # the second prime sees only zeros (nullity 9): it is skipped, neither
    # combined with the first prime's basis nor restarting the lift, so the
    # fit takes exactly one more prime
    used, second = calls[:], calls[1]
    calls.clear()
    scaled = [second * a for a in terms]
    assert fit_recurrence(scaled, 2, 2) == make_recurrence(polys)
    assert len(calls) == len(used) + 1 and calls[:-1] == used


def test_fit_rejects_a_perturbed_last_term():
    terms = [known_family("central_binomial", p) for p in range(16)]
    terms[-1] += 1
    # without the changed term the relation is found
    assert fit_recurrence(terms[:-1], 2, 1) is not None
    assert fit_recurrence(terms, 2, 1) is None


def test_fit_rejects_a_kernel_of_dimension_two():
    # the relation and its shift by one both fit the (3, 1) cell
    terms = [known_family("central_binomial", p) for p in range(16)]
    assert _rref_nullspace(_exact_rows(terms[:-5], 3, 1), 8)[0] == 2
    assert fit_recurrence(terms, 3, 1) is None


def test_operator_text_rendering():
    op = recurrence_to_operator(make_recurrence([(0, 1), (0, 0), (-4, -4)]))
    text = op.to_text()
    assert text.splitlines() == ["z^0 * ( θ )", "z^1 * ( 0 )",
                                 "z^2 * ( -4*θ - 4 )"]


def test_operator_recurrence_conversions():
    rec = make_recurrence([(0, 1), (0, 0), (-4, -4)])
    assert operator_to_recurrence(recurrence_to_operator(rec)).polys == rec.polys


def test_sample_operators_annihilate_short_series():
    for name in ("24", "38", "39", "41"):
        s = constant_term_series(sample_polynomial(name), 14)
        rec = operator_to_recurrence(sample_operator(name))
        assert verify_recurrence(rec, s), name


def test_series_threads_do_not_change_results(monkeypatch):
    h = sample_polynomial("dwork4")
    a = constant_term_series(h, 10, threads=1)
    # two row blocks even where one CPU is usable
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    b = constant_term_series(h, 10, threads=2)
    assert a.terms == b.terms
    assert exact_coefficient(h, 10, threads=2) == a.terms[10]
