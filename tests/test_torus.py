import contextlib
import itertools
import math
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ctpow import symmetry, torus
from ctpow.fixtures import sample_polynomial
from ctpow.laurent import make_polynomial, normalize, parse_laurent
from ctpow.oracle import naive_power_coeff
from ctpow.recurrence import _prepare, _primes_for
from ctpow.rns import root_of_unity, select_primes


def _primes(tp, p, bits=62):
    return select_primes(1 << (bits - 1), max(1, p),
                         congruent_to_1_mod=tp.M).primes


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


def test_degree_zero_variables_stay_off_the_grid():
    # Y has exponent 0 in every term: its sum over the grid is just M times
    # one value, so it is left off
    h = make_polynomial(("X", "Y", "Z"),
                        [(1, (1, 0, 1)), (2, (-1, 0, 0)), (-1, (0, 0, -1))])
    nf = normalize(h)
    p = 8
    target = tuple(p * s for s in nf.shift)
    tp = torus.plan(nf, target, p)
    assert (tp.inner, tp.grid, tp.M, tp.rows) == (2, (0,), 9, 1)
    assert torus.plan(nf, target, p, use_split2=False).grid == (0, 2)
    want = [naive_power_coeff(h, k) for k in range(p + 1)]
    for flag in (True, False):
        tp = torus.plan(nf, target, p, flag)
        primes = _primes(tp, 2 * p)
        assert torus.coefficient_residues(tp, primes) \
            == tuple(want[p] % q for q in primes)
        assert torus.series_residues(tp, primes) \
            == [tuple(a % q for q in primes) for a in want]


def test_a_shifted_degree_zero_variable_stays_on_the_grid():
    # Y^-1 in every term: the sum over Y's grid is what makes a_p = 0, p >= 1
    h = parse_laurent("X*Y^-1 + X^-1*Y^-1 + 3*Y^-1")
    nf = normalize(h)
    assert nf.degrees[1] == 0 and nf.shift[1] == 1
    P = 6
    assert _series_plan(nf, P, False).grid == (0, 1)
    for flag in (True, False):
        tp = _series_plan(nf, P, flag)
        primes = _primes(tp, 2 * P)
        assert torus.series_residues(tp, primes) \
            == [(1,) * len(primes)] + [(0,) * len(primes)] * P


def test_constant_polynomial_has_an_empty_grid():
    nf = normalize(parse_laurent("7"))
    tp = torus.plan(nf, (), 3)
    assert (tp.inner, tp.grid, tp.M, tp.rows) == (None, (), 1, 1)
    primes = _primes(tp, 3)
    assert torus.coefficient_residues(tp, primes) \
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
            full = torus.coefficient_residues(tp, primes)
            cuts = sorted(rng.sample(range(1, tp.rows), 3))
            edges = [0] + cuts + [tp.rows]
            total = [0] * len(primes)
            for lo, hi in zip(edges, edges[1:]):
                part = torus.coefficient_residues(tp, primes, range(lo, hi))
                total = [(a + b) % q for a, b, q in zip(total, part, primes)]
            assert tuple(total) == full


def _series_plan(nf, P, flag=True):
    """The plan of a_P, as the series kernel takes it."""
    return torus.plan(nf, tuple(P * s for s in nf.shift), P, flag)


def test_series_row_blocks_cover_the_sum():
    rng = random.Random(6)
    for name in ("39", "dwork4"):
        nf = normalize(sample_polynomial(name))
        P = 5
        want = [naive_power_coeff(sample_polynomial(name), p)
                for p in range(P + 1)]
        for flag in (True, False):
            tp = _series_plan(nf, P, flag)
            primes = _primes(tp, P)
            full = torus.series_residues(tp, primes)
            assert full == [tuple(a % q for q in primes) for a in want]
            cuts = sorted(rng.sample(range(1, tp.rows), 3))
            edges = [0] + cuts + [tp.rows]
            total = [[0] * len(primes) for _ in range(P + 1)]
            for lo, hi in zip(edges, edges[1:]):
                part = torus.series_residues(tp, primes, range(lo, hi))
                total = [[(a + b) % q for a, b, q in zip(x, y, primes)]
                         for x, y in zip(total, part)]
            assert [tuple(x) for x in total] == full


def test_series_with_a_one_signed_inner_variable():
    # X has exponents {0, 1, 2} only: just the X^0 class reaches X^0
    h = parse_laurent("X^2*Y + 2*X + Y + Y^-1 - 3")
    nf = normalize(h)
    P = 6
    tp = _series_plan(nf, P)
    assert tp.inner == 0 and tp.nf.shift[0] == 0 and tp.nf.degrees[0] == 2
    primes = _primes(tp, P)
    assert torus.series_residues(tp, primes) == [
        tuple(naive_power_coeff(h, p) % q for q in primes)
        for p in range(P + 1)]


def test_a_coordinate_change_enlarges_the_acting_group():
    # sample 39: the axes leave an acting group of order 2, the direction
    # (1, 0, 1, -1) one of order 6, at the same M
    h = sample_polynomial("39")
    nf = normalize(h)
    P = 6
    tp = _series_plan(nf, P)
    assert tp.U is not None and tp.U[0] == (1, 0, 1, -1)
    assert (tp.inner, len(tp.H), tp.M) == (0, 6, P + 1)
    assert len(_series_plan(nf, P, False).H) == 12
    primes = _primes(tp, 2 * P)
    assert torus.series_residues(tp, primes) == [
        tuple(naive_power_coeff(h, p) % q for q in primes)
        for p in range(P + 1)]
    # at this index U would enlarge H but raise M from 8 to 9: no change
    index = (-2, 0, 1, 0)
    tp = torus.plan(nf, tuple(i + P * s for i, s in zip(index, nf.shift)), P)
    assert (tp.U, tp.M) == (None, 8)
    # a target that no map of order 6 fixes, and one off the support
    for index in [(1, 0, 1, 0), (1, -1, 0, 1), (4, 0, 0, 0), (-2, 0, 1, 0)]:
        target = tuple(i + P * s for i, s in zip(index, nf.shift))
        tp = torus.plan(nf, target, P)
        primes = _primes(tp, P)
        want = naive_power_coeff(h, P, index)
        assert torus.coefficient_residues(tp, primes) \
            == tuple(want % q for q in primes), (index, tp)


def test_a_one_variable_grid_skips_the_symmetry_search():
    # the walk has 8 automorphisms, but its grid is one row
    nf = normalize(parse_laurent("X + X^-1 + Y + Y^-1"))
    for target in [(9, 9), (11, 7)]:
        tp = torus.plan(nf, target, 9)
        assert (len(tp.grid), tp.U, tp.H) == (1, None, ())


def test_plan_bounds_the_symmetry_search():
    # 21^3 = 9261 terms, past symmetry.MAX_TERMS: no search, the plan
    # without symmetry, and the polynomial unchanged
    h = make_polynomial(("X", "Y", "Z"), [
        (1, e) for e in itertools.product(range(-10, 11), repeat=3)])
    nf = normalize(h)
    t0 = time.perf_counter()
    tp = torus.plan(nf, tuple(2 * s for s in nf.shift), 2)
    assert time.perf_counter() - t0 < 1
    assert (tp.U, tp.H, tp.nf, tp.target) == (None, (), nf, (20, 20, 20))
    # 46080 signed permutations of 6 variables: at p = 2 (243 grid points)
    # the search stops after 243 nodes; the plan stays exact
    h = parse_laurent(" + ".join(f"X{k} + X{k}^-1" for k in range(6)))
    nf = normalize(h)
    t0 = time.perf_counter()
    tp = torus.plan(nf, tuple(2 * s for s in nf.shift), 2)
    assert time.perf_counter() - t0 < 1
    assert (tp.M ** len(tp.grid), tp.H) == (3 ** 5, ())
    primes = _primes(tp, 2)
    assert torus.coefficient_residues(tp, primes) \
        == tuple(12 % q for q in primes)
    # the 4-variable cross-polytope's 384 maps take 633 nodes to find, more
    # than a chunk has points at p = 2, 3 and 5 (27, 64 and 216): no H.  At
    # p = 10 a chunk has 121 rows of 11 points, and 48 distinct grid maps
    # act (the 96 that fix the inner variable's fibres act in pairs:
    # flipping the inner variable alone moves no grid point)
    h = parse_laurent(" + ".join(f"X{k} + X{k}^-1" for k in range(4)))
    nf = normalize(h)
    for p, order in [(2, 0), (3, 0), (5, 0), (10, 48)]:
        tp = torus.plan(nf, tuple(p * s for s in nf.shift), p)
        assert len(tp.H) == order
        primes = _primes(tp, p)
        assert torus.coefficient_residues(tp, primes) \
            == tuple(naive_power_coeff(h, p) % q for q in primes)
    # the 3840 maps of 5 variables take 6331 nodes to find.  At p = 8 a
    # chunk has 1152 points (128 rows of 9), so the search stops there: no
    # H, and no coordinate change is ranked.  At p = 50 a chunk has 6528
    # points, and the 384 grid maps that fix the inner variable's fibres
    # act (plan only: the kernel takes about a second)
    nf = normalize(parse_laurent(" + ".join(f"X{k} + X{k}^-1"
                                            for k in range(5))))
    tp = torus.plan(nf, tuple(8 * s for s in nf.shift), 8)
    assert (tp.M ** len(tp.grid), tp.H, tp.U) == (6561, (), None)
    tp = torus.plan(nf, tuple(50 * s for s in nf.shift), 50)
    assert (tp.M, len(tp.H)) == (51, 384)
    # sum_k c_k (X_k + 1/X_k) in 8 variables, c = 1,1,2,2,3,4,5,6: its 1024
    # maps take 1759 nodes, past the 384 or 512 points of a chunk (p = 2
    # and 3), so the plan has no symmetry
    h = parse_laurent(" + ".join(f"{c}*X{k} + {c}*X{k}^-1" for k, c in
                                 enumerate((1, 1, 2, 2, 3, 4, 5, 6))))
    nf = normalize(h)
    for p in (3, 2):
        tp = torus.plan(nf, tuple(p * s for s in nf.shift), p)
        assert (tp.H, tp.U) == ((), None)
    primes = _primes(tp, 2)
    assert torus.coefficient_residues(tp, primes) \
        == tuple(naive_power_coeff(h, 2) % q for q in primes)


def test_the_search_budget_bounds_the_group():
    # plan no longer tests |H| against the points of a chunk: a search of at
    # most that many nodes returns at most that many maps
    polys = [sample_polynomial(name)
             for name in ("39", "24", "38", "41", "dwork4")]
    polys += [parse_laurent(" + ".join(f"X{k} + X{k}^-1" for k in range(n)))
              for n in range(2, 6)]
    for h in polys:
        nf = normalize(h)
        for p in range(2, 41):
            tp = torus.plan(nf, tuple(p * s for s in nf.shift), p)
            assert len(tp.H) <= min(torus._ROWS, tp.rows) * tp.M, (h, p)


def test_benchmark_plans_are_pinned():
    # exact_coefficient of samples 39, 24 and 38 at p = 40, and their
    # series to P = 34 (the plan of a_34); only sample 39 changes
    # coordinates
    for p, M, count in [(40, 41, 6), (34, 35, 5)]:
        for name, inner, order, row in [("39", 0, 6, (1, 0, 1, -1)),
                                        ("24", 3, 3, None),
                                        ("38", 3, 2, None)]:
            tp, ms = _prepare(sample_polynomial(name), p)
            assert (tp.inner, tp.M, len(tp.H), len(ms.primes)) \
                == (inner, M, order, count), (name, p)
            assert (tp.U[0] if tp.U else None) == row, (name, p)


def test_kept_rows_of_the_benchmark_plans():
    # the rows that can hold an orbit representative at p = 40 (1681 rows):
    # sample 38 keeps half only because its swap moves to the outer
    # variables, which the grid order gives it
    for name, kept in [("39", 461), ("24", 861), ("38", 861)]:
        tp, _ = _prepare(sample_polynomial(name), 40)
        assert tp.rows == 1681
        assert sum(map(len, symmetry.least_rows(tp.maps, tp.M, range(
            tp.rows), torus._BATCH))) == kept, name
    tp, _ = _prepare(sample_polynomial("38"), 40)
    assert tp.grid == (1, 2, 0)


@pytest.mark.parametrize("name", ["39", "24", "38", "dwork4"])
def test_samples_in_the_grid_order_match_the_oracle(name):
    # coefficients on and off the centre and the series, with and without
    # the exactly summed variable, under the grid order that puts last the
    # variable the most maps keep in place
    h = sample_polynomial(name)
    nf = normalize(h)
    P = 7
    want = [naive_power_coeff(h, p) for p in range(P + 1)]
    for flag in (True, False):
        tp = _series_plan(nf, P, flag)
        assert len(tp.H) > 1, (name, flag)
        primes = _primes(tp, P)
        assert torus.series_residues(tp, primes) \
            == [tuple(a % q for q in primes) for a in want]
        for index in [(0, 0, 0, 0), (1, 0, -1, 0), (0, 1, 0, 0)]:
            target = tuple(i + P * s for i, s in zip(index, nf.shift))
            tp = torus.plan(nf, target, P, flag)
            primes = _primes(tp, P)
            assert torus.coefficient_residues(tp, primes) == tuple(
                naive_power_coeff(h, P, index) % q for q in primes)


def test_orbit_weights_cover_the_grid():
    # every grid point is counted once: the weights of the representatives
    # add up to M^g, for each plan and any cover of the rows
    for name in ("39", "24", "dwork4"):
        nf = normalize(sample_polynomial(name))
        P = 9
        tp = _series_plan(nf, P)
        primes = _primes(tp, P)[:1]
        seen = sum(int(wt.sum()) for k in range(3) for _, _, wt in
                   torus._class_values(tp, primes, range(k, tp.rows, 3)))
        assert len(tp.H) > 1 and seen == tp.M ** len(tp.grid), name


def _split_batch_ends(tp, batch):
    """The batch ends of _class_values at `batch` rows that fall inside a
    chunk of _BATCH kept rows, over all rows."""
    H, M = tp.maps, tp.M
    ends = set(itertools.accumulate(
        len(symmetry.orbits(H, M, row, M)[1])
        for row in symmetry.least_rows(H, M, range(tp.rows), torus._BATCH)))
    sizes = [len(wt) for _, _, wt in
             torus._class_values(tp, _primes(tp, tp.p)[:1], None, batch)]
    return [k for k in itertools.accumulate(sizes) if k not in ends]


def test_orbit_weights_cover_the_grid_in_series_batches():
    # at the batch size of the series pass, with chunks that straddle two
    # batches, every grid point is still counted once over any row cover
    for name in ("39", "24", "dwork4"):
        tp = _series_plan(normalize(sample_polynomial(name)), 34)
        primes = _primes(tp, 34)[:1]
        seen = sum(int(wt.sum()) for k in range(3) for _, _, wt in
                   torus._class_values(tp, primes, range(k, tp.rows, 3),
                                       2 * torus._BATCH))
        assert _split_batch_ends(tp, 2 * torus._BATCH), name
        assert len(tp.H) > 1 and seen == tp.M ** len(tp.grid), name


@pytest.mark.parametrize("name", ["39", "24"])
def test_series_with_split_chunks_matches_coefficient_batches(monkeypatch,
                                                              name):
    # a series to P = 34 whose batches split chunks, term by term against
    # the same series in the batches of the coefficient kernel, and against
    # the sum over blocks of _BATCH rows, where no chunk is split
    tp, ms = _prepare(sample_polynomial(name), 34)
    assert _split_batch_ends(tp, 2 * torus._BATCH), name
    got = torus.series_residues(tp, ms.primes)
    parts = [torus.series_residues(tp, ms.primes, range(k, k + torus._BATCH))
             for k in range(0, tp.rows, torus._BATCH)]
    assert got == [tuple(sum(xs) % q for xs, q in zip(zip(*terms), ms.primes))
                   for terms in zip(*parts)]
    real = torus._class_values
    monkeypatch.setattr(torus, "_class_values", lambda tp, primes, rows, _:
                        real(tp, primes, rows, torus._BATCH))
    assert torus.series_residues(tp, ms.primes) == got


def _central_trinomial(a, b, c, p, q):
    """[x^0](c/x + a + b*x)^p mod q with Python ints."""
    return sum(math.factorial(p) // (math.factorial(j) ** 2
                                     * math.factorial(p - 2 * j))
               * pow(b * c, j, q) * pow(a, p - 2 * j, q)
               for j in range(p // 2 + 1)) % q


def _trinomial_coefficient(a, b, c, p, m, q):
    """[x^m](c/x + a + b*x)^p mod q with Python ints."""
    if m < 0:
        b, c, m = c, b, -m
    f = math.factorial
    return sum(f(p) // (f(j) * f(j + m) * f(p - m - 2 * j))
               * pow(b * c, j, q) * pow(a, p - m - 2 * j, q) * pow(b, m, q)
               for j in range((p - m) // 2 + 1)) % q


@pytest.mark.parametrize("text, p", [("39", 12),
                                     ("X + X^-1 + Y + Y^-1", 40)])
@pytest.mark.parametrize("series", [False, True])
def test_predicted_work_counts_the_reductions(monkeypatch, text, p, series):
    h = sample_polynomial(text) if text == "39" else parse_laurent(text)
    tp, ms = _prepare(h, p)
    seen, real = [], torus._reduce

    def counted(x, q, tmp=None):
        seen.append(x.size)
        return real(x, q, tmp)

    monkeypatch.setattr(torus, "_reduce", counted)
    (torus.series_residues if series else torus.coefficient_residues)(
        tp, ms.primes)
    work = torus.predicted_work(tp, ms.primes, series)
    assert 0.75 * sum(seen) <= work <= 1.25 * sum(seen)


def test_trinomial_against_python_ints():
    # every p <= 33 and m in [-p, p]: up to four blocks of four j, every
    # tail (J + 1) mod 4, L = p - |m| of both parities and both signs of m,
    # for two primes in one call.  The first three points have a = 0, b = 0
    # and c = 0; the next has a = b = c = q - 1; the last has u = bc and
    # v = a^2 both q - 1 (a^2 = -1 needs q = 1 mod 4), so every monomial
    # of a block is q - 1 and its four products add up past 2**63
    primes = select_primes(1 << 61, congruent_to_1_mod=4).primes[:2]
    qs = np.array(primes, dtype=np.uint64)[:, None]
    rng = random.Random(3)
    a, b, c = ([[rng.randrange(q) for _ in range(8)] for q in primes]
               for _ in range(3))
    for i, q in enumerate(primes):
        a[i][0] = b[i][1] = c[i][2] = 0
        a[i][3] = b[i][3] = c[i][3] = q - 1
        a[i][7] = next(s for g in range(2, 50)
                       if (s := pow(g, (q - 1) // 4, q)) ** 2 % q == q - 1)
        b[i][7], c[i][7] = 1, q - 1
    A, B, C = (np.array(x, dtype=np.uint64) for x in (a, b, c))
    for p in range(34):
        for m in range(-p, p + 1):
            K = torus._trinomial_weights(p, abs(m), qs)
            assert torus._trinomial(A, B, C, p, m, K, qs).tolist() == [
                [_trinomial_coefficient(a[i][k], b[i][k], c[i][k], p, m, q)
                 for k in range(8)] for i, q in enumerate(primes)], (p, m)


@contextlib.contextmanager
def _buffer(size):
    """numpy's ufunc buffer at `size` elements inside, the caller's after."""
    with np.errstate():
        np.setbufsize(size)
        yield


def _reduce_input(shape, q, dtype, rng):
    """Random values up to the largest the kernels reduce, 4 (q - 1)^2 as
    uint64 (a block of four products) or (q - 1)^2 as int64, with each row
    starting 0, q - 1, (q - 1)^2 and, as uint64, 4 (q - 1)^2."""
    top = (q - 1) ** 2 * (4 if dtype == np.uint64 else 1)
    x = (rng.random(shape) * top).astype(dtype)
    x[..., :4] = [0, q - 1, (q - 1) ** 2, top]
    return x


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("n", [5, 255, 342, 3000, 4100])
def test_reduce_against_remainder_and_python_ints(n, dtype):
    # (classes, primes, n) against (primes, 1), and the reference engine's
    # (4, n) against one prime as (1, 1), on numpy's default buffer and on
    # torus._BUF: rows of n = 5 points per prime are at most half of either
    # buffer, 255, 342 and 3000 only of the default one, and 4100 of
    # neither, so both iterator paths run.  The kernels reduce uint64; int64
    # reduces the same way.  Reducing one row would fail
    rng = np.random.default_rng(n)
    primes = select_primes(1 << 92, congruent_to_1_mod=41).primes
    qs = np.array(primes, dtype=dtype)[:, None]
    x = np.stack([np.stack([_reduce_input(n, q, dtype, rng) for q in primes])
                  for _ in range(3)])
    want = [[[v % q for v in row] for row, q in zip(c.tolist(), primes)]
            for c in x]
    engine_x = _reduce_input((4, n), primes[0], dtype, rng)
    engine_want = [[v % primes[0] for v in row] for row in engine_x.tolist()]
    assert (n <= torus._BUF // 2, n <= np.getbufsize() // 2) \
        == (n == 5, n < 4100)
    for x, q, want in ((x, qs, want), (engine_x, qs[:1], engine_want)):
        assert np.remainder(x, q).tolist() == want
        for size in (np.getbufsize(), torus._BUF):
            with _buffer(size):
                for tmp in (None, np.empty_like(x)):
                    y = x.copy()
                    assert torus._reduce(y, q, tmp) is y
                    assert y.dtype == x.dtype and y.tolist() == want


def test_kernels_on_long_rows_repeat_the_short_rows():
    # the point values of test_trinomial_against_python_ints, in rows of 8
    # points per prime, repeated past half of torus._BUF and past half of
    # numpy's default buffer, on either buffer, give the same values repeated
    primes = select_primes(1 << 61, congruent_to_1_mod=4).primes[:2]
    qs = np.array(primes, dtype=np.uint64)[:, None]
    rng = np.random.default_rng(5)
    A, B, C = (np.stack([_reduce_input(8, q, np.int64, rng) % q
                         for q in primes]).astype(np.uint64)
               for _ in range(3))
    runs = [(reps, size) for reps in (torus._BUF // 16 + 1,
                                      np.getbufsize() // 16 + 1)
            for size in (np.getbufsize(), torus._BUF)]
    for p in (0, 1, 2, 7, 16, 33):
        for m in {-p, -1, 0, 2, p} & set(range(-p, p + 1)):
            K = torus._trinomial_weights(p, abs(m), qs)
            short = torus._trinomial(A, B, C, p, m, K, qs)
            for reps, size in runs:
                with _buffer(size):
                    long = torus._trinomial(
                        *(np.tile(x, reps) for x in (A, B, C)), p, m, K, qs)
                assert long.tolist() == np.tile(short, reps).tolist(), \
                    (p, m, reps)
        for reps, size in runs:
            with _buffer(size):
                long = torus._powmod(np.tile(A, reps), p, qs)
            assert long.tolist() \
                == np.tile(torus._powmod(A, p, qs), reps).tolist()


def test_kernels_restore_the_callers_buffer_size(monkeypatch):
    # numpy's buffer size after each kernel, and after a kernel that raises
    # inside the scope, is the caller's; a thread beside the scope keeps its
    # own size throughout.  Sample 39 at p = 20 runs batches of 1344 points
    # for each of its primes, where the scope sets torus._BUF; it leaves the
    # size alone for one prime or for rows of at most torus._BUF / 2 points
    tp, ms = _prepare(sample_polynomial("39"), 20)
    assert len(ms.primes) > 1
    default = np.getbufsize()
    with np.errstate():
        np.setbufsize(4096)
        for fn in (torus.coefficient_residues, torus.series_residues):
            fn(tp, ms.primes)
            assert np.getbufsize() == 4096, fn.__name__
        seen = []

        def raising(*args):
            seen.append(np.getbufsize())
            raise ArithmeticError("in the scope")

        monkeypatch.setattr(torus, "_trinomial", raising)
        with pytest.raises(ArithmeticError):
            torus.coefficient_residues(tp, ms.primes)
        assert seen == [torus._BUF] and np.getbufsize() == 4096
        for shape in ((1, 1344), (6, 128)):
            with torus._unbuffered(np.empty(shape)):
                assert np.getbufsize() == 4096, shape
    assert np.getbufsize() == default

    # each phase: the thread reads its size between two barriers
    barrier, beside = threading.Barrier(2, timeout=30), []

    def other_thread():
        np.setbufsize(1024)
        for _ in range(3):               # before, inside and after the scope
            barrier.wait()
            beside.append(np.getbufsize())
            barrier.wait()

    def phase():
        barrier.wait()
        barrier.wait()

    thread = threading.Thread(target=other_thread)
    thread.start()
    phase()
    with torus._unbuffered(np.empty((6, 1344))):
        phase()
        assert np.getbufsize() == torus._BUF
    phase()
    thread.join()
    assert beside == [1024] * 3 and np.getbufsize() == default


def _next_prime(n):
    return next(q for q in range(max(n + 1, 2), 2 * n + 4)
                if all(q % d for d in range(2, math.isqrt(q) + 1)))


# the primes the pipeline picks for sample 39 at p = 40 and 150 (M = 41,
# 151) and for the walk at p = 256 (M = 258): the bound is w^p
_PIPELINE = [_primes_for(w, M, p).primes
             for w, M, p in ((23, 41, 40), (23, 151, 150), (4, 258, 256))]
_PIPELINE_PRIMES = sum(_PIPELINE, ())


def test_trinomial_weights_against_big_integers():
    # every m for p <= 60 with all the pipeline's primes, then the ends and
    # a third of the way to p = 300 with one of its sets in turn; always
    # with the smallest prime above 2p
    for p in range(301):
        primes = (_PIPELINE_PRIMES if p <= 60 else _PIPELINE[p % 3]) \
            + (_next_prime(2 * p),)
        qs = np.array(primes, dtype=np.uint64)[:, None]
        ms = range(p + 1) if p <= 60 else sorted(
            {0, 1, 2, p // 3, p - 1, p})
        for m in ms:
            K = [math.comb(p, j) * math.comb(p - j, j + m)
                 for j in range((p - m) // 2 + 1)]
            assert torus._trinomial_weights(p, m, qs).tolist() == [
                [k % q for k in K] for q in primes], (p, m)


def test_inverses_and_prefix_products():
    rng = random.Random(9)
    primes = _PIPELINE_PRIMES[:3] + (7,)
    qs = np.array(primes, dtype=np.uint64)[:, None]
    for n in (1, 2, 3, 5, 8, 33):
        a = np.array([[rng.randrange(1, q) for _ in range(n)]
                      for q in primes], dtype=np.uint64)
        pre = torus._cumprod_mod(a, qs)
        inv = torus._inverses(a, qs)
        for i, q in enumerate(primes):
            row = a[i].tolist()
            assert pre[i].tolist() == [math.prod(row[:k + 1]) % q
                                       for k in range(n)]
            assert inv[i].tolist() == [pow(x, -1, q) for x in row]


@pytest.mark.parametrize("M", [1, 2, 3, 41, 257, 258, 1025])
def test_omega_powers_by_doubling(M):
    primes = select_primes(1 << 61, congruent_to_1_mod=M).primes[:2]
    qs = np.array(primes, dtype=np.uint64)[:, None]
    assert torus._omega_powers(M, qs).tolist() == [
        [pow(root_of_unity(M, q), k, q) for k in range(M)] for q in primes]


@pytest.mark.parametrize("P", [0, 1, 2, 34, 300])
def test_series_tables_against_a_pow_loop(P):
    for inner, grid, M in ((0, (1, 2), 61), (None, (0, 1, 2), 5)):
        primes = select_primes(1 << 92, 2 * P, congruent_to_1_mod=M).primes
        g, scale = torus._series_tables(
            P, M, len(grid), inner is not None,
            np.array(primes, dtype=np.uint64)[:, None])
        assert g.shape == (P + 1, len(primes), 1)
        assert g[2:, :, 0].tolist() == [
            [-(p - 1) ** 2 * pow((2 * p - 1) * (2 * p - 3), -1, q) % q
             for q in primes] for p in range(2, P + 1)]
        want = [pow(M, -len(grid), q) for q in primes]
        rows = [want]
        for p in range(1, P + 1):
            want = [c * (2 * p - 1) * pow(p, -1, q) % q
                    for c, q in zip(want, primes)]
            rows.append(want)
        got = np.broadcast_to(scale.T, (P + 1, len(primes)))
        assert got.tolist() == (rows if inner is not None
                                else [rows[0]] * (P + 1))


def test_rescaled_trinomial_recurrence_to_high_powers():
    # w V_p (2p-1)!!/p! = w [x^0](c/x + a + bx)^p for every p <= 200, for
    # two primes at once, with both signs present (b, c != 0) and with
    # BC = 0, for weights w all one and for orbit sizes up to 1152
    P = 200
    primes = select_primes(1 << 61, 2 * P, congruent_to_1_mod=12).primes[:2]
    q3 = np.array(primes, dtype=np.int64)[:, None, None]
    rng = random.Random(7)
    a, b, c = ([[rng.randrange(1, q) for _ in range(4)] for q in primes]
               for _ in range(3))
    for row in c:
        row[3] = 0                               # the last point has BC = 0
    A, B, C = (np.array(x, dtype=np.int64)[:, None, :] for x in (a, b, c))
    D = (A * A % q3 - 4 * (B * C % q3)) % q3
    g = np.zeros((P + 1, 2, 1, 1), dtype=np.int64)
    for p in range(2, P + 1):
        g[p, :, 0, 0] = [-(p - 1) ** 2 * pow((2 * p - 1) * (2 * p - 3), -1, q)
                         % q for q in primes]
    for w in ([1] * 4, [rng.randint(1, 1152) for _ in range(4)]):
        powers = torus._trinomial_powers(A, D, np.array(w), g, q3)
        for p, v in enumerate(powers):
            for i, q in enumerate(primes):
                # (2p-1)!! / p!
                scale = math.prod(range(1, 2 * p, 2)) \
                    * pow(math.factorial(p), -1, q)
                for k in range(4):
                    assert int(v[i, 0, k]) * scale % q == w[k] * \
                        _central_trinomial(a[i][k], b[i][k], c[i][k], p, q) \
                        % q, (p, q, k)
        assert p == P


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
        assert torus.coefficient_residues(tp, primes) \
            == tuple(want % q for q in primes)


@pytest.mark.parametrize("text,index,want", [
    ("X^20000 + X^-1", (0,), 0),
    ("X^20000 + X^-1", (19998,), 3),
    ("X*Y + X^-1 + Y^-1 + X^60*Y^-60", (0, 0), 6),
    ("X*Y + X^-1 + Y^-1 + X^60*Y^-60", (59, -61), 6),
])
def test_sparse_last_variables_match_the_oracle(monkeypatch, text, index,
                                                want):
    # the class values run over the exponents of the last grid variable that
    # occur, not over its whole degree (a loop over all 20001 took 12 s): the
    # reductions stay within twice the predicted work (which counts the
    # distinct exponents, two here; the term table of one row is the rest),
    # and the series kernel agrees too
    h = parse_laurent(text)
    nf, p = normalize(h), 3
    assert naive_power_coeff(h, p, index) == want
    seen, real = [], torus._reduce

    def counted(x, q, tmp=None):
        seen.append(x.size)
        return real(x, q, tmp)

    monkeypatch.setattr(torus, "_reduce", counted)
    target = tuple(i + p * s for i, s in zip(index, nf.shift))
    t0 = time.perf_counter()
    for flag in (True, False):
        tp = torus.plan(nf, target, p, flag)
        primes = _primes(tp, p)
        seen.clear()
        assert torus.coefficient_residues(tp, primes) \
            == tuple(want % q for q in primes)
        assert sum(seen) <= 2 * torus.predicted_work(tp, primes, False)
    assert time.perf_counter() - t0 < 2
    if not any(index):
        tp = _series_plan(nf, p)
        primes = _primes(tp, 2 * p)
        assert torus.series_residues(tp, primes) == [
            tuple(naive_power_coeff(h, k) % q for q in primes)
            for k in range(p + 1)]


@pytest.mark.parametrize("text,p,index,flag", [
    ("39", 10, (0, 0, 0, 0), True),            # maps, an inner variable
    ("X + X^-1 + Y + Y^-1", 9, (3, -2), True),  # twisted: w is built
    ("2*X^2*Y - X + 3*Y^-1", 6, (0, 0), False),  # no maps, no inner
])
def test_residue_arrays_are_uint64(text, p, index, flag):
    # numpy turns uint64 with an int64 array into float64 without a word,
    # which loses digits past 2**53: every residue array the kernels build
    # is uint64, and each holds residues
    h = sample_polynomial(text) if text == "39" else parse_laurent(text)
    nf = normalize(h)
    tp = torus.plan(nf, tuple(i + p * s for i, s in zip(index, nf.shift)),
                    p, flag)
    assert bool(tp.H) == (text == "39")
    primes = _primes(tp, 2 * p)
    qs = np.array(primes, dtype=np.uint64)[:, None]
    twisted = False
    for vals, w, weight in torus._class_values(tp, primes, None):
        twisted |= w is not None
        for x in (vals, weight) + ((w,) if w is not None else ()):
            assert x.dtype == np.uint64
        assert (vals < qs).all()
    assert twisted == any(index)
    m = tp.target[tp.inner] - p if tp.inner is not None else 0
    tables = [torus._omega_powers(tp.M, qs),
              torus._trinomial_weights(p, abs(m), qs)]
    for inner in (True, False):
        tables += torus._series_tables(p, tp.M, len(tp.grid), inner, qs)
    for x in tables:
        assert x.dtype == np.uint64 and (x < qs).all()


def _coefficient_kernel(nf, p):
    tp = torus.plan(nf, tuple(p * s for s in nf.shift), p)
    return torus.coefficient_residues, tp, _primes(tp, p, 31)[:1]


def _series_kernel(nf, P):
    tp = _series_plan(nf, P)
    return torus.series_residues, tp, _primes(tp, P, 31)[:1]


def test_live_elements_per_prime_grow_linearly_in_p():
    # one prime per run, as criterion 6 meters the Vandermonde engine, for
    # the single-power kernel and for the series kernel: the traced peak of
    # the call alone (numpy reports its buffers to tracemalloc)
    nf = normalize(sample_polynomial("39"))
    for kernel in (_coefficient_kernel, _series_kernel):
        peaks = []
        for p in (10, 20, 40):
            fn, tp, primes = kernel(nf, p)
            tracemalloc.start()
            try:
                fn(tp, primes)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held < 64 << 10
            peaks.append(peak)
        for small, big in zip(peaks, peaks[1:]):
            assert 1.6 <= big / small <= 2.4, (kernel.__name__, peaks)


@pytest.mark.parametrize("name", ["39", "24", "38"])
def test_traced_peaks_grow_linearly_in_full_batches(name):
    # at p = 40 and 80 both kernels run three or more full batches, so the
    # traced peak of one prime follows M, not the size of the last batch
    nf = normalize(sample_polynomial(name))
    for kernel in (_coefficient_kernel, _series_kernel):
        peaks = []
        for p in (40, 80):
            fn, tp, primes = kernel(nf, p)
            tracemalloc.start()
            try:
                fn(tp, primes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 1.6 <= peaks[1] / peaks[0] <= 2.4, (kernel.__name__, peaks)
