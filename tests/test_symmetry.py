import itertools
import random
import time

import numpy as np
import pytest

from ctpow import symmetry, torus
from ctpow.fixtures import sample_polynomial
from ctpow.laurent import make_polynomial, normalize, parse_laurent
from ctpow.symmetry import (MAX_TERMS, automorphisms, coordinate_changes,
                            least_rows, orbits)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _group(h):
    automorphisms.cache_clear()
    return automorphisms(h.terms)


def _permutes_support(B, h):
    coeff = {e: c for c, e in h.terms}
    B = np.array(B, dtype=np.int64)
    return all(coeff.get(tuple((B @ e).tolist())) == c for c, e in h.terms)


@pytest.mark.parametrize("h,order", [
    (sample_polynomial("39"), 12),
    (sample_polynomial("24"), 6),
    (sample_polynomial("38"), 2),
    (sample_polynomial("dwork4"), 120),
    (parse_laurent("X + X^-1 + Y + Y^-1"), 8),
    # full rank, but no two support points form a basis of Z^2
    (parse_laurent("X^2 + X^-2 + Y + Y^-1"), 4),
    # the coefficients break the symmetry of the square
    (parse_laurent("X + X^-1 + 2*Y + 2*Y^-1"), 4),
    (parse_laurent("X + X^-1 + Y + Y^-1 - 3"), 8),
])
def test_group_orders_and_every_map_keeps_the_terms(h, order):
    G = _group(h)
    assert len(G) == order
    assert len(set(G)) == order
    assert identity(h.n) in G
    for B in G:
        assert _permutes_support(B, h)
        assert round(abs(np.linalg.det(np.array(B)))) == 1
    # closed under composition
    mats = {tuple(map(tuple, np.array(B) @ np.array(C))) for B in G for C in G}
    assert mats == set(G)


def test_random_supports_give_groups_of_unimodular_maps():
    # many random supports have maps that send the support into itself
    # without being onto; none of those may be returned
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 3)
        terms = {tuple(rng.randint(-2, 2) for _ in range(n)):
                 rng.choice([1, 1, 1, -4]) for _ in range(rng.randint(1, 6))}
        h = make_polynomial([f"X{k}" for k in range(n)],
                            [(c, e) for e, c in terms.items()])
        if h.is_zero():
            continue
        G = _group(h)
        assert identity(h.n) in G
        for B in G:
            assert _permutes_support(B, h)
            assert round(abs(np.linalg.det(np.array(B)))) == 1, (h, B)
        assert {tuple(map(tuple, np.array(B) @ np.array(C)))
                for B in G for C in G} == set(G)


def test_a_rank_deficient_support_gets_the_identity_only():
    # X*Y and its inverse span a line in Z^2: swapping X and Y keeps them,
    # but maps off the line are not fixed by the support
    assert _group(parse_laurent("X*Y + X^-1*Y^-1")) == (identity(2),)


def test_the_constant_polynomial():
    assert _group(parse_laurent("5")) == ((),)


def test_a_support_without_sums_or_differences_in_it():
    # 36 terms, the orbits of three points under a signed permutation and
    # -I: no sum or difference of two support points lies in the support,
    # so only how often each occurs tells the points apart, and without
    # that the search runs past 2**20 nodes
    sigma = np.array([[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [1, 0, 0, 0]])
    group = [np.linalg.matrix_power(sigma, k) * s
             for k in range(6) for s in (1, -1)]
    support = {tuple((B @ e).tolist()) for B in group
               for e in [(-2, 0, -2, 0), (-2, 0, -1, 0), (-1, 0, -1, 1)]}
    h = make_polynomial([f"X{k}" for k in range(4)],
                        [(-1, e) for e in support])
    assert len(h.terms) == 36
    G = _group(h)
    assert len(G) == 24
    assert all(_permutes_support(B, h) for B in G)


def test_no_integral_map_for_a_rational_symmetry():
    # (x, y) -> (2y, x/2) maps the support to itself but is not integral
    G = _group(parse_laurent("X^2 + X^-2 + Y + Y^-1"))
    assert all(B[0][1] == 0 and B[1][0] == 0 for B in G)


# ten times the budgets (5 ms per sample, 1 ms on the walk), so that a
# loaded machine does not fail them
@pytest.mark.parametrize("name,budget", [("39", 5e-2), ("24", 5e-2),
                                         ("38", 5e-2), ("walk", 1e-2)])
def test_search_time(name, budget):
    h = (parse_laurent("X + X^-1 + Y + Y^-1") if name == "walk"
         else sample_polynomial(name))
    _group(h)
    best = min(_timed(h) for _ in range(5))
    assert best < budget, best


def _timed(h):
    t0 = time.perf_counter()
    _group(h)
    return time.perf_counter() - t0


def _cross_polytope(n):
    return tuple((1, tuple(s * (i == k) for i in range(n)))
                 for k in range(n) for s in (1, -1))


def test_large_supports_and_groups_get_the_identity_only():
    # more than MAX_TERMS terms: no O(N^2) set-up
    box = tuple((1, e) for e in itertools.product(range(-3, 4), repeat=3))
    assert len(box) > MAX_TERMS
    assert automorphisms(box) == (identity(3),)
    # the signed permutations of the cross-polytope: 384 in 4 variables,
    # 3840 in 5 within the default search budget, but not within 1024 nodes
    assert len(automorphisms(_cross_polytope(4))) == 384
    assert len(automorphisms(_cross_polytope(5))) == 3840
    assert automorphisms(_cross_polytope(5), 1024) == (identity(5),)
    # and 46080 in 6 variables, past the default budget
    t0 = time.perf_counter()
    assert automorphisms(_cross_polytope(6)) == (identity(6),)
    assert time.perf_counter() - t0 < 5


def test_recorded_searches_answer_every_budget(monkeypatch):
    # the 4-variable cross-polytope's full search takes 633 nodes: budgets
    # in any order give what a search from scratch gives
    terms = _cross_polytope(4)
    budgets = [700, 10, 632, 633, 5000, 100, 632, 1 << 14]
    fresh = []
    for steps in budgets:
        automorphisms.cache_clear()
        fresh.append(automorphisms(terms, steps))
    automorphisms.cache_clear()
    assert [automorphisms(terms, steps) for steps in budgets] == fresh
    assert [len(G) for G in fresh] == [384, 1, 1, 384, 384, 1, 1, 384]
    # planning the 5-variable cross-polytope at p = 2..40 in one process
    # asks for 39 rising budgets, all below the 6331 nodes of its full
    # search; the record gives the plans of a search from scratch at every
    # power, searching again only past the largest budget that ran out,
    # with at least twice that budget
    nf = normalize(parse_laurent(" + ".join(f"X{k} + X{k}^-1"
                                            for k in range(5))))

    def plan(p):
        return torus.plan(nf, tuple(p * s for s in nf.shift), p)

    fresh = []
    for p in range(2, 41):
        automorphisms.cache_clear()
        fresh.append(plan(p))
    asked, searched = [], []
    ask, search = symmetry.automorphisms, symmetry._search
    monkeypatch.setattr(symmetry, "automorphisms", lambda terms, steps: (
        asked.append(steps), ask(terms, steps))[1])
    monkeypatch.setattr(symmetry, "_search", lambda terms, steps: (
        searched.append(steps), search(terms, steps))[1])
    automorphisms.cache_clear()
    assert [plan(p) for p in range(2, 41)] == fresh
    assert len(set(asked)) == 39 and len(searched) < 10, searched


def _stabiliser(G, u, index):
    return sum(((B.T @ u == u).all() or (B.T @ u == -u).all())
               and (B @ index == index).all() for B in G)


@pytest.mark.parametrize("name", ["39", "24", "41", "dwork4"])
def test_coordinate_changes_come_by_stabiliser_order(name):
    h = sample_polynomial(name)
    G = np.array(_group(h), dtype=np.int64)
    pts = np.array([e for _, e in h.terms])
    for index in (np.zeros(4, dtype=np.int64), np.array([1, 0, 0, 0])):
        orders = []
        fixing = G[[(B @ index == index).all() for B in G]]
        for U in coordinate_changes(h.terms, fixing, 1):
            assert round(abs(np.linalg.det(U))) == 1
            assert np.abs(pts @ U.T).max() == 1     # every row has width 2
            orders.append(_stabiliser(G, U[0], index))
        assert all(k > 1 for k in orders)
        assert orders == sorted(orders, reverse=True)


def test_coordinate_changes_on_sample_39():
    h = sample_polynomial("39")
    G = np.array(_group(h), dtype=np.int64)
    index = np.zeros(4, dtype=np.int64)
    # the axes X..T each have a stabiliser of order 2; one direction has 6
    assert [_stabiliser(G, u, index) for u in np.eye(4, dtype=np.int64)] \
        == [2, 2, 2, 2]
    U = next(coordinate_changes(h.terms, G, 2))
    assert _stabiliser(G, U[0], index) == 6
    assert next(coordinate_changes(h.terms, G, 6), None) is None


def _closure(gens):
    """The group of integer matrices generated by gens, as an array."""
    group = {identity(len(gens[0]))}
    new = list(group)
    while new:
        new = [C for C in {tuple(map(tuple, (np.array(A) @ B).tolist()))
                           for A in new for B in gens} if C not in group]
        group.update(new)
    return np.array(sorted(group), dtype=np.int64)


def _signed_permutation(perm, signs):
    return [[signs[i] * (perm[i] == j) for j in range(len(perm))]
            for i in range(len(perm))]


def _orbit_groups():
    # signed permutations: all 8 in 2 variables, +-1, a 3-cycle and a
    # group of 24 in 3 variables; and the 6 maps of sample 39 that act on
    # its grid, which are not signed permutations
    yield _closure([_signed_permutation((1, 0), (1, 1)),
                    _signed_permutation((0, 1), (-1, 1))])
    yield _closure([_signed_permutation((0, 1), (-1, -1))])
    yield _closure([_signed_permutation((1, 2, 0), (1, 1, 1))])
    yield _closure([_signed_permutation((1, 0, 2), (1, -1, 1)),
                    _signed_permutation((0, 2, 1), (1, 1, -1))])
    nf = normalize(sample_polynomial("39"))
    tp = torus.plan(nf, tuple(10 * s for s in nf.shift), 10)
    assert len(tp.H) == 6 and tp.U is not None
    yield tp.maps


@pytest.mark.parametrize("H", list(_orbit_groups()))
@pytest.mark.parametrize("M", [2, 3, 5, 7])
def test_orbits_against_brute_force(H, M):
    # the least flat index of each orbit that meets the rows, weighted by
    # the orbit size, on chunks of rows that do not start at row 0
    g = H.shape[1]
    n_rows = M ** (g - 1)
    strides = [M ** k for k in range(g - 1, -1, -1)]
    for row in (np.arange(1, n_rows, 2), np.arange(n_rows // 2, n_rows)):
        want = []
        for flat in (r * M + l for r in row.tolist() for l in range(M)):
            s = [flat // k % M for k in strides]
            orbit = {sum(k * (sum(a * x for a, x in zip(A, s)) % M)
                         for k, A in zip(strides, B)) for B in H.tolist()}
            if min(orbit) == flat:
                want.append((flat, len(orbit)))
        _, r, l, weight = orbits(H, M, row, M)
        assert list(zip((row[r] * M + l).tolist(), weight.tolist())) == want


def _least_points(H, M, rows):
    """(flat index, orbit size) of each point of the rows that is the least
    of its orbit, by brute force."""
    g = H.shape[1]
    strides = [M ** k for k in range(g - 1, -1, -1)]
    least = []
    for flat in (r * M + l for r in rows for l in range(M)):
        s = [flat // k % M for k in strides]
        orbit = {sum(k * (sum(a * x for a, x in zip(A, s)) % M)
                      for k, A in zip(strides, B)) for B in H.tolist()}
        if min(orbit) == flat:
            least.append((flat, len(orbit)))
    return least


@pytest.mark.parametrize("H", list(_orbit_groups()))
@pytest.mark.parametrize("M", [2, 3, 5, 7])
def test_least_rows_drop_no_least_point(H, M):
    # the rows that the row test drops hold no least point, and the orbits
    # of the kept rows, in chunks, are those of all rows; on every row and
    # on the odd rows, a block of the row-block workers
    n_rows = M ** (H.shape[1] - 1)
    for rows in (range(n_rows), range(1, n_rows, 2)):
        want = _least_points(H, M, rows)
        for size in (1, 3, n_rows):
            chunks = list(least_rows(H, M, rows, size))
            kept = np.concatenate(chunks).tolist() if chunks else []
            assert all(0 < len(c) <= size for c in chunks)
            assert sorted(kept) == kept and set(kept) <= set(rows)
            assert {flat // M for flat, _ in want} <= set(kept)
            got = []
            for row in chunks:
                _, r, l, weight = orbits(H, M, row, M)
                got += zip((row[r] * M + l).tolist(), weight.tolist())
            assert got == want
