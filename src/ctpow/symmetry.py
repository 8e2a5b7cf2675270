"""Lattice symmetries of a Laurent polynomial.

An automorphism of h = sum_e c_e X^e is a B in GL_n(Z) with c_(Be) = c_e:
it permutes the support and keeps the coefficients.  Then h(omega^(B^T s))
= h(omega^s) at every torus point and [h^p]_(Bi) = [h^p]_i (see torus.py).

B is fixed by the images of n independent support points.  A pair v, w of
support points is labelled by the coefficients at v + w and v - w and by
how often v + w and v - w occur among all sums and differences; B keeps
these labels.  Each point's signature starts as its coefficient and is
refined by the labels and signatures of the other points until it is
stable.  The search maps the points one at a time to points of the same
signature, prunes on the labels of the points mapped so far, and keeps B
if it is integral and permutes the terms.  More than 8 variables, a
support of rank < n, more than MAX_TERMS terms (the set-up is O(N^2) in N
terms) or a search of more nodes than its budget (which bounds the group
order) get the identity only.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

from .laurent import make_polynomial, normalize

Matrix = tuple[tuple[int, ...], ...]

# more terms than this, or more search nodes, give the identity only
MAX_TERMS = 128
MAX_STEPS = 1 << 14


def _basis(pts, order=None):
    """Indices of n independent points, taken greedily in `order`, or None."""
    echelon, chosen = [], []
    for i in range(len(pts)) if order is None else order:
        v = list(pts[i])
        for c, row in echelon:                   # fraction-free reduction
            v = [row[c] * x - v[c] * y for x, y in zip(v, row)]
        if any(v):
            echelon.append((next(c for c, x in enumerate(v) if x), v))
            chosen.append(i)
            if len(chosen) == len(pts[0]):
                return chosen
    return None


def _row_ids(X: np.ndarray) -> np.ndarray:
    """Ids 0, 1, ... of the distinct rows of X, one per row."""
    order = np.lexsort(X.T)
    Y = X[order]
    ids = np.empty(len(X), dtype=np.int64)
    ids[order] = np.cumsum(np.r_[True, (Y[1:] != Y[:-1]).any(axis=1)]) - 1
    return ids


def inverse(rows):
    """(A, d) with A / d the inverse of the integer matrix rows, d > 0."""
    n = len(rows)
    a = [[int(x) for x in r] + [int(i == j) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):                           # Gauss-Jordan in integers
        r = next(r for r in range(c, n) if a[r][c])
        a[c], a[r] = a[r], a[c]
        for r in range(n):
            if r != c and a[r][c]:
                f, g = a[c][c], a[r][c]
                a[r] = [f * x - g * y for x, y in zip(a[r], a[c])]
    d = math.lcm(*(abs(r[i]) // math.gcd(*r[i:]) for i, r in enumerate(a)))
    return np.array([[x * d // r[i] for x in r[n:]] for i, r in enumerate(a)],
                    dtype=np.int64).reshape(n, n), d


# [nodes, maps] of the full search of terms, or [the largest budget that
# ran out, None], then the identity, for the latest 32 terms
_searched = lru_cache(maxsize=32)(lambda terms: [-1, None, (tuple(
    map(tuple, np.eye(len(terms[0][1]), dtype=int).tolist())),)])


def automorphisms(terms, steps: int = MAX_STEPS) -> tuple[Matrix, ...]:
    """Every B in GL_n(Z) with c_(Be) = c_e; terms is ((c, e), ...).  A
    search of more than `steps` nodes gives the identity only; one within
    them returns at most `steps` maps, one per leaf.  A budget is answered
    from the record of terms' searches (_searched); one above the largest
    that ran out searches again, with at least twice that (to MAX_STEPS),
    so that rising budgets cost O(the largest) nodes in all."""
    known = _searched(terms)
    if known[1] is None and steps > known[0]:
        known[:2] = _search(terms, max(steps, min(2 * known[0], MAX_STEPS)))
    return known[1] if known[0] <= steps and known[1] else known[2]


automorphisms.cache_clear = _searched.cache_clear


def _search(terms, steps: int):
    """(nodes, maps) of a search within `steps` nodes, else (steps, None);
    maps () stands for the identity only."""
    n = len(terms[0][1])
    E = np.array([e for _, e in terms], dtype=np.int64).reshape(len(terms), n)
    if not 0 < n <= 8 or len(E) > MAX_TERMS or not _basis(E.tolist()):
        return 0, ()
    lo, hi = E.min(axis=0), E.max(axis=0)
    strides = np.cumprod(np.r_[1, hi[:-1] - lo[:-1] + 1])
    codes = (E - lo) @ strides
    order = np.argsort(codes)
    coeffs = sorted({c for c, _ in terms})
    cls = np.array([coeffs.index(c) + 1 for c, _ in terms] + [0])

    def find(X):
        """The index of each vector of X in the support, -1 off it."""
        k = order[np.searchsorted(codes[order], (np.clip(X, lo, hi) - lo)
                                  @ strides).clip(max=len(E) - 1)]
        return np.where((E[k] == X).all(axis=-1), k, -1)

    N, sums, diffs = len(E), E[:, None] + E[None], E[:, None] - E[None]
    rel = (np.where(sums.any(-1), cls[find(sums)], -1) * len(cls)
           + cls[find(diffs)])
    for V in (sums, diffs):                      # and how often each occurs
        ids = _row_ids(V.reshape(-1, n))
        rel = rel * (N * N + 1) + np.bincount(ids)[ids].reshape(N, N)
    R = rel.tolist()
    pair = _row_ids(np.stack([rel, rel.T], -1).reshape(-1, 2)).reshape(N, N)
    sig = _row_ids(cls[:-1, None])
    while True:                  # refine by the signatures of the neighbours
        new = _row_ids(np.c_[sig, np.sort(pair * N + sig, axis=1)])
        if new.max() == sig.max():
            break
        sig = new
    sig = sig.tolist()
    cands = {}
    for i, t in enumerate(sig):
        cands.setdefault(t, []).append(i)
    basis = _basis(E.tolist(), sorted(range(len(E)),
                                      key=lambda i: len(cands[sig[i]])))
    leaves, left = [], [steps]

    def extend(images):
        left[0] -= 1
        if left[0] < 0:
            return
        if len(images) == n:
            leaves.append(images)
            return
        b = basis[len(images)]
        for j in cands[sig[b]]:
            if j not in images and all(
                    R[b][basis[m]] == R[j][im] and R[basis[m]][b] == R[im][j]
                    for m, im in enumerate(images)):
                extend(images + [j])

    extend([])
    if left[0] < 0:
        return steps, None
    adj, det = inverse(E[basis])
    bt = adj @ E[np.array(leaves)]               # det * B^T, one per leaf
    bt = bt[~(bt % det).any(axis=(1, 2))] // det
    # a map that sends the terms to distinct like terms permutes the
    # support, which spans Q^n, so det B = +-1; 256 maps at a time
    return steps - left[0], tuple(
        tuple(map(tuple, b.T.tolist())) for k in range(0, len(bt), 256)
        for b, im in zip(bt[k:k + 256], find(E @ bt[k:k + 256]).tolist())
        if (cls[im] == cls[:-1]).all() and len(set(im)) == len(E))


def coordinate_changes(terms, G: np.ndarray, least: int):
    """Unimodular U whose rows u have u.e in {-1, 0, 1} on the support, by
    the order of the stabiliser {B in G : B^T u = +-u} of the first row,
    while it exceeds `least`; every +-B^T u (B in G) has u's order and its
    own U.  G has more than one map, which automorphisms finds only for
    n <= 8 and a support that spans Q^n.  Such u are fixed by their values
    on a basis, so 3^n <= 6561 candidates cover all; the 256 of least |u|_1
    are ranked, the other rows picked greedily: a u without them is skipped."""
    pts = [e for _, e in terms]
    adj, det = inverse([pts[i] for i in _basis(pts)])
    u = np.array(list(product((-1, 0, 1), repeat=len(pts[0])))) @ adj.T
    u = u[~(u % det).any(axis=1)] // det
    u = u[(np.abs(np.array(pts) @ u.T) <= 1).all(axis=0)]
    u = u[u[np.arange(len(u)), (u != 0).argmax(axis=1)] > 0]   # u or -u
    W = sorted(map(tuple, u.tolist()), key=lambda r: sum(map(abs, r)))[:256]
    Wt = np.array(W, dtype=np.int64).reshape(-1, len(pts[0])).T
    BtW = G.transpose(0, 2, 1) @ Wt              # B^T u for every B and u
    stab = ((BtW == Wt).all(axis=1)
            | (BtW == -Wt).all(axis=1)).sum(axis=0).tolist()
    for k in sorted(range(len(W)), key=lambda k: -stab[k]):
        if stab[k] <= least:
            return
        rows = [W[k]] + W
        picked = _basis(rows)
        if picked and inverse([rows[i] for i in picked])[1] == 1:
            yield np.array([rows[i] for i in picked], dtype=np.int64)


def laurent_terms(nf) -> tuple:
    """((c, e), ...) with e the exponents of h = X^-shift f."""
    return tuple((c, tuple(x - s for x, s in zip(e, nf.shift)))
                 for c, e in nf.terms)


def in_coordinates(nf, target, p: int, U):
    """h o U (exponent e -> Ue) normalized, and the target U i in its
    cleared coordinates, so that [h^p]_i = [(h o U)^p]_(U i)."""
    U = np.array(U, dtype=np.int64)
    nf2 = normalize(make_polynomial(nf.variables, [
        (c, U @ e) for c, e in laurent_terms(nf)]))
    index = U @ (np.array(target) - p * np.array(nf.shift))
    return nf2, tuple(int(i) + p * s for i, s in zip(index, nf2.shift))


def _prefix_order(A: np.ndarray, M: int, O: np.ndarray) -> np.ndarray:
    """(m, R): below 0, 0 or above 0 as the first j coordinates of A s
    compare with the row's own (O: outer coordinates, (g - 1, R)); j counts
    the leading rows k < g - 1 of A with A[k, -1] = 0: the row fixes them."""
    W = np.cumprod(A[:, :-1, -1] == 0, axis=1) * M ** np.arange(
        len(O) - 1, -1, -1, dtype=np.int64)
    return ((A[:, :-1, :-1] @ O % M - O) * W[:, :, None]).sum(axis=1)


def least_rows(H: np.ndarray, M: int, rows: range, size: int):
    """The rows of `rows` that can hold the least point of an orbit of H,
    ascending, at most `size` at a time: a row whose prefix an A sends
    below its own maps all its points lower.  One A per prefix, on M size
    rows at a time, k at a time over the c rows left: k c <= M size."""
    A = H[H[:, 0, -1] == 0] if len(H) else H
    if len(A):
        P = A[:, :-1, :-1] * np.cumprod(A[:, :-1, -1] == 0, axis=1)[..., None]
        A = A[list({a.tobytes(): i for i, a in enumerate(P)}.values())]
    strides = M ** np.arange(H.shape[1] - 2, -1, -1, dtype=np.int64)
    for i in range(0, len(rows), M * size):
        r = rows[i:i + M * size]
        row, j = np.arange(r.start, r.stop, r.step, dtype=np.int64), 0
        while j < len(A) and len(row):
            k = M * size // len(row)
            row = row[(_prefix_order(A[j:j + k], M, row // strides[:, None]
                                     % M) >= 0).all(axis=0)]
            j += k
        yield from (row[k:k + size] for k in range(0, len(row), size))


def orbits(H: np.ndarray, M: int, row):
    """The R rows `row` of Z_M^g (M points each) under s -> A s mod M, A in
    H (distinct, shape (|H|, g, g)): their outer coordinates O, and of each
    point whose flat index is the least of its orbit the index r into `row`,
    the column l and |H| / #{A in H : A s = s}.  A s is a row part plus a
    column part, each reduced once per row or column; the maps go five at a
    time over all R M points while half are kept, then k at a time over the
    c kept, k * max(c, R, M) <= 2 R M, on the rows where one sends the
    prefix to or below the row's own: at most (10 g + 8) R M elements."""
    g, R = H.shape[1], len(row)
    strides = M ** np.arange(g - 1, -1, -1, dtype=np.int64)
    O = row // strides[1:, None] % M
    cols = np.arange(M, dtype=np.int64)
    flat, stab = (row[:, None] * M + cols).ravel(), np.ones(R * M, np.int64)
    maps = H[(H != np.eye(g, dtype=np.int64)).any(axis=(1, 2))]

    def images(A, r=None, l=None):               # of all points, or of (r, l)
        rp, cp = A[:, :, :-1] @ O % M, A[:, :, -1:] * cols % M
        img = ((rp[..., None] + cp[:, :, None]).reshape(len(A), g, -1)
               if r is None else rp[:, :, r] + cp[:, :, l])
        # below M the unsigned x - M wraps past 2**63: the minimum is x mod M
        u = img.view(np.uint64)
        np.minimum(u, u - np.uint64(M), out=u)
        f = img[:, 0].copy()                     # the flat index, by Horner
        for x in img[:, 1:].transpose(1, 0, 2):
            f *= M
            f += x
        return f

    keep, i = np.ones(R * M, dtype=bool), 0
    while i < len(maps) and 2 * np.count_nonzero(keep) >= R * M:
        f = images(maps[i:i + 5])
        keep &= (f >= flat).all(axis=0)
        stab += (f == flat).sum(axis=0)
        i += 5
    r, l = np.divmod(np.flatnonzero(keep), M)
    flat, stab = flat[keep], stab[keep]
    while i < len(maps) and len(r):
        A = maps[i:i + max(1, 2 * R * M // max(len(r), R, M))]
        t = (_prefix_order(A, M, O) <= 0).any(axis=0)[r]
        f, keep = images(A, r[t], l[t]), ~t
        keep[t] = (f >= flat[t]).all(axis=0)
        stab[t] += (f == flat[t]).sum(axis=0)
        stab, r, l, flat = stab[keep], r[keep], l[keep], flat[keep]
        i += len(A)
    return O, r, l, len(H) // stab if len(H) else np.ones_like(r)
