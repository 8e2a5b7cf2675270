"""Coefficient extraction by exact sums over roots of unity (the torus engine).

The constant terms a_p = [h^p]_0 are the coefficients of a period integral
over the torus |X_k| = 1.  Over a prime field that integral becomes an exact
finite sum: for f = X^shift h the cleared polynomial (degree d_k in variable
k), a prime q = 1 (mod M), omega of order M and i = t - p*shift,

    [f^p]_t = [h^p]_i = M^-g * sum_{s in Z_M^g} omega^(-i.s) * h(omega^s)^p

whenever M > max(p*d_k - t_k, t_k) for every variable k on the grid: no
other exponent of f^p in [0, p*d_k] is then congruent to t_k modulo M.
Only the index i twists the sum; for a constant term it is 0.

One variable x of degree at most 2 is summed exactly instead of over the
grid.  Writing f = C + A*x + B*x^2 = x * (C/x + A + B*x), with A, B, C
polynomials in the other variables, and m = t_x - p >= 0,

    [f^p]_(x^t_x) = B^m * sum_j K_j (B*C)^j A^(p-m-2j),
    K_j = p! / (j! (j+m)! (p-m-2j)!),

with B and C swapped when m < 0, by homogeneous Horner in u = BC and
v = A^2, four j per step (Paterson-Stockmeyer; _trinomial_work counts the
work).  Without such a variable, or with use_split2 off, every variable is
on the grid and h(omega^s)^p is powered pointwise.

A series a_0..a_P takes one pass over the grid planned for a_P, which is
valid for every p <= P.  With h = C/x + A + B*x in the inner variable x,
U_p = p! [x^0] h^p obeys U_p = (2p-1) A U_(p-1) - (p-1)^2 D U_(p-2),
D = A^2 - 4BC.  The pass runs it on w V_p = w U_p / (2p-1)!!, with w the
orbit weight of the point (below):

    V_0 = w, V_1 = w A, V_p = A V_(p-1) + g_p (D V_(p-2) mod q) mod q,
    g_p = -(p-1)^2 / ((2p-1)(2p-3)) mod q,

and a_p = M^-g (2p-1)!!/p! sum_s V_p, so every prime must exceed 2P.  If x
has exponents of one sign only, A^p alone reaches x^0: BC = 0, D = A^2.
Without the inner variable the pass accumulates w h(omega^s)^p.

Both paths sum over one grid point per orbit of the polynomial's lattice
symmetries, on grids of two or more variables (one row is overhead-bound)
and for at most symmetry.MAX_TERMS terms.  An automorphism B gives
h(omega^(B^T s)) = h(omega^s), and the summand is the same on the orbit of
a point under the automorphisms that map the inner variable's fibres to
fibres (row inner of B is +-e_inner; without an inner variable, all) and
fix i.  H is the set of distinct grid maps s -> B[grid, grid]^T s mod M
they give; `ctpow bench` prints |H|.  One number bounds the symmetry
used, the points of _ROWS grid rows (at most symmetry.MAX_STEPS): a
search past that many nodes gives none, and one within it returns at
most that many maps.  The point of least flat index
stands for its orbit, weighted |H| / #{A in H : A s = s}
(symmetry.orbits).  The planner may first change coordinates by a
unimodular U, [h^p]_i = [(h o U)^p]_(U i), to sum a direction with a
larger stabiliser exactly.

The class values A, B, C of h (or h) are evaluated only at the orbit
representatives, in chunks of _BATCH kept rows (a row is the last grid
variable, M points) with tables built once per chunk, and batches of
_BATCH M points (2 _BATCH M in the series), so the live elements per prime
stay O(p).  The last variable is the one the most maps keep in place, so that
they map rows to rows; a row whose leading coordinates an A sends below its
own holds no representative (symmetry.least_rows).  Per row the terms add
up to each class's coefficients P_e at the exponents e of the last variable
that occur, the phases (e - shift).s of the outer variables from one table;
a point's value is one lazy dot sum_e P_e omega^((e - shift) l).  All
primes share each numpy call, and a reduction divides by the (primes, 1)
column q (_reduce).  numpy divides by an invariant by multiply and shift
(Granlund and Montgomery, 1994), but its iterator buffers an op that
broadcasts q against rows of at most half the ufunc buffer (8192 elements
by default), and a buffered division divides each element: 3.9 against
0.53 ns per element on a (6, 2624) batch.  So the per-prime arithmetic
runs on a buffer of _BUF elements (_unbuffered); the results never depend
on it.  Residues are uint64 below 2**31 from the moment they are built
(numpy turns uint64 with an int64 array into float64, exact only below
2**53): a product of two stays below 2**62 and a sum of four below 2**64,
at any P; a weight is at most |H|, and a coefficient batch's weights add
up to less than 2**31.  P < MAX_SERIES = 2**16 is a size guard: every grid
variable has more than P points.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import symmetry
from .laurent import NormalizedPolynomial
from .rns import root_of_unity
from .symmetry import Matrix

# grid rows whose points bound the symmetry search, and per chunk of the
# reference engine; one row holds M points for every prime
_ROWS = 128
# orbit representatives per batch, in grid rows of M points
_BATCH = 64
# numpy's ufunc buffer, in elements, while the kernels run (see _unbuffered)
_BUF = 256
# series lengths P must stay below this size guard
MAX_SERIES = 1 << 16


@dataclass(frozen=True)
class TorusPlan:
    """The sum for [f^p]_target: which variable is summed exactly, which
    run over the grid, and M.

    nf and target are what the kernels evaluate: h o U and U i if U, the
    coordinate change plan applied (exponent e -> Ue), is set, else the
    polynomial and target plan was given.  The grid is walked in rows along
    its last variable.  H holds the distinct A = B[grid, grid]^T, identity
    included, by which B acts as s -> A s mod M.
    """
    nf: NormalizedPolynomial
    target: tuple[int, ...]
    p: int
    inner: int | None
    grid: tuple[int, ...]
    M: int
    U: Matrix | None = None
    H: tuple[Matrix, ...] = ()

    @property
    def rows(self) -> int:
        return self.M ** max(len(self.grid) - 1, 0)

    @property
    def maps(self) -> np.ndarray:
        """H as an array of shape (|H|, g, g)."""
        g = len(self.grid)
        return np.array(self.H, dtype=np.int64).reshape(len(self.H), g, g)


def _layout(nf: NormalizedPolynomial, target, p: int, inners) -> TorusPlan:
    need = [max(p * d - t, t) for d, t in zip(nf.degrees, target)]
    inner = max((k for k in inners if nf.degrees[k] <= 2),
                key=lambda k: (need[k], k), default=None)
    grid = tuple(k for k, (d, t) in enumerate(zip(nf.degrees, target))
                 if k != inner and (d, t) != (0, 0))
    return TorusPlan(nf, tuple(map(int, target)), p, inner, grid,
                     1 + max((need[k] for k in grid), default=0))


def _acting(G, tp: TorusPlan) -> TorusPlan:
    """tp with H: the distinct A = B[grid, grid]^T for the B in G that map
    the inner variable's fibres to fibres (row inner of B is +-e_inner);
    none if a variable is off the grid or if _BATCH M points' weights could
    reach 2**31.  plan's search budget bounds |H|: G has at most one map per
    node searched.  The variable that the most A keep in place (column zero
    off the diagonal) goes last on the grid, the latest on a tie."""
    if tp.inner is not None:
        G = G[~np.delete(G[:, tp.inner], tp.inner, axis=1).any(axis=1)]
    # np.unique(axis=0) would import numpy.ma: 35 ms in a fresh process
    A = tuple(dict.fromkeys(tuple(map(tuple, a)) for a in G[:, tp.grid][
        :, :, tp.grid].transpose(0, 2, 1).tolist()))
    if not (len(tp.grid) + (tp.inner is not None) == G.shape[1]
            and 2 <= len(A) and _BATCH * tp.M * len(A) < 1 << 31):
        return tp
    g = len(tp.grid)
    kept = (np.array(A) * (1 - np.eye(g, dtype=np.int64)) == 0).all(axis=1)
    last = max(range(g), key=lambda k: (kept[:, k].sum(), k))
    order = sorted(range(g), key=lambda k: k == last)
    return replace(tp, grid=tuple(tp.grid[k] for k in order), H=tuple(
        tuple(tuple(a[i][j] for j in order) for i in order) for a in A))


def plan(nf: NormalizedPolynomial, target, p: int, use_split2: bool = True
         ) -> TorusPlan:
    """Pick the exactly summed variable, the smallest valid M, and H.

    Among the variables of degree at most 2 the one that would need the
    largest M on the grid is summed exactly; ties go to the last.  Variables
    absent from f with target 0 are left off the grid.  A grid of two or
    more variables gets H from an automorphism search of at most one node
    per point of _ROWS grid rows, which also bounds |H|; a longer search
    gives the identity.  With use_split2 the first U of
    symmetry.coordinate_changes that strictly enlarges H without raising M
    changes the coordinates: its first row u is summed exactly, and the
    plan holds h o U and U i (symmetry.in_coordinates) instead of nf and
    target.  A u whose H is too small rules out every +-B^T u, B in G: B
    acts trivially on u's grid iff w (B - I) is in Z u for every w, which
    does not depend on U's other rows, so each class is laid out once."""
    tp = _layout(nf, target, p, range(nf.n) if use_split2 else ())
    if len(tp.grid) < 2:
        return tp                  # one row: numpy call overhead dominates
    terms = symmetry.laurent_terms(nf)
    G = symmetry.automorphisms(terms, min(symmetry.MAX_STEPS,
                                          min(_ROWS, tp.rows) * tp.M))
    G = np.array(G, dtype=np.int64).reshape(len(G), nf.n, nf.n)
    index = np.array(target, dtype=np.int64) - p * np.array(nf.shift)
    G = G[(G @ index == index).all(axis=1)]      # those that fix the index
    tp = _acting(G, tp)
    least, seen = max(len(tp.H), 1), set()
    for U in symmetry.coordinate_changes(terms, G, least) \
            if use_split2 and len(G) > least else ():
        if tuple(U[0].tolist()) in seen:
            continue
        nf2, target2 = symmetry.in_coordinates(nf, target, p, U)
        tp2 = _acting(U @ G @ symmetry.inverse(U)[0],
                      _layout(nf2, target2, p, (0,)))
        if len(tp2.H) > least and tp2.M <= tp.M:
            return replace(tp2, U=tuple(map(tuple, U.tolist())))
        if len(tp2.H) <= least:     # and so is each +-B^T u = +-u G
            seen.update(map(tuple, np.r_[U[0] @ G, -U[0] @ G].tolist()))
    return tp


@contextmanager
def _unbuffered(x):
    """numpy's ufunc buffer at _BUF elements inside, the caller's size after
    (errstate scopes it per thread in numpy >= 2.0, the finally before), for
    the arithmetic on x (..., primes, points); no change for one prime (q
    acts as a scalar) or at most _BUF / 2 points, buffered at either size."""
    if x.shape[-2] == 1 or x.shape[-1] <= _BUF // 2:
        yield
        return
    with np.errstate():
        old = np.setbufsize(_BUF)
        try:
            yield
        finally:
            np.setbufsize(old)


def _reduce(x, q, tmp=None):
    """x mod q in place for x >= 0 and q (primes, 1, ...) aligned with the
    last axes of x, or one prime as (1, ..., 1); tmp is shaped like x.  One
    floor division for all primes, then a multiply and a subtract."""
    u = np.floor_divide(x, q, out=tmp)
    u *= q
    x -= u
    return x


def _mulmod(a, b, q):
    return _reduce(a * b, q)


def _powmod(v, e: int, q):
    """Elementwise v**e mod q by binary powering."""
    result, base = np.ones_like(v), v
    while e:
        if e & 1:
            result = _mulmod(result, base, q)
        e >>= 1
        if e:
            base = _mulmod(base, base, q)
    return result


def _powmod_work(e: int) -> int:
    """The products per element of _powmod(v, e, q), each one reduction."""
    return max(e.bit_count() + e.bit_length() - 1, 0)


def _cumprod_mod(a, q):
    """Prefix products of a mod q along the last axis, shifts 1, 2, 4, ..."""
    out, k = a.copy(), 1
    while k < out.shape[-1]:
        out[..., k:] = out[..., k:] * out[..., :-k] % q
        k *= 2
    return out


def _inverses(a, q):
    """1/a mod q for a (primes, n), every entry nonzero mod q: Montgomery's
    trick, prefix products, one inverse per prime, then suffix products."""
    pre = _cumprod_mod(a, q)
    last = np.array([pow(x, -1, y) for x, y in zip(
        pre[:, -1].tolist(), q[:, 0].tolist())], dtype=a.dtype)
    out = _cumprod_mod(np.column_stack([a[:, 1:], last])[:, ::-1], q)[:, ::-1]
    out[:, 1:] = out[:, 1:] * pre[:, :-1] % q
    return out


def _trinomial_weights(p: int, m: int, qs) -> np.ndarray:
    """K_j = p!/(j! (j+m)! (p-m-2j)!) mod q for j = 0..(p-m)//2, per prime
    q in qs (primes, 1), from a table of k! and one batch of inverses of
    the denominators; every q exceeds p."""
    k = np.maximum(np.arange(p + 1, dtype=np.uint64), 1)
    f = _cumprod_mod(np.broadcast_to(k, (len(qs), p + 1)), qs)
    j = np.arange((p - m) // 2 + 1)
    d = f[:, j] * f[:, j + m] % qs * f[:, p - m - 2 * j] % qs
    return _inverses(d, qs) * f[:, p:] % qs


def _dot(xs, ys, q, out, tmp):
    """out = sum_k xs[k] ys[k] mod q; out may be xs[0].  Each product is
    below 2**62, so four add up below 2**64 (uint64) before one reduction."""
    np.multiply(xs[0], ys[0], out=out)
    for x, y in zip(xs[1:], ys[1:]):
        np.multiply(x, y, out=tmp)
        np.add(out, tmp, out=out)
    _reduce(out, q, tmp)


def _trinomial(a, b, c, p: int, m: int, K, q):
    """[(c/x + a + b*x)^p]_(x^m) pointwise for |m| <= p, given K for |m|
    (primes first, then j, then axes that broadcast against a): b^|m|
    a^(L mod 2) sum_j K_j u^j v^(J-j), L = p - |m|, J = L // 2, u = bc,
    v = a^2, from the top j down.  The s = (J+1) mod 4 or 4 highest j give
    acc = sum_(k<s) K_(J+1-s+k) u^k v^(s-1-k), then blocks of four j, j0 =
    J-s-3, ..., 4, 0: acc <- acc u^4 + v^(J-j0-3) sum_(k<4) K_(j0+k) u^k
    v^(3-k).  Only the powers that are read are built."""
    b, c = (c, b) if m < 0 else (b, c)
    L = p - abs(m)
    J = L // 2
    s = (J + 1) % 4 or 4
    # b^|m| first, so that its scratch is freed before the sum's arrays
    factors = [_powmod(b, abs(m), q)] * (m != 0) + [a] * (L & 1)
    if J:
        u, v = _mulmod(b, c, q), _mulmod(a, a, q)
    if J > 1:
        u2, v2 = _mulmod(u, u, q), _mulmod(v, v, q)
    if J > 2:                                   # u^k v^(3-k), k = 0..3
        mono = (_mulmod(v2, v, q), _mulmod(v2, u, q), _mulmod(u2, v, q),
                _mulmod(u2, u, q))
    Kj = [K[:, j:j + 1] for j in range(J + 1)]
    acc, w, tmp = np.empty_like(a), np.empty_like(a), np.empty_like(a)
    if s == 1:
        acc[...] = Kj[J]
    else:
        _dot(mono if s == 4 else (v, u) if s == 2 else (
            v2, _mulmod(u, v, q), u2), Kj[J + 1 - s:], q, acc, tmp)
    if J > 3:                                   # blocks below the top j
        u4 = _mulmod(u2, u2, q)
        v4 = _mulmod(v2, v2, q) if J > 6 else None
        pw = (v, v2, mono[0], v4)[s - 1].copy()     # v^(J-j0-3)
    for j0 in range(J - s - 3, -1, -4):
        _dot(mono, Kj[j0:j0 + 4], q, w, tmp)
        _dot((acc, pw), (u4, w), q, acc, tmp)
        if j0:
            _dot((pw,), (v4,), q, pw, tmp)
    for x in factors:
        _dot((acc,), (x,), q, acc, tmp)
    return acc


def _trinomial_work(p: int, m: int) -> tuple[int, int]:
    """(products, reductions) per point of _trinomial(..., p, m, ...): one
    of each per _mulmod, n products and one reduction per _dot of n terms."""
    L = p - abs(m)
    J = L // 2
    s = (J + 1) % 4 or 4
    blocks = (J + 1 - s) // 4
    # _mulmods: u, v; u^2, v^2; the block monomials; u^4; v^4; uv; pw v^4
    # per block but the first; b^|m| and the factors b^|m| and a
    ones = (2 * (J > 0) + 2 * (J > 1) + 4 * (J > 2) + (J > 3) + (J > 6)
            + (s == 3) + max(blocks - 1, 0) + (L & 1)
            + (m != 0) * (_powmod_work(abs(m)) + 1))
    # _dots: the top j's sum, per block its sum and acc u^4 + pw w
    return ones + s * (s > 1) + 6 * blocks, ones + (s > 1) + 2 * blocks


def _omega_powers(M: int, q):
    """omega^k mod q for k < M, omega = root_of_unity(M, q), per prime of q
    (primes, 1), by doubling: omega^(k..2k-1) = omega^(0..k-1) omega^k."""
    step = np.array([[root_of_unity(M, x)] for x in q[:, 0].tolist()], q.dtype)
    out, k = np.ones((len(q), M), dtype=q.dtype), 1
    while k < M:
        out[:, k:2 * k] = out[:, :min(k, M - k)] * step % q
        step, k = step * step % q, 2 * k
    return out


def representatives(tp: TorusPlan) -> int:
    """The number of orbits of tp.H on the grid: the points summed."""
    H, M = tp.maps, tp.M
    return sum(len(symmetry.orbits(H, M, row)[3]) for row in
               symmetry.least_rows(H, M, range(tp.rows), _BATCH))


def predicted_work(tp: TorusPlan, primes, series: bool) -> int:
    """The modular reductions (elements that _reduce sees) of a run of
    coefficient_residues, or of series_residues if series, on all rows: per
    prime the term table (terms times M) and the series' scale, and per
    representative (ceil(M^g / |H|), exact without H) one per class and
    four exponents of the last variable that occur, then what
    _trinomial_work or _powmod_work counts and one for a twist off the
    centre, or in the series V_1 = w A, two per later power (one without an
    inner variable) and D's one, or two where x takes both signs (shift 1)."""
    nf, p, inner = tp.nf, tp.p, tp.inner
    n_exps = len({e[tp.grid[-1]] for _, e in nf.terms}) if tp.grid else 1
    reps = -(-tp.M ** len(tp.grid) // max(len(tp.H), 1))
    per_point = (1 if inner is None else 3) * ((n_exps - 1) // 4 + 1)
    if series:
        per_point += p if inner is None else 2 * p + (nf.shift[inner] == 1)
    else:
        per_point += any((p * nf.shift[k] - tp.target[k]) % tp.M
                         for k in tp.grid) + (
            _powmod_work(p) if inner is None else
            _trinomial_work(p, tp.target[inner] - p)[1])
    return len(primes) * (len(nf.terms) * tp.M + reps * per_point
                          + series * _powmod_work(len(tp.grid)))


def _class_values(tp: TorusPlan, primes, rows, batch: int = _BATCH):
    """The class values of h at the orbit representatives (symmetry.orbits)
    of `rows`, in batches of batch * M points, _ROWS * M without maps.

    Yields (vals, w, weight): vals (classes, primes, K) holds the sum of
    each class of terms (by exponent of the inner variable in f; one class
    without one) of h at the K points, w (primes, K) omega^(-i.s) there,
    i = target - p * shift (None if i is 0 on the grid), and weight (K,)
    the orbit sizes (at most |H|; below 2**31 in all at batch _BATCH).
    Only vals and the current chunk's orbits and tables outlive a batch.
    """
    nf, M = tp.nf, tp.M
    nq = len(primes)
    qs = np.array(primes, dtype=np.uint64)[:, None]
    rows = range(tp.rows) if rows is None else rows
    # each term's class (its exponent in f's inner variable), the index of
    # its exponent among the last grid variable's, and h's exponents in the
    # outer ones; a column of zeros stands for an absent inner or last one
    terms = nf.terms
    X = np.array([e + (0,) for _, e in terms], dtype=np.int64)
    outer, last = tp.grid[:-1], tp.grid[-1:]
    classes = X[:, -1 if tp.inner is None else tp.inner]
    col = X[:, last[0] if last else -1].tolist()
    exps = sorted(set(col))         # a dict, not np.unique: 15 us a call
    lasts = list(map({e: k for k, e in enumerate(exps)}.get, col))
    E = X[:, list(outer)] - np.array([nf.shift[k] for k in outer], np.int64)
    shift_last = nf.shift[last[0]] if last else 0
    twist = np.array([(tp.p * nf.shift[k] - tp.target[k]) % M
                      for k in tp.grid], np.int64)
    n_classes, n_exps = 3 if tp.inner is not None else 1, len(exps)

    omega = _omega_powers(M, qs)
    # each term's coefficient times those powers, and which (class, last
    # exponent) group of P it adds to, in float64 (BLAS) while it is exact
    coeffs = np.array([[c % q for c, _ in terms] for q in primes],
                      dtype=np.uint64)
    term_tab = _mulmod(omega[:, None, :], coeffs[:, :, None], qs[:, :, None])
    group = np.zeros((n_classes * n_exps, len(terms)),
                     dtype=float if len(terms) < 1 << 22 else np.uint64)
    group[classes * n_exps + lasts, np.arange(len(terms))] = 1

    # chunks of _BATCH kept rows, or of _ROWS rows where no map acts and
    # the orbit pass only lists points; batches of at most T points
    H, size = tp.maps, _BATCH if tp.H else _ROWS
    T = min(max(batch, size), len(rows)) * M
    vals = np.empty((n_classes, nq, T), dtype=np.uint64)

    def tables(O):      # the coefficients P_e of each class, per row of O
        ph = E @ O % M
        gathered = term_tab[:, np.arange(len(terms))[:, None], ph]
        P = (group @ gathered.transpose(1, 0, 2).reshape(len(terms), -1))
        return P.astype(np.uint64).reshape(n_classes, n_exps, nq, -1) % qs

    def values(chunks):     # at the points (r, l) of the rows of O, joined
        O, P, r, l, weight = (x[0] if len(x) == 1 else np.concatenate(
            x, -1) for x in zip(*chunks))
        n = len(r)
        # the chunks' P summed at the points with omega^((e - shift) l),
        # four products per reduction; t and the powers o are scratch
        acc = vals[..., :n]
        scratch = np.empty((n_classes + 1, nq, n), dtype=np.uint64)
        t, o = scratch[:-1], scratch[-1]
        with _unbuffered(acc):
            for k, e in enumerate(exps):
                x = acc if k == 0 else t
                np.take(P[:, k], r, axis=-1, out=x, mode="clip")
                if e != shift_last:
                    np.take(omega, (e - shift_last) % M * l % M, axis=1,
                            out=o, mode="clip")
                    np.multiply(x, o, out=x)
                if k:
                    np.add(acc, t, out=acc)
                if k % 4 == 3 or k == n_exps - 1:
                    _reduce(acc, qs, t)
        w = omega[:, ((twist[:-1] @ O)[r] + twist[-1] * l) % M] \
            if twist.any() else None
        return acc, w, weight.astype(np.uint64)

    parts, filled = [], 0            # the chunks' representatives, in order
    for row in symmetry.least_rows(H, M, rows, size):
        O, r, l, weight = symmetry.orbits(H, M, row)
        P = tables(O)                   # once, if two batches share O
        while len(r):
            n = min(len(r), T - filled)
            parts.append((O, P, r[:n] + sum(b[0].shape[1] for b in parts),
                          l[:n], weight[:n]))
            r, l, weight, filled = r[n:], l[n:], weight[n:], filled + n
            if filled == T:
                yield values(parts)
                parts, filled = [], 0
    if parts:
        yield values(parts)


def coefficient_residues(tp: TorusPlan, primes, rows: range | None = None
                         ) -> tuple[int, ...]:
    """[f^p]_target mod each prime for the plan's f, target and p, summed
    over the grid rows in `rows`.

    Targets outside the support of f^p give 0.  Every prime must be 1
    modulo tp.M and exceed p.  The value omega^(-i.s) [x^t_x]
    h(x, omega^s)^p, with i = target - p * shift, is the same on every
    orbit of tp.H, so each orbit adds its size times the value at its
    representative.  Partial results over a disjoint cover of
    range(tp.rows) add up, modulo each prime, to the full coefficient.
    """
    target, p = tp.target, tp.p
    if any(not 0 <= t <= p * d for t, d in zip(target, tp.nf.degrees)):
        return (0,) * len(primes)
    qs = np.array(primes, dtype=np.uint64)[:, None]
    m = target[tp.inner] - p if tp.inner is not None else 0
    K = _trinomial_weights(p, abs(m), qs)
    total = np.zeros(len(primes), dtype=np.uint64)
    for vals, w, weight in _class_values(tp, primes, rows):
        with _unbuffered(vals):
            value = (_powmod(vals[0], p, qs) if tp.inner is None else
                     _trinomial(vals[1], vals[2], vals[0], p, m, K, qs))
            if w is not None:
                value = _mulmod(value, w, qs)
        total = (total + value @ weight) % qs[:, 0]
    return tuple(int(x) * pow(tp.M, -len(tp.grid), q) % q
                 for x, q in zip(total.tolist(), primes))


def _trinomial_powers(a, d, w, g, q):
    """w V_p = w p!/(2p-1)!! [(c/x + a + b*x)^p]_(x^0) pointwise for
    p = 0..P, given d = a^2 - 4bc, the weights w (w < 2**31, broadcast
    against a) and g_p = -(p-1)^2 / ((2p-1)(2p-3)) mod q in g[p] (shaped
    like q; g_0 and g_1 unused): the recurrence is linear, so it starts
    from V_0 = w, V_1 = w a.  With d None, w a^p.  Arrays are reused."""
    v0, v1 = np.broadcast_to(w, a.shape).copy(), _mulmod(a, w, q)
    x, y = np.empty_like(a), np.empty_like(a)
    yield from (v0, v1)[:len(g)]
    for g_p in g[2:]:
        np.multiply(a, v1, out=x)
        if d is not None:
            np.multiply(d, v0, out=y)
            _reduce(y, q, v0)               # v0 is spent: a temporary
            y *= g_p
            x += y
        _reduce(x, q, y)
        v0, v1, x = v1, x, v0
        yield v1


def _series_tables(P: int, M: int, dims: int, inner: bool, qs):
    """g as _trinomial_powers takes it and the scale (primes, P + 1) of
    a_p, (2p-1)!!/(p! M^dims), or M^-dims (primes, 1) without inner."""
    k = np.arange(1, P + 1, dtype=np.uint64)
    # the inverses of M, of k = 1..P and of (2k-1)(2k-3) for k = 2..P
    a = np.concatenate([[np.uint64(M)], k, (2 * k[1:] - 1) * (2 * k[1:] - 3)])
    inv = _inverses(np.tile(a, (len(qs), 1)) % qs, qs)
    g = np.zeros((P + 1, len(qs), 1), dtype=np.uint64)
    g[2:, :, 0] = ((qs - (k[1:] - 1) ** 2 % qs) * inv[:, P + 1:] % qs).T
    scale = _powmod(inv[:, :1], dims, qs)
    if not inner:
        return g, scale
    return g, _cumprod_mod(np.column_stack(
        [scale, (2 * k - 1) * inv[:, 1:P + 1] % qs]), qs)


def series_residues(tp: TorusPlan, primes, rows: range | None = None
                    ) -> list[tuple[int, ...]]:
    """a_p = [h^p]_0 mod each prime for p = 0..P, summed over `rows`.

    tp is plan(nf, P * nf.shift, P, ...), the plan of a_P; every prime must
    be 1 modulo tp.M and exceed 2P, and P < MAX_SERIES.  Each orbit of tp.H
    adds its size times the value at its representative, as in
    coefficient_residues, for every p.  Returns P + 1 tuples of residues;
    partial results over a disjoint cover of range(tp.rows) add up, modulo
    each prime, to the full terms.
    """
    P = tp.p
    qs = np.array(primes, dtype=np.uint64)[:, None]
    S = np.zeros((P + 1, len(primes)), dtype=np.uint64)
    g, scale = _series_tables(P, tp.M, len(tp.grid), tp.inner is not None, qs)
    for vals, _, weight in _class_values(tp, primes, rows, 2 * _BATCH):
        with _unbuffered(vals):
            a, d = vals[0], None            # h itself without tp.inner
            if tp.inner is not None:
                # A is the class of x^0; unless x has exponents of both signs
                # (shift 1: x^-1, x^0, x^1) only A^p reaches x^0, so BC = 0;
                # D = A^2 + 4 (q - BC) < 2**63 goes to the spare class rows
                s = tp.nf.shift[tp.inner]
                a, (d, t) = vals[s], (vals[k] for k in range(3) if k != s)
                if s == 1:
                    _reduce(np.multiply(d, t, out=t), qs, d)
                    np.left_shift(np.subtract(qs, t, out=t), 2, out=t)
                np.multiply(a, a, out=d)
                _reduce(np.add(d, t, out=d) if s == 1 else d, qs, t)
            for p, u in enumerate(_trinomial_powers(a, d, weight, g, qs)):
                S[p] += u.sum(axis=-1)
        S %= qs[:, 0]
    return list(map(tuple, (S * scale.T % qs[:, 0]).tolist()))
