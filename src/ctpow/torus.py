"""Coefficient extraction by exact sums over roots of unity (the torus engine).

The constant terms a_p = [h^p]_0 are the coefficients of a period integral
over the torus |X_k| = 1.  Over a prime field that integral becomes an exact
finite sum: for f the cleared polynomial (degree d_k in variable k), a prime
q = 1 (mod M) and omega of order M,

    [f^p]_t = M^-g * sum_{s in Z_M^g} omega^(-t.s) * f(omega^s)^p

whenever M > max(p*d_k - t_k, t_k) for every variable k on the grid: no
other exponent of f^p in [0, p*d_k] is then congruent to t_k modulo M.

One variable x of degree at most 2 is summed exactly instead of over the
grid.  Writing f = C + A*x + B*x^2 = x * (C/x + A + B*x), with A, B, C
polynomials in the other variables, and m = t_x - p >= 0,

    [f^p]_(x^t_x) = B^m * sum_j K_j (B*C)^j A^(p-m-2j),
    K_j = p! / (j! (j+m)! (p-m-2j)!),

with B and C swapped when m < 0, in homogeneous Horner form as in
engine.split2.  Without such a variable, or with use_split2 off, every
variable is on the grid and f(omega^s)^p is powered pointwise.

A series a_0..a_P takes one pass over the grid planned for a_P, which is
valid for every p <= P, with the values of h itself (weight 1).  With
h = C/x + A + B*x in the inner variable x, U_p = p! [x^0] h^p obeys
U_p = (2p-1) A U_(p-1) - (p-1)^2 D U_(p-2), D = A^2 - 4BC.  The pass runs
it on V_p = U_p / (2p-1)!!, which needs two reductions per point and power:

    V_0 = 1, V_1 = A, V_p = A V_(p-1) + g_p (D V_(p-2) mod q) mod q,
    g_p = -(p-1)^2 / ((2p-1)(2p-3)) mod q,

and a_p = M^-g (2p-1)!!/p! sum_s V_p, so every prime must exceed 2P.  If x
has exponents of one sign only, A^p alone reaches x^0: BC = 0, D = A^2.
Without the inner variable the pass accumulates the powers h(omega^s)^p.

Both paths share the evaluation of the class values A, B, C (or h) in
chunks of _ROWS grid rows of M points (a row is the last grid variable),
with all primes in each numpy call, so the live elements per prime stay
O(M) = O(p).  Residues are int64 below 2**31: a product of two stays below
2**62 and a sum of two products below 2**63, at any P.  P < MAX_SERIES =
2**16 is a size guard against work too large to finish: every grid
variable has more than P points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import AllocationMeter
from .laurent import NormalizedPolynomial
from .rns import root_of_unity

# grid rows per chunk; one row holds M points for every prime
_ROWS = 32
# arrays of chunk size (points x primes) alive at once in one chunk
_LIVE = 9
# series lengths P must stay below this size guard
MAX_SERIES = 1 << 16


@dataclass(frozen=True)
class TorusPlan:
    """Which variable is summed exactly, which run over the grid, and M.

    The grid is walked in rows along its last variable.
    """
    inner: int | None
    grid: tuple[int, ...]
    M: int

    @property
    def rows(self) -> int:
        return self.M ** max(len(self.grid) - 1, 0)


def plan(nf: NormalizedPolynomial, target, p: int,
         use_split2: bool = True) -> TorusPlan:
    """Pick the exactly summed variable and the smallest valid M.

    Among the variables of degree at most 2 the one that would need the
    largest M on the grid is summed exactly; ties go to the last.  Variables
    absent from f with target 0 are left off the grid.
    """
    need = [max(p * d - t, t) for d, t in zip(nf.degrees, target)]
    inner = max((k for k, d in enumerate(nf.degrees) if use_split2 and d <= 2),
                key=lambda k: (need[k], k), default=None)
    grid = tuple(k for k, (d, t) in enumerate(zip(nf.degrees, target))
                 if k != inner and (d, t) != (0, 0))
    return TorusPlan(inner, grid, 1 + max((need[k] for k in grid), default=0))


def _mulmod(a, b, q):
    out = a * b
    np.remainder(out, q, out=out)
    return out


def _powmod(v, e: int, q):
    """Elementwise v**e mod q by binary powering."""
    result = np.ones_like(v)
    base = v
    while e:
        if e & 1:
            result = _mulmod(result, base, q)
        e >>= 1
        if e:
            base = _mulmod(base, base, q)
    return result


def _trinomial_weights(p: int, m: int, primes) -> np.ndarray:
    """K_j = p!/(j! (j+m)! (p-m-2j)!) mod q for j = 0..(p-m)//2, per prime."""
    J = (p - m) // 2
    K = [math.comb(p, j) * math.comb(p - j, j + m) for j in range(J + 1)]
    return np.array([[k % q for k in K] for q in primes], dtype=np.int64)


def _trinomial(a, b, c, p: int, m: int, K, q):
    """[(c/x + a + b*x)^p]_(x^m) pointwise, given K for |m| (primes first,
    then j, then axes that broadcast against a)."""
    if m < 0:
        b, c = c, b
    L = p - abs(m)
    J = L // 2
    bc = _mulmod(b, c, q)
    a2 = _mulmod(a, a, q)
    acc = np.broadcast_to(K[:, J:J + 1], a.shape).copy()
    hp = np.ones_like(a)
    tmp = np.empty_like(a)
    for j in range(J - 1, -1, -1):
        np.multiply(hp, a2, out=hp)
        np.remainder(hp, q, out=hp)
        np.multiply(acc, bc, out=acc)
        np.multiply(hp, K[:, j:j + 1], out=tmp)
        np.add(acc, tmp, out=acc)
        np.remainder(acc, q, out=acc)
    if L & 1:
        acc = _mulmod(acc, a, q)
    if m:
        acc = _mulmod(acc, _powmod(b, abs(m), q), q)
    return acc


def _class_values(nf: NormalizedPolynomial, tp: TorusPlan, primes, rows,
                  twist, meter: AllocationMeter | None, held_by_caller: int):
    """The class values of f on the grid rows in `rows`, chunk by chunk.

    Yields (vals, w_row, w_outer) for each chunk of R rows of L points: vals,
    of shape (classes, primes, R, L), holds the sum of each class of terms
    (by exponent of the inner variable; one class without one) at every
    point, and w_row (primes, 1, L) times w_outer (primes, R, 1) is
    omega^(-twist.s) there.  The meter holds the tables, held_by_caller
    elements, and _LIVE chunk-sized arrays per chunk, enough for the caller.
    """
    meter = meter if meter is not None else AllocationMeter()
    M = tp.M
    nq = len(primes)
    qs = np.array(primes, dtype=np.int64)[:, None]
    rows = range(tp.rows) if rows is None else rows

    # each term's class (its exponent in the inner variable), its exponent
    # in the last grid variable, and its exponents in the outer ones
    shape = nf.tensor.shape
    terms = [(c, np.unravel_index(flat, shape) if shape else ())
             for flat, c in enumerate(nf.tensor.data) if c]
    outer, last = tp.grid[:-1], tp.grid[-1:]
    classes = [int(e[tp.inner]) if tp.inner is not None else 0
               for _, e in terms]
    lasts = [int(e[last[0]]) if last else 0 for _, e in terms]
    E = np.array([[e[k] for k in outer] for _, e in terms],
                 dtype=np.int64).reshape(len(terms), len(outer))
    twist_outer = np.array([-twist[k] % M for k in outer], dtype=np.int64)
    n_classes = 3 if tp.inner is not None else 1
    d_last = max(lasts)

    # omega^k for k < M
    omega = np.ones((nq, M), dtype=np.int64)
    w = np.array([root_of_unity(M, q) for q in primes], dtype=np.int64)
    for k in range(1, M):
        omega[:, k] = omega[:, k - 1] * w % qs[:, 0]
    # each term's coefficient times those powers, and which (class, last
    # exponent) group of P it adds to
    coeffs = np.array([[c % q for c, _ in terms] for q in primes],
                      dtype=np.int64)
    term_tab = _mulmod(omega[:, None, :], coeffs[:, :, None], qs[:, :, None])
    group = np.zeros((n_classes * (d_last + 1), len(terms)), dtype=np.int64)
    for t, (cls, e) in enumerate(zip(classes, lasts)):
        group[cls * (d_last + 1) + e, t] = 1
    L = M if last else 1                               # points per row
    w_row = omega[:, None, [-twist[last[0]] * s % M for s in range(L)]
                  if last else [0]]
    tables = nq * M * (1 + len(terms)) + 2 * nq * L + held_by_caller
    meter.take(tables)

    q3 = qs[:, :, None]
    strides = [M ** (len(outer) - 1 - k) for k in range(len(outer))]
    # at most 2**31 points per chunk, so a sum over them stays below 2**62
    step = max(1, min(_ROWS, (1 << 31) // L))
    for r0 in range(rows.start, rows.stop, step):
        r1 = min(r0 + step, rows.stop)
        R = r1 - r0
        held = _LIVE * nq * R * L + 2 * len(terms) * nq * R
        meter.take(held)
        row = np.arange(r0, r1, dtype=np.int64)
        O = np.array([row // st % M for st in strides],
                     dtype=np.int64).reshape(len(outer), R)
        # the coefficients of each class in the last variable, per row ...
        ph = E @ O % M
        gathered = term_tab[:, np.arange(len(terms))[:, None], ph]
        P = (group @ gathered.transpose(1, 0, 2).reshape(len(terms), -1))
        P = P.reshape(n_classes, d_last + 1, nq, R) % qs
        # ... evaluated along the rows by Horner in omega^s
        acc = np.repeat(P[:, d_last, :, :, None], L, axis=3)
        for e in range(d_last - 1, -1, -1):
            np.multiply(acc, omega[:, None, :L], out=acc)  # last variable
            np.add(acc, P[:, e, :, :, None], out=acc)
            np.remainder(acc, q3, out=acc)
        yield acc, w_row, omega[:, twist_outer @ O % M, None]
        meter.give(held)
    meter.give(tables)


def coefficient_residues(nf: NormalizedPolynomial, target, p: int, primes,
                         torus_plan: TorusPlan, rows: range | None = None,
                         meter: AllocationMeter | None = None) -> tuple[int, ...]:
    """[f^p]_target mod each prime, summed over the grid rows in `rows`.

    Targets outside the support of f^p give 0.  Every prime must be 1
    modulo torus_plan.M.  Partial results over a disjoint cover of
    range(torus_plan.rows) add up, modulo each prime, to the full
    coefficient.  The meter, if given, tracks the live auxiliary
    elements (input excluded).
    """
    tp = torus_plan
    target = tuple(int(t) for t in target)
    if any(not 0 <= t <= p * d for t, d in zip(target, nf.degrees)):
        return (0,) * len(primes)
    qs = np.array(primes, dtype=np.int64)[:, None]
    q3 = qs[:, :, None]
    m = target[tp.inner] - p if tp.inner is not None else 0
    K = _trinomial_weights(p, abs(m), primes)[:, :, None]
    total = np.zeros(len(primes), dtype=np.int64)
    for vals, w_row, w_outer in _class_values(nf, tp, primes, rows, target,
                                              meter, K.size):
        if tp.inner is None:
            value = _powmod(vals[0], p, q3)
        else:
            value = _trinomial(vals[1], vals[2], vals[0], p, m, K, q3)
        # weight omega^(-t.s), split into its last-variable and outer parts
        row_sums = _mulmod(value, w_row, q3).sum(axis=2, keepdims=True) % q3
        row_sums = _mulmod(row_sums, w_outer, q3)
        total = (total + row_sums.sum(axis=(1, 2))) % qs[:, 0]
    return tuple(int(x) * pow(tp.M, -len(tp.grid), q) % q
                 for x, q in zip(total.tolist(), primes))


def _trinomial_powers(a, d, g, q):
    """V_p = p!/(2p-1)!! [(c/x + a + b*x)^p]_(x^0) pointwise for p = 0..P,
    given d = a^2 - 4bc and g_p = -(p-1)^2 / ((2p-1)(2p-3)) mod q in g[p]
    (shaped like q; g_0 and g_1 unused); arrays are reused."""
    v0, v1 = np.ones_like(a), a.copy()
    x, y = np.empty_like(a), np.empty_like(a)
    yield from (v0, v1)[:len(g)]
    for g_p in g[2:]:
        np.multiply(a, v1, out=x)
        np.multiply(d, v0, out=y)
        np.remainder(y, q, out=y)
        y *= g_p
        x += y
        np.remainder(x, q, out=x)
        v0, v1, x = v1, x, v0
        yield v1


def _plain_powers(v, P: int, q):
    """v^p pointwise for p = 0..P; the array is reused."""
    u = np.ones_like(v)
    yield u
    for _ in range(P):
        np.multiply(u, v, out=u)
        np.remainder(u, q, out=u)
        yield u


def series_residues(nf: NormalizedPolynomial, P: int, primes,
                    torus_plan: TorusPlan, rows: range | None = None,
                    meter: AllocationMeter | None = None) -> list[tuple[int, ...]]:
    """a_p = [h^p]_0 mod each prime for p = 0..P, summed over `rows`.

    torus_plan is the plan of a_P, plan(nf, P * nf.shift, P, ...); every
    prime must be 1 modulo its M and exceed 2P, and P < MAX_SERIES.
    Returns P + 1 tuples of residues; partial results over a disjoint cover
    of range(torus_plan.rows) add up, modulo each prime, to the full terms.
    The meter works as in coefficient_residues.
    """
    tp = torus_plan
    qs = np.array(primes, dtype=np.int64)[:, None]
    q3 = qs[:, :, None]
    S = np.zeros((P + 1, len(primes)), dtype=np.int64)
    g = np.zeros((P + 1, len(primes), 1, 1), dtype=np.int64)
    for p in range(2, P + 1):
        g[p, :, 0, 0] = [-(p - 1) ** 2 * pow((2 * p - 1) * (2 * p - 3), -1, q)
                         % q for q in primes]
    for vals, w_row, w_outer in _class_values(nf, tp, primes, rows, nf.shift,
                                              meter, S.size + g.size):
        # omega^(-shift.s) gives the values of h, in place to save memory
        for w in (w_row, w_outer):
            np.remainder(np.multiply(vals, w, out=vals), q3, out=vals)
        if tp.inner is None:
            powers = _plain_powers(vals[0], P, q3)
        else:
            # A is the class of x^0; unless x has exponents of both signs
            # (shift 1: x^-1, x^0, x^1) only A^p reaches x^0, so BC = 0
            s = nf.shift[tp.inner]
            d = _mulmod(vals[s], vals[s], q3)
            if s == 1:
                d = (d - 4 * _mulmod(vals[0], vals[2], q3)) % q3
            powers = _trinomial_powers(vals[s], d, g, q3)
        for p, u in enumerate(powers):
            S[p] += u.sum(axis=(1, 2))
        S %= qs[:, 0]
    # a_p = S_p (2p-1)!! / (p! M^g), without (2p-1)!!/p! when h was powered
    scale = [pow(tp.M, -len(tp.grid), q) for q in primes]
    out = []
    for p, row in enumerate(S.tolist()):
        if p and tp.inner is not None:
            scale = [c * (2 * p - 1) * pow(p, -1, q) % q
                     for c, q in zip(scale, primes)]
        out.append(tuple(x * c % q for x, c, q in zip(row, scale, primes)))
    return out
