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

with B and C swapped when m < 0.  The sum runs in homogeneous Horner form,
as in engine.split2.  The remaining g variables run over the grid, walked in
chunks of _ROWS rows of M points (a row is the last grid variable), and all
primes of one power share each numpy call, so the live elements per prime
stay O(M) = O(p).  Without such a variable, or with use_split2 off, every
variable is on the grid and f(omega^s)^p is powered pointwise.

Residues are int64 with every modulus below 2**31: a product of two stays
below 2**62 and a sum of two products below 2**63.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import AllocationMeter
from .laurent import NormalizedPolynomial
from .rns import root_of_unity

# grid rows per chunk; one row holds M points for every prime
_ROWS = 32
# arrays of chunk size (points x primes) alive at once in one chunk
_LIVE = 9


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
    largest M on the grid is summed exactly; ties go to the last.
    """
    need = [max(p * d - t, t) for d, t in zip(nf.degrees, target)]
    inner = None
    if use_split2:
        for k, d in enumerate(nf.degrees):
            if d <= 2 and (inner is None or need[k] >= need[inner]):
                inner = k
    grid = tuple(k for k in range(nf.n) if k != inner)
    return TorusPlan(inner, grid, 1 + max((need[k] for k in grid), default=0))


def _terms(nf: NormalizedPolynomial):
    """(coefficient, cleared exponent vector) of every nonzero entry."""
    shape = nf.tensor.shape
    return [(c, np.unravel_index(flat, shape) if shape else ())
            for flat, c in enumerate(nf.tensor.data) if c]


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
    K = np.empty((len(primes), J + 1), dtype=np.int64)
    for r, q in enumerate(primes):
        fact = [1] * (p + 1)
        for k in range(1, p + 1):
            fact[k] = fact[k - 1] * k % q
        inv = [0] * (p + 1)
        inv[p] = pow(fact[p], -1, q)
        for k in range(p, 0, -1):
            inv[k - 1] = inv[k] * k % q
        for j in range(J + 1):
            K[r, j] = fact[p] * inv[j] % q * inv[j + m] % q * inv[p - m - 2 * j] % q
    return K


def _trinomial(a, b, c, p: int, m: int, K, q):
    """[(c/x + a + b*x)^p]_(x^m) pointwise, given K for |m|."""
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
    M = tp.M
    target = tuple(int(t) for t in target)
    if any(not 0 <= t <= p * d for t, d in zip(target, nf.degrees)):
        return (0,) * len(primes)
    if rows is None:
        rows = range(tp.rows)
    meter = meter if meter is not None else AllocationMeter()
    nq = len(primes)
    qs = np.array(primes, dtype=np.int64)[:, None]

    # each term's class (its exponent in the inner variable), its exponent
    # in the last grid variable, and its exponents in the outer ones
    terms = _terms(nf)
    g = len(tp.grid)
    outer, last = tp.grid[:-1], tp.grid[-1:]
    classes = [int(e[tp.inner]) if tp.inner is not None else 0
               for _, e in terms]
    lasts = [int(e[last[0]]) if last else 0 for _, e in terms]
    E = np.array([[e[k] for k in outer] for _, e in terms],
                 dtype=np.int64).reshape(len(terms), len(outer))
    weight_outer = np.array([-target[k] % M for k in outer], dtype=np.int64)
    n_classes = 3 if tp.inner is not None else 1
    d_last = max(lasts)

    # omega^k for k < M
    omega = np.empty((nq, M), dtype=np.int64)
    for r, q in enumerate(primes):
        w = root_of_unity(M, q)
        x = 1
        for k in range(M):
            omega[r, k] = x
            x = x * w % q
    # each term's coefficient times those powers, and which (class, last
    # exponent) group of P it adds to
    coeffs = np.array([[c % q for c, _ in terms] for q in primes],
                      dtype=np.int64)
    term_tab = _mulmod(omega[:, None, :], coeffs[:, :, None], qs[:, :, None])
    group = np.zeros((n_classes * (d_last + 1), len(terms)), dtype=np.int64)
    for t, (cls, e) in enumerate(zip(classes, lasts)):
        group[cls * (d_last + 1) + e, t] = 1
    L = M if last else 1                               # points per row
    z = omega[:, :L]                                   # last variable
    weight_last = omega[:, [-target[last[0]] * s % M for s in range(L)]
                        if last else [0]]
    tables = nq * M * (1 + len(terms)) + 2 * nq * L
    if tp.inner is not None:
        m = target[tp.inner] - p
        K = _trinomial_weights(p, abs(m), primes)
        tables += K.size
    meter.take(tables)

    q3 = qs[:, :, None]
    strides = [M ** (len(outer) - 1 - k) for k in range(len(outer))]
    total = np.zeros(nq, dtype=np.int64)
    for r0 in range(rows.start, rows.stop, _ROWS):
        r1 = min(r0 + _ROWS, rows.stop)
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
            np.multiply(acc, z[:, None, :], out=acc)
            np.add(acc, P[:, e, :, :, None], out=acc)
            np.remainder(acc, q3, out=acc)
        vals = acc.reshape(n_classes, nq, R * L)
        if tp.inner is None:
            value = _powmod(vals[0], p, qs)
        else:
            value = _trinomial(vals[1], vals[2], vals[0], p, m, K, qs)
        # weight omega^(-t.s), split into its last-variable and outer parts
        value = _mulmod(value.reshape(nq, R, L), weight_last[:, None, :], q3)
        row_sums = value.sum(axis=2) % qs
        row_sums = _mulmod(row_sums, omega[:, weight_outer @ O % M], qs)
        total = (total + row_sums.sum(axis=1)) % qs[:, 0]
        meter.give(held)
    meter.give(tables)
    return tuple(int(x) * pow(M, -g, q) % q
                 for x, q in zip(total.tolist(), primes))
