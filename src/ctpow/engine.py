"""Coefficient extraction modulo one prime by interpolation at integer nodes.

This is the reference engine that follows the paper; the pipeline in
recurrence.py runs the torus engine (torus.py) instead.

For f with degree d_k in variable k, f^p has degree N_k = p*d_k in it, so
interpolating f^p at the nodes 0..N_k of every variable gives

    [f^p]_i = sum_s (prod_k row_k[s_k]) * f(s)^p   (mod q),

the sum over the nodes s in prod_k [0, N_k], with row_k row i_k of the
inverse Vandermonde matrix at the nodes 0..N_k (interp.py).  When the first
variable X1 has degree exactly 2, its target exponent equals p and another
variable remains, split2 sums X1 exactly instead of over its nodes: with
f = A0 + B*X1 + C*X1^2 (A0, B, C polynomials in the other variables),
f(s)^p becomes

    [f^p]_(X1^p) = sum_j K_j (A0*C)^j * B^(p-2j),   K_j = p!/(j! j! (p-2j)!),

the trinomial sum of torus.py at m = 0 (torus._trinomial).

The nodes are walked in chunks of torus._ROWS rows; a row runs along the
first summed variable.  At each row, the terms' coefficients times the
powers s_k^e of the other summed variables (from per-variable tables) add
up to the coefficients in the row variable of each class of terms (by
exponent of X1 with split2, one class without), and Horner evaluates them
along the row.  No intermediate polynomial is stored, so the live
auxiliary elements stay O(chunk * max_k N_k), linear in p.

Residues are kept in numpy uint64 arrays, as in the torus kernels.  All
moduli are below 2**31, so a product of two residues stays below 2**62 and
a sum of two such products below 2**63; nothing here can overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import interp, torus
from .laurent import NormalizedPolynomial, _integer

# arrays of R * L elements alive at once in torus._trinomial
_LIVE = 14


class EngineError(ValueError):
    pass


class ModulusTooSmall(EngineError):
    pass


@dataclass
class AllocationMeter:
    """The current and peak number of live auxiliary field elements (input
    tensor excluded; the rows, from interp's cache, count as held)."""
    current: int = 0
    peak: int = 0

    def take(self, n: int):
        self.current += n
        if self.current > self.peak:
            self.peak = self.current

    def give(self, n: int):
        self.current -= n


@dataclass
class Counters:
    """What coefficient_mod_prime's walks did: rows walked with split2 and
    without, points powered, and elementwise multiplications, per point as
    torus._trinomial_work or torus._powmod_work counts them; the meter."""
    base_invocations: int = 0
    pow_mod_calls: int = 0
    split2_calls: int = 0
    mults: int = 0
    meter: AllocationMeter = field(default_factory=AllocationMeter)


def _walk(A: np.ndarray, i, p: int, q: int, split: bool,
          c: Counters) -> int:
    """sum_s (prod_k row_k[s_k]) G(s) mod q over the nodes s of the summed
    variables, all but X1 with split and all without, where G is
    f(s)^p, or the trinomial sum over X1 with split; row_k is row i_k."""
    N = tuple(p * (n - 1) for n in A.shape)
    qs = np.array([[q]], dtype=np.uint64)
    first = int(split)                       # the variable along a row
    outer = range(first + 1, A.ndim)         # the variables across rows
    shape = tuple(N[k] + 1 for k in outer)
    n_rows, L = math.prod(shape), N[first] + 1
    R = min(torus._ROWS, n_rows)
    # each term's coefficient, and which (class, row exponent) it adds to
    E = np.argwhere(A)
    coeffs = A[tuple(E.T)][:, None]
    classes, d = (A.shape[0] if split else 1), A.shape[first] - 1
    group = np.zeros((classes * (d + 1), len(E)), dtype=np.uint64)
    group[E[:, 0] * (d + 1) * split + E[:, first], np.arange(len(E))] = 1
    # s^e mod q for the nodes s and exponents e of each outer variable
    powers = {}
    for k in outer:
        table = np.ones((N[k] + 1, A.shape[k]), dtype=np.uint64)
        table[:, 1:] = np.arange(N[k] + 1)[:, None]
        powers[k] = torus._cumprod_mod(table, q)
    rows = {k: np.array(interp.inverse_vandermonde_row(N[k], i[k], q).entries,
                        dtype=np.uint64) for k in range(first, A.ndim)}
    K = torus._trinomial_weights(p, 0, qs) if split else None
    u = np.arange(L, dtype=np.uint64)
    held = (sum(t.size for t in (*powers.values(), *rows.values()))
            + (K.size if split else 0)
            + (len(E) + classes * (d + 1) + 2) * R
            + (2 * classes + _LIVE) * R * L)
    c.meter.take(held)
    acc = 0
    for lo in range(0, n_rows, R):
        # the outer nodes of each row (the trailing axis of one lets a walk
        # without outer variables unravel too)
        s = np.unravel_index(np.arange(lo, min(lo + R, n_rows)),
                             shape + (1,))[:-1]
        t, w = coeffs, 1
        for k, sk in zip(outer, s):
            t = t * powers[k][sk, E[:, k][:, None]] % q
            w = w * rows[k][sk] % q
        P = (group @ t % q).reshape(classes, d + 1, -1, 1)
        v = np.repeat(P[:, d], L, axis=2)
        tmp = np.empty_like(v)
        for e in range(d - 1, -1, -1):
            v *= u
            v += P[:, e]
            torus._reduce(v, qs, tmp)
        if split:
            G = torus._trinomial(v[1], v[2], v[0], p, 0, K, qs)
        else:
            G = torus._powmod(v[0], p, qs)
        part = torus._mulmod(G, rows[first], qs).sum(axis=1) % q
        acc = (acc + int((part * w % q).sum())) % q
    c.meter.give(held)

    points = n_rows * L
    if split:
        c.split2_calls += n_rows
    else:
        c.base_invocations += n_rows
        c.pow_mod_calls += points
    per_point = (torus._trinomial_work(p, 0)[0] if split
                 else torus._powmod_work(p))
    # term and row-weight products per row; Horner, G and the row per point
    c.mults += (n_rows * (len(E) + 1) * len(outer) + n_rows
                + points * (classes * d + per_point + 1))
    return acc


def coefficient_mod_prime(nf: NormalizedPolynomial, i, p: int, q: int,
                          use_split2: bool = True,
                          counters: Counters | None = None) -> int:
    """[f^p]_i mod q for the cleared polynomial f of nf.

    Indices beyond the degree bounds give 0.  p = 0 and p = 1 are answered
    directly.  With use_split2, X1 of degree exactly 2 at i_1 = p is summed
    by the trinomial formula.  The walk adds its work to counters, if given.
    """
    p = _integer(p, "power")
    if p < 0:
        raise EngineError("negative power")
    i = tuple(_integer(x, "index entry") for x in i)
    if len(i) != nf.n:
        raise EngineError("index dimension mismatch")
    top = p * max(nf.degrees, default=0)
    if q <= max(top, 1):
        raise ModulusTooSmall(f"modulus {q} must exceed the node count {top}")
    if not all(0 <= ik <= p * d for ik, d in zip(i, nf.degrees)):
        return 0
    if p == 0:
        return 1 % q
    A = np.zeros(tuple(d + 1 for d in nf.degrees), dtype=np.uint64)
    for c, e in nf.terms:
        A[e] = c % q
    if p == 1:
        return int(A[i])
    if nf.n == 0:
        return pow(int(A[()]), p, q)
    split = use_split2 and nf.n >= 2 and A.shape[0] == 3 and i[0] == p
    return _walk(A, i, p, q, split, counters or Counters())
