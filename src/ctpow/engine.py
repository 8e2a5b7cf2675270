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

Residues are kept in numpy int64 arrays.  All moduli are below 2**31, so a
product of two residues stays below 2**62 and a sum of two such products
below 2**63; nothing here can overflow.

Work is instrumented: Counters holds the rows walked with and without
split2, the points powered and the walk's elementwise multiplications, all
from the walk's shape, and AllocationMeter tracks the peak number of live
auxiliary field elements (input tensor excluded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import interp, torus
from .laurent import NormalizedPolynomial
from .torus import AllocationMeter


class EngineError(ValueError):
    pass


class ModulusTooSmall(EngineError):
    pass


class SplitPrecondition(EngineError):
    pass


@dataclass
class Counters:
    base_invocations: int = 0
    pow_mod_calls: int = 0
    split2_calls: int = 0
    mults: int = 0


@dataclass
class PrimeContext:
    """Per-prime state: cached rows, instrumentation."""
    q: int
    p: int
    target: tuple[int, ...]
    shape: tuple[int, ...]
    use_split2: bool = True
    counters: Counters = field(default_factory=Counters)
    meter: AllocationMeter = field(default_factory=AllocationMeter)

    def __post_init__(self):
        self.level_nodes = tuple(self.p * (s - 1) for s in self.shape)
        top = max(self.level_nodes, default=0)
        if self.q <= max(top, 1):
            raise ModulusTooSmall(
                f"modulus {self.q} must exceed the node count {top}")
        self._rows: dict[tuple[int, int], np.ndarray] = {}

    def row_for(self, N: int, r: int) -> np.ndarray:
        key = (N, r)
        row = self._rows.get(key)
        if row is None:
            exact = interp.inverse_vandermonde_row(N, r, self.q)
            row = np.array(exact.entries, dtype=np.int64)
            self._rows[key] = row
            self.meter.take(N + 1)
        return row


def split2(i1: int, A: np.ndarray, p: int, ctx: PrimeContext) -> int:
    """[f^p]_(p, i2, ...) for f = A0 + B*X1 + C*X1^2, with A0, B and C
    polynomials in the other variables (at least one), in one node walk.

    Requires degree exactly 2 in the split variable and i1 == p; the caller
    walks every variable's nodes otherwise.  i2, ... are taken from the
    context target.
    """
    if A.ndim < 2 or A.shape[0] != 3:
        raise SplitPrecondition("split variable must have degree exactly 2")
    if i1 != p:
        raise SplitPrecondition("split target exponent must equal the power")
    return _walk(A, p, ctx, split=True)


def _trinomial_mults(p: int) -> int:
    """Elementwise multiplications per point of torus._trinomial at m = 0:
    ten for the powers of u and v, four per block of four j and three more
    per later block (two at j = 0), the r lowest j, and a for odd p."""
    J = p // 2
    r = (J + 1) % 4
    n = 10 + 2 * (r > 0) + (r + (r == 3)) * (r > 1) + (p & 1)
    for j0 in range(J - 3, -1, -4):
        n += 4 if j0 == J - 3 else 6 + (j0 > 0)
    return n


def _walk(A: np.ndarray, p: int, ctx: PrimeContext, split: bool) -> int:
    """sum_s (prod_k row_k[s_k]) G(s) mod q over the nodes s of the summed
    variables, all but X1 with split and all without, where G is
    f(s)^p, or the trinomial sum over X1 with split."""
    q, N, target = ctx.q, ctx.level_nodes, ctx.target
    qs = np.array([[q]], dtype=np.int64)
    first = int(split)                       # the variable along a row
    outer = range(first + 1, A.ndim)         # the variables across rows
    shape = tuple(N[k] + 1 for k in outer)
    n_rows, L = math.prod(shape), N[first] + 1
    R = min(torus._ROWS, n_rows)
    # each term's coefficient, and which (class, row exponent) it adds to
    E = np.argwhere(A)
    coeffs = A[tuple(E.T)][:, None]
    classes, d = (A.shape[0] if split else 1), A.shape[first] - 1
    group = np.zeros((classes * (d + 1), len(E)), dtype=np.int64)
    group[E[:, 0] * (d + 1) * split + E[:, first], np.arange(len(E))] = 1
    # s^e mod q for the nodes s and exponents e of each outer variable
    powers = {}
    for k in outer:
        table = np.ones((N[k] + 1, A.shape[k]), dtype=np.int64)
        table[:, 1:] = np.arange(N[k] + 1)[:, None]
        powers[k] = torus._cumprod_mod(table, q)
    rows = {k: ctx.row_for(N[k], target[k]) for k in range(first, A.ndim)}
    K = torus._trinomial_weights(p, 0, qs) if split else None
    u = np.arange(L, dtype=np.int64)
    held = (sum(t.size for t in powers.values()) + (K.size if split else 0)
            + (len(E) + classes * (d + 1) + 2) * R
            + (2 * classes + torus._LIVE) * R * L)
    ctx.meter.take(held)
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
    ctx.meter.give(held)

    points, c = n_rows * L, ctx.counters
    if split:
        c.split2_calls += n_rows
    else:
        c.base_invocations += n_rows
        c.pow_mod_calls += points
    per_point = (_trinomial_mults(p) if split
                 else p.bit_count() + p.bit_length() - 1)
    # term and row-weight products per row; Horner, G and the row per point
    c.mults += (n_rows * (len(E) + 1) * len(outer) + n_rows
                + points * (classes * d + per_point + 1))
    return acc


def make_context(nf: NormalizedPolynomial, i, p: int, q: int,
                 use_split2: bool = True) -> PrimeContext:
    """The context for [f^p]_i mod q; ctx.tensor holds f mod q densely."""
    shape = tuple(d + 1 for d in nf.degrees)
    ctx = PrimeContext(q=q, p=p, target=tuple(i), shape=shape,
                       use_split2=use_split2)
    ctx.tensor = np.zeros(shape, dtype=np.int64)
    for c, e in nf.terms:
        ctx.tensor[e] = c % q
    return ctx


def _in_range(i, level_nodes) -> bool:
    return all(0 <= ik <= Nk for ik, Nk in zip(i, level_nodes))


def coefficient_mod_prime(nf: NormalizedPolynomial, i, p: int, q: int,
                          use_split2: bool = True,
                          ctx: PrimeContext | None = None) -> int:
    """[f^p]_i mod q where f is the cleared polynomial of the context.

    Indices beyond the degree bounds give 0.  p = 0 and p = 1 are answered
    directly.  Pass a prebuilt context to read its counters afterwards.
    """
    if p < 0:
        raise EngineError("negative power")
    i = tuple(int(x) for x in i)
    if len(i) != nf.n:
        raise EngineError("index dimension mismatch")
    if ctx is None:
        ctx = make_context(nf, i, p, q, use_split2)
    if not _in_range(i, ctx.level_nodes):
        return 0
    if p == 0:
        return 1 % q
    A = ctx.tensor
    if p == 1:
        return int(A[i])
    if nf.n == 0:
        return pow(int(A[()]), p, q)
    if ctx.use_split2 and A.ndim >= 2 and A.shape[0] == 3 and i[0] == p:
        return split2(i[0], A, p, ctx)
    return _walk(A, p, ctx, split=False)
