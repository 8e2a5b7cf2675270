"""Coefficient extraction modulo one prime by recursive interpolation.

This is the reference engine that follows the paper; the pipeline in
recurrence.py runs the torus engine (torus.py) instead.

For f with degree d_k in variable k, the coefficient [f^p]_i is recovered
one variable at a time: substitute nodes u = 0..N_k for the last variable
(N_k = p*d_k, the degree of f^p in that variable), recurse on the smaller
polynomials, and combine the results with a single row of the inverse
Vandermonde matrix.  The base case powers scalars.  When the first variable
has degree exactly 2 and its target exponent equals p, the last two levels
collapse into split2, which expands

    [ (A0 + B*X1 + C*X1^2)^p ]_{X1^p}
        = sum_{j=0..p//2} M_j * (A0*C)^j * B^(p-2j),
    M_j = p! / (j! j! (p-2j)!),

and only then interpolates the remaining variable, replacing a whole level
of recursion with one pass over the nodes.

Residues are kept in numpy int64 arrays.  All moduli are below 2**31, so a
product of two residues stays below 2**62 and a sum of two such products
below 2**63; nothing here can overflow.

Work is instrumented: Counters tallies base-case invocations, scalar
powerings and elementwise multiplications, and AllocationMeter tracks the
peak number of live auxiliary field elements (input tensor excluded), which
stays linear in sum_k N_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import interp
from .laurent import NormalizedPolynomial


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
class AllocationMeter:
    current: int = 0
    peak: int = 0

    def take(self, n: int):
        self.current += n
        if self.current > self.peak:
            self.peak = self.current

    def give(self, n: int):
        self.current -= n


@dataclass
class PrimeContext:
    """Per-prime state: nodes, cached rows, multinomials, instrumentation."""
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
        self._nodes: dict[int, np.ndarray] = {}
        self._multinomials: np.ndarray | None = None

    def nodes(self, N: int) -> np.ndarray:
        u = self._nodes.get(N)
        if u is None:
            u = np.arange(N + 1, dtype=np.int64)
            self._nodes[N] = u
            self.meter.take(N + 1)
        return u

    def row_for(self, N: int, r: int) -> np.ndarray:
        key = (N, r)
        row = self._rows.get(key)
        if row is None:
            exact = interp.inverse_vandermonde_row(N, r, self.q)
            row = np.array(exact.entries, dtype=np.int64)
            self._rows[key] = row
            self.meter.take(N + 1)
        return row

    def multinomials(self) -> np.ndarray:
        """M_j = p!/(j! j! (p-2j)!) mod q for j = 0..p//2, by the ratio update."""
        if self._multinomials is None:
            p, q = self.p, self.q
            m = p // 2
            M = [1] * (m + 1)
            for j in range(m):
                num = (p - 2 * j) * (p - 2 * j - 1) % q
                M[j + 1] = M[j] * num % q * pow(j + 1, -2, q) % q
            self._multinomials = np.array(M, dtype=np.int64)
            self.meter.take(m + 1)
        return self._multinomials


def _vec_pow(v: np.ndarray, p: int, ctx: PrimeContext) -> np.ndarray:
    """Elementwise v**p mod q by binary powering."""
    q = ctx.q
    width = v.size
    result = np.ones_like(v)
    base = v % q
    while p:
        if p & 1:
            result = result * base % q
            ctx.counters.mults += width
        p >>= 1
        if p:
            base = base * base % q
            ctx.counters.mults += width
    return result


def _base_case(i, A, p, ctx, lo, hi):
    """k = 1: evaluate at the nodes in [lo, hi), power, dot with the row."""
    q = ctx.q
    N = ctx.level_nodes[0]
    u = ctx.nodes(N)[lo:hi]
    width = hi - lo
    ctx.meter.take(3 * width)
    v = np.full(width, int(A[-1]), dtype=np.int64)
    for j in range(A.shape[0] - 2, -1, -1):
        v = (v * u + int(A[j])) % q
        ctx.counters.mults += width
    w = _vec_pow(v, p, ctx)
    ctx.counters.base_invocations += 1
    ctx.counters.pow_mod_calls += width
    row = ctx.row_for(N, i[0])[lo:hi]
    out = int((w * row % q).sum() % q)
    ctx.counters.mults += width
    ctx.meter.give(3 * width)
    return out


def split2(i1: int, A: np.ndarray, p: int, ctx: PrimeContext) -> int:
    """[f^p]_(p, i2) for f = A0(X2) + B(X2)*X1 + C(X2)*X1^2, in one pass.

    Requires degree exactly 2 in the split variable and i1 == p; the caller
    falls back to the generic recursion otherwise.  i2 is taken from the
    context target.
    """
    if A.ndim != 2 or A.shape[0] != 3:
        raise SplitPrecondition("split variable must have degree exactly 2")
    if i1 != p:
        raise SplitPrecondition("split target exponent must equal the power")
    q = ctx.q
    N = ctx.level_nodes[1]
    u = ctx.nodes(N)
    width = N + 1
    counters = ctx.counters
    counters.split2_calls += 1
    ctx.meter.take(5 * width)

    d2 = A.shape[1] - 1
    a0 = np.full(width, int(A[0, -1]), dtype=np.int64)
    bv = np.full(width, int(A[1, -1]), dtype=np.int64)
    cv = np.full(width, int(A[2, -1]), dtype=np.int64)
    for j in range(d2 - 1, -1, -1):
        a0 = (a0 * u + int(A[0, j])) % q
        bv = (bv * u + int(A[1, j])) % q
        cv = (cv * u + int(A[2, j])) % q
    counters.mults += 3 * d2 * width

    g = a0 * cv % q          # (A0*C)(u)
    h = bv * bv % q          # B(u)^2
    counters.mults += 2 * width

    # sum_j M_j g^j h^(m-j), homogeneous Horner, times B for odd p
    M = ctx.multinomials()
    m = p // 2
    acc = np.full(width, int(M[m]), dtype=np.int64)
    hp = np.ones(width, dtype=np.int64)
    for j in range(m - 1, -1, -1):
        hp = hp * h % q
        acc = (acc * g + int(M[j]) * hp) % q
        counters.mults += 3 * width
    if p & 1:
        acc = acc * bv % q
        counters.mults += width

    row = ctx.row_for(N, ctx.target[1])
    out = int((acc * row % q).sum() % q)
    counters.mults += width
    ctx.meter.give(5 * width)
    return out


def _split2_applies(A, i, p, ctx) -> bool:
    return (ctx.use_split2 and p >= 2 and A.ndim == 2
            and A.shape[0] == 3 and i[0] == p)


# Node loops at the two innermost levels are processed in fixed-size chunks:
# a chunk of nodes shares each numpy call, so the Python overhead per node
# drops by the chunk factor while the live buffers stay O(chunk * N), still
# linear in N.
_CHUNK = 8


def _base_block(i, A, p, ctx, lo, hi):
    """Two remaining variables: contract at each node in [lo, hi) and run the
    univariate base case on all columns of a chunk at once."""
    q = ctx.q
    N2 = ctx.level_nodes[1]
    N1 = ctx.level_nodes[0]
    row2 = ctx.row_for(N2, i[1])
    row1 = ctx.row_for(N1, i[0])
    u1 = ctx.nodes(N1)
    d2 = A.shape[1] - 1
    d1 = A.shape[0] - 1
    w1 = N1 + 1
    acc = 0
    for lo_c in range(lo, hi, _CHUNK):
        hi_c = min(lo_c + _CHUNK, hi)
        c = hi_c - lo_c
        s = ctx.nodes(N2)[lo_c:hi_c]
        ctx.meter.take((d1 + 1) * c + 3 * c * w1 + c)
        # B[j1, t] = sum_j2 A[j1, j2] * s_t^j2
        B = np.repeat(A[:, d2][:, None], c, axis=1)
        for j in range(d2 - 1, -1, -1):
            B = (B * s + A[:, j][:, None]) % q
        ctx.counters.mults += d2 * (d1 + 1) * c
        # evaluate every column at the level-1 nodes, then power and combine
        V = np.repeat(B[d1][:, None], w1, axis=1)
        for j in range(d1 - 1, -1, -1):
            V = (V * u1 + B[j][:, None]) % q
        ctx.counters.mults += d1 * c * w1
        W = _vec_pow(V, p, ctx)
        ctx.counters.base_invocations += c
        ctx.counters.pow_mod_calls += c * w1
        partial = (W * row1 % q).sum(axis=1) % q
        ctx.counters.mults += c * w1
        acc = (acc + int((partial * row2[lo_c:hi_c] % q).sum())) % q
        ctx.counters.mults += c
        ctx.meter.give((d1 + 1) * c + 3 * c * w1 + c)
    return acc


def _split2_block(i, A, p, ctx, lo, hi):
    """Three remaining variables whose contraction admits the degree-2
    shortcut: contract at each node in [lo, hi) and run the shortcut on a
    whole chunk of slices at once."""
    q = ctx.q
    N3 = ctx.level_nodes[2]
    N2 = ctx.level_nodes[1]
    row3 = ctx.row_for(N3, i[2])
    row2 = ctx.row_for(N2, ctx.target[1])
    u2 = ctx.nodes(N2)
    d3 = A.shape[2] - 1
    d2 = A.shape[1] - 1
    w2 = N2 + 1
    M = ctx.multinomials()
    m = p // 2
    counters = ctx.counters
    acc = 0
    for lo_c in range(lo, hi, _CHUNK):
        hi_c = min(lo_c + _CHUNK, hi)
        c = hi_c - lo_c
        s = ctx.nodes(N3)[lo_c:hi_c]
        held = 3 * (d2 + 1) * c + 7 * c * w2 + c
        ctx.meter.take(held)
        # T[r, j1, t] = sum_j A[r, j1, j] * s_t^j
        T = np.repeat(A[:, :, d3][:, :, None], c, axis=2)
        for j in range(d3 - 1, -1, -1):
            T = (T * s + A[:, :, j][:, :, None]) % q
        counters.mults += d3 * 3 * (d2 + 1) * c
        rows_at_nodes = []
        for r in range(3):
            E = np.repeat(T[r, d2][:, None], w2, axis=1)
            for j in range(d2 - 1, -1, -1):
                E = (E * u2 + T[r, j][:, None]) % q
            rows_at_nodes.append(E)
        counters.mults += 3 * d2 * c * w2
        a0, bv, cv = rows_at_nodes
        g = a0 * cv % q
        h = bv * bv % q
        counters.mults += 2 * c * w2
        val = np.full((c, w2), int(M[m]), dtype=np.int64)
        hp = np.ones((c, w2), dtype=np.int64)
        for j in range(m - 1, -1, -1):
            hp = hp * h % q
            val = (val * g + int(M[j]) * hp) % q
            counters.mults += 3 * c * w2
        if p & 1:
            val = val * bv % q
            counters.mults += c * w2
        counters.split2_calls += c
        partial = (val * row2 % q).sum(axis=1) % q
        counters.mults += c * w2
        acc = (acc + int((partial * row3[lo_c:hi_c] % q).sum())) % q
        counters.mults += c
        ctx.meter.give(held)
    return acc


def _node_sum(k, i, A, p, ctx, lo, hi):
    """Generic level: contract the last axis at each node, recurse, combine."""
    if k == 2:
        return _base_block(i, A, p, ctx, lo, hi)
    if (k == 3 and ctx.use_split2 and p >= 2 and A.shape[0] == 3
            and i[0] == p):
        return _split2_block(i, A, p, ctx, lo, hi)
    q = ctx.q
    N = ctx.level_nodes[k - 1]
    row = ctx.row_for(N, i[k - 1])
    dk = A.shape[-1] - 1
    size_b = A.size // A.shape[-1]
    inner = i[:-1]
    acc = 0
    for s in range(lo, hi):
        ctx.meter.take(size_b)
        B = A[..., dk].copy()
        for j in range(dk - 1, -1, -1):
            B = (B * s + A[..., j]) % q
        ctx.counters.mults += dk * size_b
        w = coeff(k - 1, inner, B, p, ctx)
        ctx.meter.give(size_b)
        acc = (acc + w * int(row[s])) % q
        ctx.counters.mults += 1
    return acc


def coeff(k: int, i, A, p: int, ctx: PrimeContext) -> int:
    """[A^p]_i mod q for the first k variables of the context."""
    if k == 1:
        return _base_case(i, A, p, ctx, 0, ctx.level_nodes[0] + 1)
    if k == 2 and _split2_applies(A, i, p, ctx):
        return split2(i[0], A, p, ctx)
    return _node_sum(k, i, A, p, ctx, 0, ctx.level_nodes[k - 1] + 1)


def make_context(nf: NormalizedPolynomial, i, p: int, q: int,
                 use_split2: bool = True) -> PrimeContext:
    ctx = PrimeContext(q=q, p=p, target=tuple(i), shape=nf.tensor.shape,
                       use_split2=use_split2)
    data = [c % q for c in nf.tensor.data]
    ctx.tensor = np.array(data, dtype=np.int64).reshape(nf.tensor.shape)
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
    if p == 1:
        return nf.tensor[i] % q
    if nf.n == 0:
        return pow(nf.tensor[()], p, q)
    return coeff(nf.n, i, ctx.tensor, p, ctx)


def top_partial(nf: NormalizedPolynomial, i, p: int, q: int,
                lo: int = 0, hi: int | None = None,
                use_split2: bool = True) -> int:
    """Partial sum over top-level nodes [lo, hi); the parallel work unit.

    Summing the partials over a disjoint cover of [0, N_top + 1] and
    reducing mod q gives coefficient_mod_prime exactly, whatever the split.
    """
    i = tuple(int(x) for x in i)
    ctx = make_context(nf, i, p, q, use_split2)
    if hi is None:
        hi = (ctx.level_nodes[-1] if ctx.level_nodes else 0) + 1
    if not _in_range(i, ctx.level_nodes) or p <= 1:
        # trivial cases are never chunked: the driver sends one full task
        if lo != 0:
            return 0
        return coefficient_mod_prime(nf, i, p, q, use_split2, ctx)
    n = nf.n
    if n == 1:
        return _base_case(i, ctx.tensor, p, ctx, lo, hi)
    if n == 2 and _split2_applies(ctx.tensor, i, p, ctx):
        if lo != 0:
            return 0
        return split2(i[0], ctx.tensor, p, ctx)
    return _node_sum(n, i, ctx.tensor, p, ctx, lo, hi)
