"""Exact coefficient pipeline, constant-term series, and recurrence fitting.

The pipeline runs the torus engine (torus.py) over a deterministic set of
31-bit primes, all congruent to 1 modulo the engine's grid size and sized
from the coefficient bound, and reassembles the integer by mixed radix
conversion.  Series of constant terms a_p = [h^p]_0 feed a
fitting step that looks for relations

    P_0(n) a_n + P_1(n-1) a_(n-1) + ... + P_k(n-k) a_(n-k) = 0

with polynomial coefficients of degree at most d.  The kernel of the
overdetermined linear system the relation imposes on the known terms is
found modulo 31-bit primes, lifted to integers by CRT and rational
reconstruction, and checked exactly on the terms.  A fit is only reported
when the kernel is one-dimensional over Q and does not move when the last
few equations are withheld.  Such a relation is the same data as a
differential operator sum_i z^i P_i(theta) annihilating the generating
function, theta = z d/dz.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
import sys
from dataclasses import dataclass

import numpy as np

from . import torus
from .laurent import (LaurentPolynomial, _integer, normalize,
                      polynomial_from_json, polynomial_to_json, total_weight)
from .rns import ModulusSet, _is_prime, reconstruct, select_primes


class FitError(ValueError):
    pass


class WorkerError(RuntimeError):
    """A forked row-block worker failed."""


# --- exact coefficients over many primes ------------------------------------

def _primes_for(h_weight: int, M: int, p: int) -> ModulusSet:
    # |[h^p]_i| <= h_weight^p; q = 1 (mod M) gives the grid's roots of unity;
    # q > 2p keeps p! and the series recurrence's divisors 2p - 1 invertible
    return select_primes(h_weight ** p, max(1, 2 * p), congruent_to_1_mod=M)


def _resolve_threads(threads: int) -> int:
    threads = _integer(threads, "threads")
    if threads < 0:
        raise ValueError("threads must be >= 0")
    # at most every CPU this process may run on (its affinity mask, if any),
    # which 0 means: every worker is forked before any is read
    cpus = getattr(os, "sched_getaffinity", None)
    cpus = len(cpus(0)) if cpus else os.cpu_count() or 1
    return min(threads or cpus, cpus)


# predicted reductions (torus.predicted_work) per forked row-block worker.
# Medians on 2 shared vCPUs, one worker against two: sample 39 at p = 40
# (1.9M) took 0.0230 against 0.0207 s (BENCH_20.json) and 0.0209 against
# 0.0221 s (BENCH_21.json); the series of samples 39, 24 and 38 to 34
# (2.5M to 7.6M) used as much CPU as wall time on two workers.  Sample 39
# at p = 80 (44.6M) gained 1.4-1.8x and its series to 59 (39.2M) 1.3-1.7x.
_WORK_PER_WORKER = 1 << 24


def _workers(tp, work: int, threads: int) -> int:
    """Row blocks for a run of `work` predicted reductions on at most
    `threads` workers: one per _WORK_PER_WORKER, at least 1, at most
    tp.rows."""
    return min(threads, tp.rows, max(1, work // _WORK_PER_WORKER))


def _sum_row_blocks(tp, ms: ModulusSet, threads: int, series: bool = False
                    ) -> list:
    """torus.series_residues if series, else torus.coefficient_residues,
    over blocks of grid rows, summed modulo each prime as Python ints.
    There are at most `threads` blocks, fewer when the predicted work does
    not pay for a fork (_workers).  Block k takes every n-th row from row
    k, as the orbit representatives crowd into the first rows.  On Linux
    forked children sum blocks 1..n-1 and send back int64 residues (below
    2^31); a dead one raises WorkerError."""
    fn = torus.series_residues if series else torus.coefficient_residues
    n = _workers(tp, torus.predicted_work(tp, ms.primes, series), threads)
    blocks = [(tp, ms.primes, range(k, tp.rows, n)) for k in range(n)]
    total, pids, fds = 0, [], []
    try:
        for block in blocks[1:] if sys.platform == "linux" else ():
            fds += os.pipe()
            if (pid := os.fork()) == 0:
                try:  # a child never returns into the caller's stack
                    os.write(fds[-1], np.array(fn(*block), np.int64).tobytes())
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(fds.pop())
            pids.append(pid)
        for k, block in enumerate(blocks, 1):
            if k == 1 or not fds:
                part = np.array(fn(*block), np.int64)
            else:
                with open(fds[k - 2], "rb", closefd=False) as pipe:
                    data = pipe.read()
                if len(data) != part.nbytes:  # it died before it was done
                    raise WorkerError(f"row block {k} of {n} sent "
                                      f"{len(data)} of {part.nbytes} bytes")
                part = np.frombuffer(data, np.int64).reshape(part.shape)
            total = total + part  # n parts below 2^31 stay below 2^63
    finally:  # reap every child, and first stop any still running
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    return (total % np.array(ms.primes)).tolist()


def _prepare(h: LaurentPolynomial, p: int, index=None, use_split2=True):
    """(plan, primes) for [h^p]_index (default: the constant term), or None
    if the index lies off the support of h^p, where the coefficient is 0."""
    p = _integer(p, "power")
    if p < 0:
        raise ValueError("negative power")
    nf = normalize(h)
    ix = ((0,) * nf.n if index is None else
          tuple(_integer(x, "index entry") for x in index))
    if len(ix) != nf.n:
        raise ValueError("index dimension mismatch")
    target = tuple(i + p * s for i, s in zip(ix, nf.shift))
    if any(not 0 <= t <= p * d for t, d in zip(target, nf.degrees)):
        return None
    tp = torus.plan(nf, target, p, use_split2)
    return tp, _primes_for(total_weight(h), tp.M, p)


def exact_coefficient(h: LaurentPolynomial, p: int, index=None,
                      threads: int = 1) -> int:
    """Exact [h^p]_index (default: the constant term) via the torus engine."""
    threads = _resolve_threads(threads)
    if not (prepared := _prepare(h, p, index)):    # 0 off the support
        return 0
    tp, ms = prepared
    return reconstruct(_sum_row_blocks(tp, ms, threads), ms)


# --- constant term series ----------------------------------------------------

@dataclass(frozen=True)
class Series:
    poly: LaurentPolynomial | None
    terms: tuple[int, ...]

    def __len__(self):
        return len(self.terms)


def to_decimal(x: int) -> str:
    """str(x) past Python's limit of 4300 digits for str(int), by halves."""
    if x.bit_length() < 14000:
        return str(x)
    hi, lo = divmod(abs(x), 10 ** (k := x.bit_length() * 3 // 20))  # halves
    return "-" * (x < 0) + to_decimal(hi) + to_decimal(lo).zfill(k)


def from_decimal(text: str) -> int:
    """int(text) at any size for what to_decimal writes, by halves."""
    if len(text) < 4000 or not text[1:].isdigit():
        return int(text)
    k = len(text) // 2
    lo = from_decimal(text[k:])                  # the digits, without sign
    return from_decimal(text[:k]) * 10 ** (len(text) - k) + (
        -lo if text[0] == "-" else lo)


def series_to_json(s: Series) -> dict:
    return {
        "poly": None if s.poly is None else polynomial_to_json(s.poly),
        "terms": [to_decimal(t) for t in s.terms],
    }


def series_from_json(obj) -> Series:
    if isinstance(obj, list):
        terms = obj
        poly = None
    elif isinstance(obj, dict) and isinstance(obj.get("terms"), list):
        terms = obj["terms"]
        poly = obj.get("poly")
    else:
        raise FitError("series JSON needs a 'terms' list")
    poly_obj = polynomial_from_json(poly) if poly else None
    out = []
    for t in terms:
        if isinstance(t, str):
            t = from_decimal(t)
        elif isinstance(t, bool) or not isinstance(t, int):
            raise FitError(f"non-integer series term {t!r}")
        out.append(t)
    return Series(poly_obj, tuple(out))


def constant_term_series(h: LaurentPolynomial, P: int, threads: int = 1,
                         use_split2: bool = True) -> Series:
    """a_p = [h^p]_0 for p = 0..P, exactly, in one pass over one grid.

    Every power shares the grid planned for a_P and one set of primes whose
    bound covers a_P; the primes exceed 2P because torus.series_residues
    runs the trinomial recurrence rescaled by (2p-1)!!, two reductions per
    grid point and power.  The grid rows are split into blocks, one per
    worker, at most `threads` and fewer when the predicted work does not
    pay for a fork; each block returns partial sums of all P + 1 terms, and
    results are identical for any thread count because each block is exact
    field arithmetic.  If P * shift lies off the support of h^P, so does
    p * shift for every p >= 1: a_1..a_P are 0, without a plan.  Raises
    ValueError unless P is an integer in [0, torus.MAX_SERIES).
    """
    P = _integer(P, "series length")
    if not 0 <= P < torus.MAX_SERIES:
        raise ValueError(f"series length must be in [0, {torus.MAX_SERIES})")
    threads = _resolve_threads(threads)
    if not (prepared := _prepare(h, P, use_split2=use_split2)):
        return Series(h, (1,) + (0,) * P)   # off the support for P >= 1
    tp, ms = prepared
    sums = _sum_row_blocks(tp, ms, threads, series=True)
    return Series(h, tuple(reconstruct(r, ms) for r in sums))


# --- recurrences -------------------------------------------------------------

@dataclass(frozen=True)
class Recurrence:
    """P_0..P_k as coefficient vectors (ascending powers, uniform length d+1).

    Canonical form: integer coefficients with overall content 1, the leading
    coefficient of P_0 positive, and P_0 not identically zero.
    """
    polys: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.polys:
            raise ValueError("empty recurrence")
        width = len(self.polys[0])
        if width == 0 or any(len(p) != width for p in self.polys):
            raise ValueError("ragged coefficient table")
        if not any(self.polys[0]):
            raise ValueError("P_0 is identically zero")

    @property
    def k(self) -> int:
        return len(self.polys) - 1

    @property
    def degree(self) -> int:
        return len(self.polys[0]) - 1


def _poly_eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def make_recurrence(polys) -> Recurrence:
    """Normalize to the canonical form (content 1, P_0 leading coeff > 0)."""
    polys = [list(p) for p in polys]
    width = max(len(p) for p in polys)
    for p in polys:
        p.extend([0] * (width - len(p)))
    flat = [c for p in polys for c in p]
    g = math.gcd(*flat)
    if g == 0:
        raise ValueError("zero recurrence")
    lead = next((c for c in reversed(polys[0]) if c), 0)
    if lead == 0:
        raise ValueError("P_0 is identically zero")
    if lead < 0:
        g = -g
    return Recurrence(tuple(tuple(c // g for c in p) for p in polys))


def _holds(polys, terms) -> bool:
    """sum_i P_i(n-i) a_(n-i) = 0 for every n < len(terms)."""
    return all(sum(_poly_eval(poly, n - i) * terms[n - i]
                   for i, poly in enumerate(polys[:n + 1])) == 0
               for n in range(len(terms)))


def verify_recurrence(rec: Recurrence, series) -> bool:
    """Check sum_i P_i(n-i) a_(n-i) = 0 for every n the series covers."""
    return _holds(rec.polys, series.terms if isinstance(series, Series)
                  else list(series))


# fitting: the kernel of the relation matrix modulo 31-bit primes, lifted

# the first prime tried: every product of two residues stays below 2**62
_RANK_PRIME = (1 << 31) - 1


def _relation_matrix_mod(terms, k, d, q) -> np.ndarray:
    """Row n: a_(n-i) (n-i)^j mod q, i = 0..k, j = 0..d, a_m = 0 for m < 0."""
    t = np.array([a % q for a in terms] + [0], dtype=np.int64)
    base = np.arange(len(terms))[:, None] - np.arange(k + 1)   # n - i
    cols = [t[np.where(base >= 0, base, -1)]]                  # a_(n-i) or 0
    for _ in range(d):
        cols.append(cols[-1] * (base % q) % q)
    return np.stack(cols, axis=2).reshape(len(terms), -1)


def _kernel_mod_prime(m: np.ndarray, q: int):
    """(pivot columns, kernel basis) of m (entries in [0, q), q < 2**31)
    modulo q: one vectorised fraction-free update of the rows below each
    pivot, then back substitution for all free columns at once.  Basis
    vector f is 1 at the f-th free column and 0 at the others."""
    m = m.copy()
    ncols = m.shape[1]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        nonzero = m[r:, c].nonzero()[0]
        if not nonzero.size:
            continue
        if nonzero[0]:
            m[[r, r + nonzero[0]]] = m[[r + nonzero[0], r]]
        below = m[r + 1:, c:]
        below[:] = (below * m[r, c] - below[:, :1] * m[r, c:]) % q
        pivots.append(c)
    if len(pivots) == ncols:
        return pivots, []
    free = sorted(set(range(ncols)) - set(pivots))
    x = np.zeros((ncols, len(free)), dtype=np.int64)
    x[free, range(len(free))] = 1
    for r, c in reversed(list(enumerate(pivots))):
        s = (m[r, c + 1:, None] * x[c + 1:] % q).sum(axis=0) % q
        x[c] = (q - s) * pow(int(m[r, c]), -1, q) % q
    return pivots, x.T.tolist()


def _lift(x, n):
    """An integer multiple of the rational vector whose residues mod n are
    x, by rational reconstruction of each entry times the common denominator
    found so far (Wang, Guy and Davenport, SIGSAM Bull. 16, 1982), or None."""
    bound = math.isqrt(n // 2)
    out, den = [], 1
    for v in x:
        r0, r1, t0, t1 = n, v * den % n, 0, 1
        while r1 > bound:
            quo = r0 // r1
            r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
        if abs(t1) > bound:
            return None
        out = [u * abs(t1) for u in out] + [r1 if t1 > 0 else -r1]
        den *= abs(t1)
    return out


def fit_recurrence(series, k: int, d: int, extra: int = 5):
    """The unique stable relation of shape (k, d), or None.

    The system must be overdetermined by at least `extra` equations.  The
    kernel of the others is found modulo primes from _RANK_PRIME down; full
    column rank at any prime means no relation.  Modulo q the i-th pivot
    column can only move right or vanish, so only the primes with the best
    key (-rank, pivot columns) so far are kept, and a better key restarts
    the lift.  The kept bases are combined by CRT and lifted by rational
    reconstruction until every lifted vector satisfies the equations
    exactly; as the nullity over Q is at most that mod q, they then span
    the kernel.  It must be one-dimensional, with P_0 != 0, and its vector
    must also satisfy the withheld equations.
    """
    terms = list(series.terms if isinstance(series, Series) else series)
    ncols = (k + 1) * (d + 1)
    if extra < 1:
        raise FitError("need at least one withheld equation")
    if len(terms) < ncols + extra:
        raise FitError(f"series too short: need {ncols + extra} terms, have {len(terms)}")
    cut = len(terms) - extra
    best = (1,)             # worse than any key (-rank, pivot columns)
    for q in filter(_is_prime, itertools.count(_RANK_PRIME, -2)):
        pivots, kernel = _kernel_mod_prime(
            _relation_matrix_mod(terms[:cut], k, d, q), q)
        if not kernel:
            return None
        key = (-len(pivots), pivots)
        if key > best:
            continue
        if key < best:      # restart: modulo n = 1 any basis will do
            best, n, basis = key, 1, kernel
        inv = pow(n, -1, q)
        basis = [[a + n * ((b - a) * inv % q) for a, b in zip(u, v)]
                 for u, v in zip(basis, kernel)]
        n *= q
        lifted = [_lift(v, n) for v in basis]
        if None in lifted:
            continue
        polys = [[v[i * (d + 1):(i + 1) * (d + 1)] for i in range(k + 1)]
                 for v in lifted]
        if all(_holds(p, terms[:cut]) for p in polys):
            if len(polys) == 1 and any(polys[0][0]) and _holds(polys[0], terms):
                return make_recurrence(polys[0])
            return None


def search_recurrence(series, max_k: int, max_d: int, extra: int = 5):
    """All stable relations in the (k, d) grid, smallest system first.

    Cells that enlarge an already found relation are skipped: the padded
    smaller solution always lies in their nullspace.  So are the cells
    whose columns are independent modulo _RANK_PRIME, where fit_recurrence
    would find no kernel: one elimination of each largest cell (k1, d)
    decides it for every (k, d), k <= k1, whose columns are its first
    (k + 1)(d + 1), and then for every cell inside one of those.
    """
    terms = list(series.terms if isinstance(series, Series) else series)
    if extra < 1:
        raise FitError("need at least one withheld equation")
    cells = sorted(((k, d) for k in range(max_k + 1) for d in range(max_d + 1)
                    if (k + 1) * (d + 1) + extra <= len(terms)),
                   key=lambda kd: ((kd[0] + 1) * (kd[1] + 1), kd[0]))
    full = []
    for k1, d1 in cells:
        if any((k1, d1) != c and k1 <= c[0] and d1 <= c[1] for c in cells):
            continue                                # not a largest cell
        pivots = _kernel_mod_prime(_relation_matrix_mod(
            terms[:len(terms) - extra], k1, d1, _RANK_PRIME), _RANK_PRIME)[0]
        lead = sum(c == i for i, c in enumerate(pivots))  # pivots ascend
        full += [(k, d1) for k in range(k1 + 1) if (k + 1) * (d1 + 1) <= lead]
    hits = []
    for k, d in cells:
        if not any(r.k <= k and r.degree <= d for r in hits) and not any(
                k <= k1 and d <= d1 for k1, d1 in full):
            rec = fit_recurrence(terms, k, d, extra)
            if rec is not None:
                hits.append(rec)
    return hits


# --- differential operator view ----------------------------------------------

@dataclass(frozen=True)
class DifferentialOperator:
    """sum_i z^i P_i(theta); the same table of integers as the recurrence."""
    polys: tuple[tuple[int, ...], ...]

    def to_text(self) -> str:
        return "\n".join(
            f"z^{i} * ( {_theta_poly_text(p)} )"
            for i, p in enumerate(self.polys))


def _theta_poly_text(coeffs) -> str:
    parts = []
    for j in reversed(range(len(coeffs))):
        if c := coeffs[j]:
            mono = f"θ^{j}" if j > 1 else "θ" * j
            body = (f"{abs(c)}*{mono}" if mono and abs(c) != 1
                    else mono or str(abs(c)))
            parts.append(f"{'-' if c < 0 else '+'} {body}")
    text = " ".join(parts) or "+ 0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def recurrence_to_operator(rec: Recurrence) -> DifferentialOperator:
    return DifferentialOperator(rec.polys)


def operator_to_recurrence(op: DifferentialOperator) -> Recurrence:
    return make_recurrence(op.polys)
