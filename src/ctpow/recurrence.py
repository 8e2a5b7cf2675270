"""Exact coefficient pipeline, constant-term series, and recurrence fitting.

The pipeline runs the torus engine (torus.py) over a deterministic set of
31-bit primes, all congruent to 1 modulo the engine's grid size and sized
from the coefficient bound, and reassembles the integer by mixed radix
conversion.  Series of constant terms a_p = [h^p]_0 feed a
fitting step that looks for relations

    P_0(n) a_n + P_1(n-1) a_(n-1) + ... + P_k(n-k) a_(n-k) = 0

with polynomial coefficients of degree at most d, by computing the exact
integer nullspace of the overdetermined linear system the relation imposes
on the known terms.  A fit is only reported when the nullspace is exactly
one-dimensional and does not move when the last few equations are withheld.
Such a relation is the same data as a differential operator
sum_i z^i P_i(theta) annihilating the generating function, theta = z d/dz.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import torus
# the Vandermonde reference engine; ctbench's tracer wraps this name
from .engine import coefficient_mod_prime  # noqa: F401
from .laurent import (LaurentPolynomial, normalize, polynomial_from_json,
                      polynomial_to_json, total_weight)
from .rns import ModulusSet, RnsValue, coefficient_bound_bits, reconstruct, select_primes


class FitError(ValueError):
    pass


# --- exact coefficients over many primes ------------------------------------

def _primes_for(h_weight: int, M: int, p: int, prime_bits: int) -> ModulusSet:
    # q = 1 (mod M) gives the grid's roots of unity; q > p keeps p! invertible
    bits = coefficient_bound_bits(h_weight, p)
    return select_primes(bits, max(1, p), prime_bits, congruent_to_1_mod=M)


def _residues_task(args):
    """One unit of work: (p, residues of [f^p]_target over a block of rows)."""
    nf, target, p, primes, tp, lo, hi = args
    return p, torus.coefficient_residues(nf, target, p, primes, tp,
                                         range(lo, hi))


def _resolve_threads(threads: int) -> int:
    if threads == 0:
        import os
        return os.cpu_count() or 1
    return max(1, threads)


def _map_tasks(tasks, threads: int):
    """_residues_task over the tasks, in order; a process pool when threads > 1."""
    if threads == 1 or len(tasks) < 2:
        yield from map(_residues_task, tasks)
        return
    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(_residues_task, tasks, chunksize=1)


def exact_coefficient(h: LaurentPolynomial, p: int, index=None,
                      threads: int = 1, use_split2: bool = True,
                      prime_bits: int = 31) -> int:
    """Exact [h^p]_index (default: the constant term) via the torus engine.

    With use_split2 off no variable is summed exactly: the whole grid is
    powered pointwise.
    """
    if p < 0:
        raise ValueError("negative power")
    nf = normalize(h)
    if index is None:
        index = (0,) * nf.n
    index = tuple(int(x) for x in index)
    if len(index) != nf.n:
        raise ValueError("index dimension mismatch")
    target = tuple(ix + p * s for ix, s in zip(index, nf.shift))
    if any(not 0 <= t <= p * d for t, d in zip(target, nf.degrees)):
        return 0
    tp = torus.plan(nf, target, p, use_split2)
    ms = _primes_for(total_weight(h), tp.M, p, prime_bits)
    threads = _resolve_threads(threads)
    # contiguous blocks of grid rows, about three per worker
    step = tp.rows if threads == 1 else -(-tp.rows // (3 * threads))
    tasks = [(nf, target, p, ms.primes, tp, lo, min(lo + step, tp.rows))
             for lo in range(0, tp.rows, step)]
    residues = [0] * len(ms.primes)
    for _, part in _map_tasks(tasks, threads):
        residues = [(a + b) % q for a, b, q in zip(residues, part, ms.primes)]
    return reconstruct(RnsValue(tuple(residues)), ms)


# --- constant term series ----------------------------------------------------

@dataclass(frozen=True)
class Series:
    poly: LaurentPolynomial | None
    terms: tuple[int, ...]

    def __len__(self):
        return len(self.terms)


def series_to_json(s: Series) -> dict:
    return {
        "poly": None if s.poly is None else polynomial_to_json(s.poly),
        "terms": [str(t) for t in s.terms],
    }


def series_from_json(obj) -> Series:
    if isinstance(obj, list):
        terms = obj
        poly = None
    elif isinstance(obj, dict) and "terms" in obj:
        terms = obj["terms"]
        poly = obj.get("poly")
    else:
        raise FitError("series JSON needs a 'terms' list")
    poly_obj = polynomial_from_json(poly) if poly else None
    out = []
    for t in terms:
        if isinstance(t, str):
            t = int(t)
        elif isinstance(t, bool) or not isinstance(t, int):
            raise FitError(f"non-integer series term {t!r}")
        out.append(t)
    return Series(poly_obj, tuple(out))


def constant_term_series(h: LaurentPolynomial, P: int, threads: int = 1,
                         use_split2: bool = True, prime_bits: int = 31,
                         progress=None) -> Series:
    """a_p = [h^p]_0 for p = 0..P, exactly.

    Work is parallelized with one task per power, heaviest first; results
    are identical for any thread count because each task is exact field
    arithmetic.
    """
    nf = normalize(h)
    w = total_weight(h)
    tasks = []
    moduli = {}
    for p in range(P, -1, -1):
        target = tuple(p * s for s in nf.shift)
        tp = torus.plan(nf, target, p, use_split2)
        moduli[p] = _primes_for(w, tp.M, p, prime_bits)
        tasks.append((nf, target, p, moduli[p].primes, tp, 0, tp.rows))
    terms = {}
    for p, residues in _map_tasks(tasks, _resolve_threads(threads)):
        terms[p] = reconstruct(RnsValue(residues), moduli[p])
        if progress:
            progress(len(terms), P + 1)
    return Series(h, tuple(terms[p] for p in range(P + 1)))


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


def _content(vec) -> int:
    g = 0
    for v in vec:
        g = math.gcd(g, v)
    return g


def make_recurrence(polys) -> Recurrence:
    """Normalize to the canonical form (content 1, P_0 leading coeff > 0)."""
    polys = [list(p) for p in polys]
    width = max(len(p) for p in polys)
    for p in polys:
        p.extend([0] * (width - len(p)))
    flat = [c for p in polys for c in p]
    g = _content(flat)
    if g == 0:
        raise ValueError("zero recurrence")
    lead = next((c for c in reversed(polys[0]) if c), 0)
    if lead == 0:
        raise ValueError("P_0 is identically zero")
    if lead < 0:
        g = -g
    return Recurrence(tuple(tuple(c // g for c in p) for p in polys))


def verify_recurrence(rec: Recurrence, series) -> bool:
    """Check sum_i P_i(n-i) a_(n-i) = 0 for every n the series covers."""
    terms = series.terms if isinstance(series, Series) else list(series)
    for n in range(len(terms)):
        total = 0
        for i, poly in enumerate(rec.polys):
            if i > n:
                break
            total += _poly_eval(poly, n - i) * terms[n - i]
        if total != 0:
            return False
    return True


# fitting: exact nullspace of the relation matrix

_FILTER_PRIME = (1 << 61) - 1


def _relation_matrix(terms, k, d):
    rows = []
    for n in range(len(terms)):
        row = []
        for i in range(k + 1):
            a = terms[n - i] if n >= i else 0
            base = n - i
            pw = 1
            for _ in range(d + 1):
                row.append(a * pw)
                pw *= base
        rows.append(row)
    return rows


def _rank_mod(rows, q) -> int:
    m = [[v % q for v in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, q)
        prow = m[rank]
        for r in range(rank + 1, nrows):
            f = m[r][c]
            if f:
                f = f * inv % q
                mr = m[r]
                for cc in range(c, ncols):
                    mr[cc] = (mr[cc] - f * prow[cc]) % q
        rank += 1
        if rank == nrows:
            break
    return rank


def _nullspace_1d(rows, ncols):
    """(nullity, primitive integer vector or None) by fraction-free elimination."""
    m = [row[:] for row in rows]
    nrows = len(m)
    pivots = []  # (row, col)
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((rr for rr in range(r, nrows) if m[rr][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for rr in range(r + 1, nrows):
            factor = m[rr][c]
            prow = m[r]
            mr = m[rr]
            pivval = prow[c]
            for cc in range(c + 1, ncols):
                mr[cc] = (pivval * mr[cc] - factor * prow[cc]) // prev
            mr[c] = 0
        prev = m[r][c]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    if len(free) != 1:
        return len(free), None
    x = [Fraction(0)] * ncols
    x[free[0]] = Fraction(1)
    for row_idx, c in reversed(pivots):
        row = m[row_idx]
        s = sum((row[cc] * x[cc] for cc in range(c + 1, ncols) if row[cc]),
                Fraction(0))
        x[c] = -s / row[c]
    lcm = 1
    for v in x:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in x]
    g = _content(ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]
    return 1, tuple(ints)


def fit_recurrence(series, k: int, d: int, extra: int = 5):
    """The unique stable relation of shape (k, d), or None.

    The system must be overdetermined by at least `extra` equations; the
    relation is accepted only if its nullspace is one-dimensional both with
    and without the last `extra` equations and identical in both cases.
    """
    terms = list(series.terms if isinstance(series, Series) else series)
    ncols = (k + 1) * (d + 1)
    if extra < 1:
        raise FitError("need at least one withheld equation")
    if len(terms) < ncols + extra:
        raise FitError(f"series too short: need {ncols + extra} terms, have {len(terms)}")
    rows = _relation_matrix(terms, k, d)
    cut = rows[:len(rows) - extra]
    # cheap certificate: full column rank mod a big prime means empty nullspace
    if _rank_mod(cut, _FILTER_PRIME) == ncols:
        return None
    nullity_cut, v_cut = _nullspace_1d(cut, ncols)
    if nullity_cut != 1:
        return None
    nullity_full, v_full = _nullspace_1d(rows, ncols)
    if nullity_full != 1 or v_cut != v_full:
        return None
    polys = [tuple(v_full[i * (d + 1):(i + 1) * (d + 1)]) for i in range(k + 1)]
    if not any(polys[0]):
        return None
    return make_recurrence(polys)


def search_recurrence(series, max_k: int, max_d: int, extra: int = 5):
    """All stable relations in the (k, d) grid, smallest system first.

    Cells that enlarge an already found relation are skipped: the padded
    smaller solution always lies in their nullspace, so they can only
    rediscover it or fail the uniqueness test.
    """
    terms = list(series.terms if isinstance(series, Series) else series)
    cells = sorted(((k, d) for k in range(max_k + 1) for d in range(max_d + 1)),
                   key=lambda kd: ((kd[0] + 1) * (kd[1] + 1), kd[0]))
    hits = []
    found_shapes = []
    for k, d in cells:
        if (k + 1) * (d + 1) + extra > len(terms):
            continue
        if any(k0 <= k and d0 <= d for k0, d0 in found_shapes):
            continue
        rec = fit_recurrence(terms, k, d, extra)
        if rec is not None:
            hits.append(rec)
            found_shapes.append((k, d))
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
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if c == 0:
            continue
        mono = "θ^%d" % j if j > 1 else ("θ" if j == 1 else "")
        mag = abs(c)
        body = (f"{mag}*{mono}" if mono and mag != 1 else (mono or str(mag)))
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign0, body0 = parts[0]
    text = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def recurrence_to_operator(rec: Recurrence) -> DifferentialOperator:
    return DifferentialOperator(rec.polys)


def operator_to_recurrence(op: DifferentialOperator) -> Recurrence:
    return make_recurrence(op.polys)


def parse_operator_text(text: str) -> DifferentialOperator:
    import re
    polys: dict[int, dict[int, int]] = {}
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        m = re.fullmatch(r"z\^(\d+)\s*\*\s*\(\s*(.*?)\s*\)", line)
        if not m:
            raise FitError(f"bad operator line: {line!r}")
        i = int(m.group(1))
        coeffs: dict[int, int] = {}
        body = m.group(2)
        if body != "0":
            for piece in body.replace("-", "+-").split("+"):
                piece = piece.strip()
                if not piece:
                    continue
                neg = piece.startswith("-")
                if neg:
                    piece = piece[1:].strip()
                if "θ" in piece:
                    coef_part, _, theta_part = piece.partition("θ")
                    coef_part = coef_part.strip().rstrip("*").strip()
                    c = int(coef_part) if coef_part else 1
                    theta_part = theta_part.strip()
                    j = int(theta_part[1:]) if theta_part.startswith("^") else 1
                else:
                    c = int(piece)
                    j = 0
                if neg:
                    c = -c
                coeffs[j] = coeffs.get(j, 0) + c
        polys[i] = coeffs
    if not polys:
        raise FitError("empty operator text")
    k = max(polys)
    width = max((max(c, default=0) for c in polys.values()), default=0) + 1
    table = tuple(
        tuple(polys.get(i, {}).get(j, 0) for j in range(width))
        for i in range(k + 1))
    return DifferentialOperator(table)
