"""Reference results by brute force: dense powering and closed forms.

Everything here trades speed for transparency.  naive_power_coeff expands
f = X^s * h to the p-th power with schoolbook dense multiplication over
Python integers and reads off one coefficient.  It shares nothing with the
modular engine except the input normalization, so agreement between the two
is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .laurent import LaurentPolynomial, normalize

# refuse dense products with more entries than this
DEFAULT_MAX_ENTRIES = 2_000_000


class SizeGuardError(RuntimeError):
    """The requested dense expansion is too large to do naively."""


@dataclass(frozen=True)
class DensePolynomial:
    """Dense integer coefficient tensor, row-major, last axis fastest."""
    shape: tuple[int, ...]
    data: tuple[int, ...]

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n


def _strides(shape):
    st = [1] * len(shape)
    for r in range(len(shape) - 2, -1, -1):
        st[r] = st[r + 1] * shape[r + 1]
    return st


def dense_from_normalized(nf) -> DensePolynomial:
    return DensePolynomial(nf.tensor.shape, tuple(nf.tensor.data))


def dense_multiply(a: DensePolynomial, b: DensePolynomial,
                   max_entries: int = DEFAULT_MAX_ENTRIES) -> DensePolynomial:
    """Schoolbook product; iterates over nonzero entries of the sparser factor."""
    if len(a.shape) != len(b.shape):
        raise ValueError("dimension mismatch")
    out_shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
    out_size = 1
    for s in out_shape:
        out_size *= s
    if out_size > max_entries:
        raise SizeGuardError(
            f"dense product would have {out_size} entries (limit {max_entries})")
    nz_a = sum(1 for v in a.data if v)
    nz_b = sum(1 for v in b.data if v)
    if nz_a < nz_b:
        a, b = b, a  # keep the sparser factor on the inner loop
    out = [0] * out_size
    out_strides = _strides(out_shape)
    a_strides = _strides(a.shape)
    b_strides = _strides(b.shape)
    n = len(out_shape)

    # offset of every b entry in the output grid, precomputed once
    b_off = []
    for flat_b, vb in enumerate(b.data):
        if vb == 0:
            continue
        rem = flat_b
        off = 0
        for r in range(n):
            idx = rem // b_strides[r]
            rem -= idx * b_strides[r]
            off += idx * out_strides[r]
        b_off.append((off, vb))

    for flat_a, va in enumerate(a.data):
        if va == 0:
            continue
        rem = flat_a
        base = 0
        for r in range(n):
            idx = rem // a_strides[r]
            rem -= idx * a_strides[r]
            base += idx * out_strides[r]
        for off, vb in b_off:
            out[base + off] += va * vb
    return DensePolynomial(out_shape, tuple(out))


def dense_power(f: DensePolynomial, p: int,
                max_entries: int = DEFAULT_MAX_ENTRIES) -> DensePolynomial:
    """f**p by repeated multiplication (keeps every intermediate exact).

    Refuses before multiplying when f**p itself would exceed max_entries.
    """
    if p < 0:
        raise ValueError("negative power")
    size = math.prod(p * (s - 1) + 1 for s in f.shape)
    if size > max_entries:
        raise SizeGuardError(
            f"dense power would have {size} entries (limit {max_entries})")
    acc = DensePolynomial((1,) * len(f.shape), (1,))
    for _ in range(p):
        acc = dense_multiply(acc, f, max_entries)
    return acc


def naive_power_coeff(h: LaurentPolynomial, p: int, index=None,
                      max_entries: int = DEFAULT_MAX_ENTRIES) -> int:
    """Exact [h^p]_index for a Laurent multi-index (default: constant term).

    Clears denominators, powers densely, then reads the entry at
    index + p*shift.  Indices outside the support give 0.
    """
    nf = normalize(h)
    n = nf.n
    if index is None:
        index = (0,) * n
    index = tuple(int(x) for x in index)
    if len(index) != n:
        raise ValueError("index dimension mismatch")
    target = tuple(ix + p * s for ix, s in zip(index, nf.shift))
    g = dense_power(dense_from_normalized(nf), p, max_entries)
    if any(not 0 <= t < sh for t, sh in zip(target, g.shape)):
        return 0
    strides = _strides(g.shape)
    flat = sum(t * st for t, st in zip(target, strides))
    return g.data[flat]


def known_family(name: str, p: int) -> int:
    """Closed-form constant terms of the classical families.

    central_binomial:  (X + 1/X)^p          -> C(p, p/2) for even p
    three_term:        (X + Y + 1/(XY))^p   -> p! / ((p/3)!)^3 for p = 3k
    dwork4:            (X+Y+Z+T+1/(XYZT))^p -> p! / ((p/5)!)^5 for p = 5k
    """
    if p < 0:
        raise ValueError("negative power")
    if name == "central_binomial":
        return math.comb(p, p // 2) if p % 2 == 0 else 0
    if name == "three_term":
        if p % 3:
            return 0
        k = p // 3
        return math.factorial(p) // math.factorial(k) ** 3
    if name == "dwork4":
        if p % 5:
            return 0
        k = p // 5
        return math.factorial(p) // math.factorial(k) ** 5
    raise ValueError(f"unknown family {name!r}")
