"""Reference results by brute force: dense powering and closed forms.

Everything here trades speed for transparency.  naive_power_coeff expands
f = X^s * h to the p-th power with schoolbook dense multiplication over
Python integers and reads off one coefficient.  It shares nothing with the
modular engine except the input normalization, so agreement between the two
is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .laurent import LaurentPolynomial, _integer, normalize

# refuse dense products with more entries than this
MAX_ENTRIES = 2_000_000


class SizeGuardError(RuntimeError):
    """The requested dense expansion is too large to do naively."""


@dataclass(frozen=True)
class DensePolynomial:
    """Dense integer coefficient tensor, row-major, last axis fastest."""
    shape: tuple[int, ...]
    data: tuple[int, ...]


def _strides(shape):
    st = [1] * len(shape)
    for r in range(len(shape) - 2, -1, -1):
        st[r] = st[r + 1] * shape[r + 1]
    return st


def dense_from_normalized(nf) -> DensePolynomial:
    shape = tuple(d + 1 for d in nf.degrees)
    strides = _strides(shape)
    data = [0] * math.prod(shape)
    for c, e in nf.terms:
        data[sum(x * st for x, st in zip(e, strides))] = c
    return DensePolynomial(shape, tuple(data))


def dense_multiply(a: DensePolynomial, b: DensePolynomial) -> DensePolynomial:
    """Schoolbook product; iterates over nonzero entries of the sparser factor."""
    if len(a.shape) != len(b.shape):
        raise ValueError("dimension mismatch")
    out_shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
    out_size = math.prod(out_shape)
    if out_size > MAX_ENTRIES:
        raise SizeGuardError(
            f"dense product would have {out_size} entries (limit {MAX_ENTRIES})")
    if sum(map(bool, a.data)) < sum(map(bool, b.data)):
        a, b = b, a  # keep the sparser factor on the inner loop
    out = [0] * out_size
    strides = _strides(out_shape)
    # offset of every nonzero b entry in the output grid, computed once
    b_off = [(off, vb) for off, vb in zip(_offsets(b.shape, strides), b.data)
             if vb]
    for base, va in zip(_offsets(a.shape, strides), a.data):
        if va:
            for off, vb in b_off:
                out[base + off] += va * vb
    return DensePolynomial(out_shape, tuple(out))


def _offsets(shape, strides):
    """The offset under `strides` of each entry of a row-major `shape`."""
    return map(sum, itertools.product(*(range(0, n * st, st)
                                        for n, st in zip(shape, strides))))


def _check_power_size(degrees, p: int):
    if p < 0:
        raise ValueError("negative power")
    size = math.prod(p * d + 1 for d in degrees)
    if size > MAX_ENTRIES:
        raise SizeGuardError(
            f"dense power would have {size} entries (limit {MAX_ENTRIES})")


def dense_power(f: DensePolynomial, p: int) -> DensePolynomial:
    """f**p by repeated multiplication (keeps every intermediate exact).

    Refuses before multiplying when f**p itself would exceed MAX_ENTRIES.
    """
    _check_power_size([s - 1 for s in f.shape], p)
    acc = DensePolynomial((1,) * len(f.shape), (1,))
    for _ in range(p):
        acc = dense_multiply(acc, f)
    return acc


def naive_power_coeff(h: LaurentPolynomial, p: int, index=None) -> int:
    """Exact [h^p]_index for a Laurent multi-index (default: constant term).

    Clears denominators, powers densely, then reads the entry at
    index + p*shift.  Indices outside the support give 0.
    """
    p = _integer(p, "power")
    nf = normalize(h)
    if index is None:
        index = (0,) * nf.n
    index = tuple(_integer(x, "index entry") for x in index)
    if len(index) != nf.n:
        raise ValueError("index dimension mismatch")
    _check_power_size(nf.degrees, p)   # before the table
    if p == 0:
        return int(not any(index))
    target = tuple(ix + p * s for ix, s in zip(index, nf.shift))
    g = dense_power(dense_from_normalized(nf), p)
    if any(not 0 <= t < sh for t, sh in zip(target, g.shape)):
        return 0
    return g.data[sum(t * st for t, st in zip(target, _strides(g.shape)))]


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
