"""Residue number system: prime selection and exact reconstruction.

Coefficients are computed modulo several 31-bit primes and recombined by
mixed radix conversion, so no arithmetic ever touches integers larger than
a machine word until the final answer is assembled.  Signed values are
recovered from the balanced range (-M/2, M/2) where M is the product of
the moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=4096)
def _inv(a: int, m: int) -> int:
    return pow(a, -1, m)


@lru_cache(maxsize=4096)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: bases 2, 7 and 61 for 61 < n <
    4,759,123,141, all 31-bit primes (Jaeschke, Math. Comp. 61, 1993), else
    the primes up to 37, valid far beyond 64 bits.  Cached for ModulusSet."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 7, 61) if 61 < n < 4_759_123_141 else _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ModulusSet:
    primes: tuple[int, ...]

    def __post_init__(self):
        if not self.primes:
            raise ValueError("empty modulus set")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("repeated modulus")
        for q in self.primes:
            if not _is_prime(q):
                raise ValueError(f"modulus {q} is not prime")

    @property
    def product(self) -> int:
        return math.prod(self.primes)


def coefficient_bound_bits(weight: int, p: int) -> int:
    """Bits needed to cover any coefficient of h**p, plus sign headroom.

    The sum of absolute coefficient values of h**p is at most weight**p,
    so ceil(p*log2(weight)) + 2 bits always suffice.  Computed with integer
    arithmetic; no floating point rounding.
    """
    if weight < 1:
        raise ValueError("weight must be positive")
    if p < 0:
        raise ValueError("negative power")
    w = weight ** p
    ceil_log2 = 0 if w == 1 else (w - 1).bit_length()
    return ceil_log2 + 2


def select_primes(bound_bits: int, min_exclusive: int = 1,
                  max_bits: int = 31, congruent_to_1_mod: int = 1) -> ModulusSet:
    """Smallest set of primes below 2**max_bits whose product exceeds 2**bound_bits.

    Scans the candidates q = 1 (mod congruent_to_1_mod) downward from
    2**max_bits - 1, so the choice is deterministic.  Every prime also
    exceeds min_exclusive (node counts and factorials must stay invertible).
    With congruent_to_1_mod = M every prime has an element of order M.
    """
    if not 20 <= max_bits <= 31:
        raise ValueError("prime size must be between 20 and 31 bits")
    if congruent_to_1_mod < 1:
        raise ValueError("congruent_to_1_mod must be positive")
    if min_exclusive >= 2 ** max_bits - 1:
        raise ValueError("no primes available above min_exclusive")
    step = congruent_to_1_mod
    target = 1 << bound_bits
    primes = []
    product = 1
    candidate = 2 ** max_bits - 1 - (2 ** max_bits - 2) % step
    while product <= target:
        while candidate > min_exclusive and not _is_prime(candidate):
            candidate -= step
        if candidate <= min_exclusive:
            raise ValueError("prime window exhausted before reaching the bound")
        primes.append(candidate)
        product *= candidate
        candidate -= step
    return ModulusSet(tuple(primes))


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def root_of_unity(M: int, q: int) -> int:
    """The first g**((q-1)/M) mod q, g = 2, 3, ..., of exact order M.

    q must be a prime with q = 1 (mod M).
    """
    if M < 1 or (q - 1) % M:
        raise ValueError(f"{q} - 1 is not a multiple of {M}")
    factors = _prime_factors(M)
    for g in range(2, q):
        w = pow(g, (q - 1) // M, q)
        if all(pow(w, M // r, q) != 1 for r in factors):
            return w
    return 1  # q = 2, M = 1


def reduce_int(x: int, ms: ModulusSet) -> tuple[int, ...]:
    return tuple(x % p for p in ms.primes)


def mixed_radix_digits(residues, ms: ModulusSet) -> list[int]:
    """Digits a_i with x = a_1 + a_2 m_1 + a_3 m_1 m_2 + ..., 0 <= a_i < m_i,
    of the x with x = residues[i] (mod m_i).

    Garner's method: O(s^2) word-sized modular operations and one inverse
    per prime, that of m_1 ... m_(i-1) modulo m_i; no big integers.
    """
    primes = ms.primes
    if len(residues) != len(primes):
        raise ValueError("residue count mismatch")
    digits = []
    for x, mi in zip(residues, primes):
        t, c = x, 1
        for d, mj in zip(digits, primes):
            t, c = (t - d * c) % mi, c * mj % mi
        digits.append(t * _inv(c, mi) % mi)
    return digits


def reconstruct(residues, ms: ModulusSet) -> int:
    """The unique x with x = residues[i] (mod m_i) and -M/2 < x < M/2."""
    digits = mixed_radix_digits(residues, ms)
    x = 0
    scale = 1
    for d, m in zip(digits, ms.primes):
        x += d * scale
        scale *= m
    if 2 * x >= scale:
        x -= scale
    return x
