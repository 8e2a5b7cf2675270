import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpow.recurrence import _primes_for
from ctpow.rns import (ModulusSet, _is_prime, mixed_radix_digits,
                       reconstruct, reduce_int, root_of_unity, select_primes)

sympy = pytest.importorskip("sympy")


@given(st.integers(1, 40), st.integers(1, 400), st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_primes_for_is_the_shortest_prefix_of_the_scan(w, M, p):
    # |a| <= w^p for every coefficient of h^p, and balanced reconstruction
    # needs a product above 2 w^p: the first k - 1 primes fall short
    ps = _primes_for(w, M, p).primes
    assert math.prod(ps) > 2 * w ** p >= math.prod(ps[:-1])
    # the primes q = 1 (mod M) below 2**31 and above 2p, downward
    top = (1 << 31) - 1 - ((1 << 31) - 2) % M
    scan = (q for q in range(top, 2 * p, -M) if sympy.isprime(q))
    assert ps == tuple(itertools.islice(scan, len(ps)))


def test_prime_budget_pinned():
    # a_34 of sample 39 (weight 23, M = 35): 2 * 23^34 = 2^154.80 and five
    # primes give 2^155.00, where asking for 2^(ceil(log2 23^34) + 2)
    # took six; coeff39 (M = 41, p = 40) and the walk keep 6 and 17.  At
    # w^p = 2^30 and 3^39 the products of one and two primes lie in
    # (w^p, 2 w^p]: not enough for the balanced range
    ps = _primes_for(23, 35, 34)
    assert len(ps.primes) == 5
    assert f"{math.log2(2 * 23 ** 34):.2f} {math.log2(ps.product):.2f}" \
        == "154.80 155.00"
    old = select_primes(1 << (23 ** 34 - 1).bit_length() + 1, 68,
                        congruent_to_1_mod=35)
    assert old.primes[:5] == ps.primes and len(old.primes) == 6
    assert len(_primes_for(23, 41, 40).primes) == 6
    assert len(_primes_for(4, 258, 256).primes) == 17
    assert len(_primes_for(2, 1, 30).primes) == 2
    assert len(_primes_for(3, 1, 39).primes) == 3


def test_select_primes_properties():
    ms = select_primes(1 << 199)
    assert ms.product > 1 << 200
    assert list(ms.primes) == sorted(set(ms.primes), reverse=True)
    for q in ms.primes:
        assert q < 1 << 31
        assert sympy.isprime(q)


def test_select_primes_respects_floor_and_width():
    ms = select_primes(1 << 59, min_exclusive=1000, max_bits=21)
    assert all(1000 < q < 1 << 21 for q in ms.primes)
    with pytest.raises(ValueError):
        select_primes(1 << 9, max_bits=19)
    with pytest.raises(ValueError):
        select_primes(1 << 9, max_bits=32)


def test_modulus_set_rejects_bad_input():
    with pytest.raises(ValueError):
        ModulusSet((4, 7))          # composite
    with pytest.raises(ValueError):
        ModulusSet((7, 7))          # repeated
    with pytest.raises(ValueError):
        ModulusSet(())


def test_balanced_reconstruction_small_example():
    ms = ModulusSet((3, 5))
    assert reconstruct((2, 3), ms) == -7
    assert mixed_radix_digits((2, 3), ms) == [2, 2]
    assert reconstruct((1, 1), ms) == 1
    assert reconstruct((2, 4), ms) == -1


def test_balanced_range_extremes():
    ms = ModulusSet((3, 5, 7))     # M = 105, balanced range [-52, 52]
    for x in (-52, -1, 0, 1, 52):
        assert reconstruct(reduce_int(x, ms), ms) == x
    # wrap-around: M - 52 = 53 is congruent to -52
    assert reconstruct(reduce_int(53, ms), ms) == -52


@given(st.integers(3, 12), st.integers())
@settings(max_examples=120)
def test_roundtrip_random(width_seed, x):
    ms = select_primes(1 << 30 * width_seed - 1)
    half = ms.product // 2
    x = x % (2 * half + 1) - half
    assert reconstruct(reduce_int(x, ms), ms) == x


def test_mixed_radix_digit_ranges():
    ms = select_primes(1 << 119)
    rng = random.Random(5)
    for _ in range(50):
        x = rng.randrange(ms.product)
        digits = mixed_radix_digits(reduce_int(x, ms), ms)
        assert len(digits) == len(ms.primes)
        for d, q in zip(digits, ms.primes):
            assert 0 <= d < q
        # positional expansion reproduces x
        total, scale = 0, 1
        for d, q in zip(digits, ms.primes):
            total += d * scale
            scale *= q
        assert total == x


def _pairwise_digits(v, ms):
    # strip digit j, then divide by m_j: one inverse per pair of primes
    digits = []
    for i, (x, mi) in enumerate(zip(v, ms.primes)):
        t = x % mi
        for j in range(i):
            t = (t - digits[j]) * pow(ms.primes[j], -1, mi) % mi
        digits.append(t)
    return digits


@pytest.mark.parametrize("count", [1, 2, 17, 65])
def test_mixed_radix_digits_against_pairwise_inverses(count):
    ms = select_primes(max(1, 1 << 31 * count - 31 >> 1))
    assert len(ms.primes) == count
    rng = random.Random(count)
    for x in [0, 1, ms.product - 1] + [rng.randrange(ms.product)
                                       for _ in range(30)]:
        v = reduce_int(x, ms)
        assert mixed_radix_digits(v, ms) == _pairwise_digits(v, ms)
    # residues that are not reduced
    v = tuple(q + 5 for q in ms.primes)
    assert mixed_radix_digits(v, ms) == _pairwise_digits(v, ms)


def test_reconstruct_against_direct_crt():
    ms = select_primes(1 << 149)
    rng = random.Random(11)
    for _ in range(40):
        x = rng.randrange(ms.product)
        v = reduce_int(x, ms)
        recovered = reconstruct(v, ms)
        assert recovered % ms.product == x % ms.product
        crt_value, crt_mod = sympy.ntheory.modular.crt(
            list(ms.primes), list(v))
        assert crt_mod == ms.product
        assert recovered % crt_mod == crt_value


def test_residue_count_must_match():
    ms = ModulusSet((3, 5))
    with pytest.raises(ValueError):
        reconstruct((1,), ms)


def test_select_primes_avoid_small_node_collisions():
    # engine asks for primes above the node count; the floor must be exclusive
    ms = select_primes(1 << 39, min_exclusive=302)
    assert min(ms.primes) > 302
    assert math.gcd(ms.product, math.prod(range(1, 303))) in (1, *ms.primes)


@pytest.mark.parametrize("M", [1, 2, 41, 151, 263, 360])
def test_select_primes_congruent_to_one(M):
    ms = select_primes(1 << 699, min_exclusive=150, congruent_to_1_mod=M)
    assert ms.product > 1 << 700
    for q in ms.primes:
        assert q % M == 1 % M
        assert 150 < q < 1 << 31
        assert sympy.isprime(q)
    # deterministic: the same request gives the same primes
    assert select_primes(1 << 699, 150, congruent_to_1_mod=M) == ms


def test_select_primes_congruence_window_exhausted():
    # only 2**30 + 1 and 1 are candidates below 2**31; neither is prime
    with pytest.raises(ValueError, match="exhausted"):
        select_primes(1 << 39, congruent_to_1_mod=1 << 30)
    with pytest.raises(ValueError):
        select_primes(1 << 39, congruent_to_1_mod=0)


def test_is_prime_against_a_sieve():
    # every n < 10**5: trial division, the short base set from 62 on, and
    # n = 61, which base 61 alone would call composite
    N = 10 ** 5
    sieve = bytearray([0, 0]) + bytearray([1]) * (N - 2)
    for i in range(2, math.isqrt(N) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, N, i)))
    assert [n for n in range(N) if _is_prime(n)] == \
        [n for n in range(N) if sieve[n]]


def test_is_prime_rejects_strong_pseudoprimes():
    # 48781 * 97561 passes bases 2, 7 and 61, so it needs the twelve bases;
    # 151 * 751 * 28351 passes 2, 3, 5 and 7 but not 61
    assert 4_759_123_141 == 48781 * 97561
    assert not _is_prime(4_759_123_141)
    assert not _is_prime(3_215_031_751)
    assert _is_prime(2 ** 31 - 1) and _is_prime(2 ** 61 - 1)


@pytest.mark.parametrize("bits,floor,M,count,first,last,total", [
    # the pipeline's budgets: sample 39 at p = 40, 80 and 150 (2 * 23^p is
    # just below 2^bits), the walk at p = 256 (2 * 4^256 = 2^513), and three
    # more: (primes, first, last and sum) as chosen by the twelve-base test
    (183, 80, 41, 6, 2147483323, 2147478731, 12884887310),
    (364, 160, 81, 12, 2147483179, 2147468923, 25769722980),
    (681, 300, 151, 22, 2147483647, 2147402711, 47243655714),
    (514, 512, 258, 17, 2147482867, 2147459131, 36507009047),
    (186, 80, 41, 7, 2147483323, 2147478649, 15032365959),
    (186, 80, 35, 7, 2147483171, 2147480651, 15032371977),
    (2000, 300, 151, 65, 2147483647, 2147257751, 139578626429),
])
def test_select_primes_pinned(bits, floor, M, count, first, last, total):
    ps = select_primes(1 << (bits - 1), floor, congruent_to_1_mod=M).primes
    assert (len(ps), ps[0], ps[-1], sum(ps)) == (count, first, last, total)


@pytest.mark.parametrize("M", [1, 2, 12, 41, 151, 360])
def test_root_of_unity_has_exact_order(M):
    for q in select_primes(1 << 99, congruent_to_1_mod=M).primes:
        w = root_of_unity(M, q)
        assert pow(w, M, q) == 1
        for d in range(1, M):
            if M % d == 0:
                assert pow(w, d, q) != 1, (M, q, d)
    with pytest.raises(ValueError):
        root_of_unity(4, 2 ** 31 - 1)  # 2**31 - 2 is not a multiple of 4
