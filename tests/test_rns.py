import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpow.rns import (ModulusSet, RnsValue, coefficient_bound_bits,
                       mixed_radix_digits, reconstruct, reduce_int,
                       root_of_unity, select_primes)

sympy = pytest.importorskip("sympy")


def test_bound_bits_examples():
    # |a| <= w^p, so w^p must fit with two spare bits
    assert coefficient_bound_bits(2, 3) == (2 ** 3 - 1).bit_length() + 2
    assert coefficient_bound_bits(23, 151) == 686
    assert coefficient_bound_bits(1, 100) == 2
    assert coefficient_bound_bits(5, 0) == 2


def test_bound_bits_monotonic_in_power():
    bits = [coefficient_bound_bits(7, p) for p in range(30)]
    assert bits == sorted(bits)


def test_select_primes_properties():
    ms = select_primes(200)
    assert ms.product > 1 << 200
    assert list(ms.primes) == sorted(set(ms.primes), reverse=True)
    for q in ms.primes:
        assert q < 1 << 31
        assert sympy.isprime(q)


def test_select_primes_respects_floor_and_width():
    ms = select_primes(60, min_exclusive=1000, max_bits=21)
    assert all(1000 < q < 1 << 21 for q in ms.primes)
    with pytest.raises(ValueError):
        select_primes(10, max_bits=19)
    with pytest.raises(ValueError):
        select_primes(10, max_bits=32)


def test_modulus_set_rejects_bad_input():
    with pytest.raises(ValueError):
        ModulusSet((4, 7))          # composite
    with pytest.raises(ValueError):
        ModulusSet((7, 7))          # repeated
    with pytest.raises(ValueError):
        ModulusSet(())


def test_balanced_reconstruction_small_example():
    ms = ModulusSet((3, 5))
    assert reconstruct(RnsValue((2, 3)), ms) == -7
    assert mixed_radix_digits(RnsValue((2, 3)), ms) == [2, 2]
    assert reconstruct(RnsValue((1, 1)), ms) == 1
    assert reconstruct(RnsValue((2, 4)), ms) == -1


def test_balanced_range_extremes():
    ms = ModulusSet((3, 5, 7))     # M = 105, balanced range [-52, 52]
    for x in (-52, -1, 0, 1, 52):
        assert reconstruct(reduce_int(x, ms), ms) == x
    # wrap-around: M - 52 = 53 is congruent to -52
    assert reconstruct(reduce_int(53, ms), ms) == -52


@given(st.integers(3, 12), st.integers())
@settings(max_examples=120)
def test_roundtrip_random(width_seed, x):
    ms = select_primes(30 * width_seed)
    half = ms.product // 2
    x = x % (2 * half + 1) - half
    assert reconstruct(reduce_int(x, ms), ms) == x


def test_mixed_radix_digit_ranges():
    ms = select_primes(120)
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


def test_reconstruct_against_direct_crt():
    ms = select_primes(150)
    rng = random.Random(11)
    for _ in range(40):
        x = rng.randrange(ms.product)
        v = reduce_int(x, ms)
        recovered = reconstruct(v, ms)
        assert recovered % ms.product == x % ms.product
        crt_value, crt_mod = sympy.ntheory.modular.crt(
            list(ms.primes), list(v.residues))
        assert crt_mod == ms.product
        assert recovered % crt_mod == crt_value


def test_residue_count_must_match():
    ms = ModulusSet((3, 5))
    with pytest.raises(ValueError):
        reconstruct(RnsValue((1,)), ms)


def test_select_primes_avoid_small_node_collisions():
    # engine asks for primes above the node count; the floor must be exclusive
    ms = select_primes(40, min_exclusive=302)
    assert min(ms.primes) > 302
    assert math.gcd(ms.product, math.prod(range(1, 303))) in (1, *ms.primes)


@pytest.mark.parametrize("M", [1, 2, 41, 151, 263, 360])
def test_select_primes_congruent_to_one(M):
    ms = select_primes(700, min_exclusive=150, congruent_to_1_mod=M)
    assert ms.product > 1 << 700
    for q in ms.primes:
        assert q % M == 1 % M
        assert 150 < q < 1 << 31
        assert sympy.isprime(q)
    # deterministic: the same request gives the same primes
    assert select_primes(700, 150, congruent_to_1_mod=M) == ms


def test_select_primes_congruence_window_exhausted():
    # only 2**30 + 1 and 1 are candidates below 2**31; neither is prime
    with pytest.raises(ValueError, match="exhausted"):
        select_primes(40, congruent_to_1_mod=1 << 30)
    with pytest.raises(ValueError):
        select_primes(40, congruent_to_1_mod=0)


@pytest.mark.parametrize("M", [1, 2, 12, 41, 151, 360])
def test_root_of_unity_has_exact_order(M):
    for q in select_primes(100, congruent_to_1_mod=M).primes:
        w = root_of_unity(M, q)
        assert pow(w, M, q) == 1
        for d in range(1, M):
            if M % d == 0:
                assert pow(w, d, q) != 1, (M, q, d)
    with pytest.raises(ValueError):
        root_of_unity(4, 2 ** 31 - 1)  # 2**31 - 2 is not a multiple of 4
