"""Tests for primality testing and prime generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.primes import generate_prime, is_prime
from repro.sim.rng import Stream

KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, 2**31 - 1, 2**61 - 1,
                # A 256-bit prime (secp256k1 field prime)
                0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F]

KNOWN_COMPOSITES = [0, 1, 4, 9, 561, 41041,  # Carmichael numbers included
                    6601, 2**32 - 1, (2**61 - 1) * (2**31 - 1)]


@pytest.mark.parametrize("p", KNOWN_PRIMES)
def test_known_primes(p):
    assert is_prime(p)


@pytest.mark.parametrize("c", KNOWN_COMPOSITES)
def test_known_composites(c):
    assert not is_prime(c)


def test_carmichael_numbers_rejected():
    # Classic Fermat-test foolers.
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
        assert not is_prime(n)


@given(st.integers(2, 10**6))
@settings(max_examples=200)
def test_matches_trial_division(n):
    def trial(n):
        if n < 2:
            return False
        i = 2
        while i * i <= n:
            if n % i == 0:
                return False
            i += 1
        return True

    assert is_prime(n) == trial(n)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_generate_prime_size_and_primality(bits):
    rng = Stream(7)
    p = generate_prime(bits, rng)
    assert p.bit_length() == bits
    assert is_prime(p)
    assert p % 2 == 1


def test_generate_prime_distinct_draws():
    rng = Stream(7)
    assert generate_prime(128, rng) != generate_prime(128, rng)


def test_generate_prime_deterministic_per_seed():
    a = generate_prime(128, Stream(5))
    b = generate_prime(128, Stream(5))
    assert a == b


def test_generate_prime_too_small():
    with pytest.raises(ValueError):
        generate_prime(4, Stream(0))
