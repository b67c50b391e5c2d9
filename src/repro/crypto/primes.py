"""Primality testing and prime generation for RSA key generation."""

from __future__ import annotations

from typing import Optional

from ..sim.rng import Stream

__all__ = ["is_prime", "generate_prime"]

# Small primes used for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
                 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173]

# Deterministic Miller-Rabin witness sets (Sinclair / Jaeschke bounds).
_DETERMINISTIC_SETS = [
    (341531, (9345883071009581737,)),
    (1050535501, (336781006125, 9639812373923155)),
    (3215031751, (2, 3, 5, 7)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
]


def _miller_rabin(n: int, witnesses) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int, rng: Optional[Stream] = None,
             rounds: int = 40) -> bool:
    """Primality test: deterministic below ~3.3e24, Miller-Rabin above.

    For large ``n`` the error probability is at most 4^-rounds.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for bound, witnesses in _DETERMINISTIC_SETS:
        if n < bound:
            return _miller_rabin(n, witnesses)
    if rng is None:
        rng = Stream(0xC0FFEE ^ (n & 0xFFFFFFFF))
    witnesses = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    extra = rounds - len(witnesses)
    if extra > 0:
        witnesses += [rng.integers(2, 1 << 62) for _ in range(extra)]
    return _miller_rabin(n, witnesses)


def generate_prime(bits: int, rng: Stream) -> int:
    """Generate a random prime with exactly ``bits`` bits.

    The two top bits are forced to 1 so that the product of two such
    primes has exactly ``2*bits`` bits (the PKCS#1 convention).
    """
    if bits < 8:
        raise ValueError("prime size too small")
    nbytes = (bits + 7) // 8
    while True:
        raw = int.from_bytes(rng.bytes(nbytes), "big")
        raw &= (1 << bits) - 1
        raw |= (1 << (bits - 1)) | (1 << (bits - 2))  # force top bits
        raw |= 1                                       # force odd
        # March forward over odd numbers; re-randomize after a long run
        # to keep the distribution reasonable.
        candidate = raw
        for _ in range(512):
            if is_prime(candidate, rng):
                if candidate.bit_length() == bits:
                    return candidate
                break
            candidate += 2
