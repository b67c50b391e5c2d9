"""HMAC (RFC 2104) from scratch over the hashlib digest primitives.

The hash compression functions themselves come from ``hashlib`` — they
are CPU primitives in the real system too (SHA-NI); everything above
them (HMAC, PRF, HKDF, record MACs) is built here.
"""

from __future__ import annotations

import hashlib

__all__ = ["hmac_digest", "HmacKey"]

#: ``key.translate`` tables XOR-ing every byte with the RFC 2104 pads.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def hmac_digest(key: bytes, message: bytes, hash_name: str = "sha256") -> bytes:
    """One-shot HMAC."""
    return HmacKey(key, hash_name).digest(message)


class HmacKey:
    """Precomputed-pad HMAC context, reusable across messages: the
    padded key is absorbed once into an inner and an outer hash state,
    and each digest continues copies of them."""

    def __init__(self, key: bytes, hash_name: str = "sha256") -> None:
        self.hash_name = hash_name
        inner = hashlib.new(hash_name)
        block = inner.block_size
        if len(key) > block:
            key = hashlib.new(hash_name, key).digest()
        key = key.ljust(block, b"\x00")
        inner.update(key.translate(_IPAD))
        self._inner = inner
        self._outer = hashlib.new(hash_name, key.translate(_OPAD))
        self.digest_size = inner.digest_size

    def digest(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()
