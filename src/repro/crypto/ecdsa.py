"""ECDSA signatures with deterministic nonces (RFC 6979).

Deterministic nonce generation keeps the whole simulation reproducible
while remaining a real, verifiable ECDSA (cross-checked against the
``cryptography``/OpenSSL oracle in the test suite).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from dataclasses import dataclass
from typing import Tuple

from ..sim.rng import Stream
from .bigint import modinv
from .ec import Curve, EcError, Point

__all__ = ["EcdsaKeyPair", "generate_keypair", "sign", "verify"]


@dataclass(frozen=True)
class EcdsaKeyPair:
    """An EC private scalar and its public point."""

    curve: Curve
    d: int
    public: Point


def generate_keypair(curve: Curve, rng: Stream) -> EcdsaKeyPair:
    """Generate a random keypair on ``curve``."""
    nbytes = (curve.n.bit_length() + 7) // 8
    while True:
        d = int.from_bytes(rng.bytes(nbytes), "big") % curve.n
        if d != 0:
            break
    return EcdsaKeyPair(curve, d, curve.base_mult(d))


# -- RFC 6979 helpers -----------------------------------------------------


def _bits2int(data: bytes, qlen: int) -> int:
    x = int.from_bytes(data, "big")
    blen = len(data) * 8
    if blen > qlen:
        x >>= blen - qlen
    return x


def _int2octets(x: int, rlen: int) -> bytes:
    return x.to_bytes(rlen, "big")


def _bits2octets(data: bytes, q: int, qlen: int, rlen: int) -> bytes:
    z1 = _bits2int(data, qlen)
    z2 = z1 - q
    if z2 < 0:
        z2 = z1
    return _int2octets(z2, rlen)


def _rfc6979_k(d: int, h1: bytes, q: int, hash_name: str):
    """Yield candidate nonces per RFC 6979 section 3.2."""
    qlen = q.bit_length()
    rlen = (qlen + 7) // 8
    hsize = hashlib.new(hash_name).digest_size
    V = b"\x01" * hsize
    K = b"\x00" * hsize
    seed = _int2octets(d, rlen) + _bits2octets(h1, q, qlen, rlen)
    K = _hmac.new(K, V + b"\x00" + seed, hash_name).digest()
    V = _hmac.new(K, V, hash_name).digest()
    K = _hmac.new(K, V + b"\x01" + seed, hash_name).digest()
    V = _hmac.new(K, V, hash_name).digest()
    while True:
        t = b""
        while len(t) * 8 < qlen:
            V = _hmac.new(K, V, hash_name).digest()
            t += V
        k = _bits2int(t, qlen)
        if 1 <= k < q:
            yield k
        K = _hmac.new(K, V + b"\x00", hash_name).digest()
        V = _hmac.new(K, V, hash_name).digest()


# -- sign / verify --------------------------------------------------------


def sign(key: EcdsaKeyPair, message: bytes,
         hash_name: str = "sha256") -> Tuple[int, int]:
    """Sign ``message``; returns ``(r, s)``."""
    curve, q = key.curve, key.curve.n
    h1 = hashlib.new(hash_name, message).digest()
    z = _bits2int(h1, q.bit_length()) % q
    for k in _rfc6979_k(key.d, h1, q, hash_name):
        p = curve.base_mult(k)
        r = p.x % q
        if r == 0:
            continue
        s = (modinv(k, q) * (z + r * key.d)) % q
        if s == 0:
            continue
        return r, s
    raise EcError("nonce generation failed")  # pragma: no cover


def verify(curve: Curve, public: Point, message: bytes,
           signature: Tuple[int, int], hash_name: str = "sha256") -> bool:
    """Verify an ECDSA signature; returns True/False."""
    r, s = signature
    q = curve.n
    if not (1 <= r < q and 1 <= s < q):
        return False
    try:
        curve.validate_point(public)
    except EcError:
        return False
    h1 = hashlib.new(hash_name, message).digest()
    z = _bits2int(h1, q.bit_length()) % q
    w = modinv(s, q)
    u1 = (z * w) % q
    u2 = (r * w) % q
    p = curve.add(curve.base_mult(u1), curve.scalar_mult(u2, public))
    if p.is_infinity:
        return False
    return p.x % q == r
