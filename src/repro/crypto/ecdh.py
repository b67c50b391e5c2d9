"""Ephemeral elliptic-curve Diffie-Hellman (the "E" in ECDHE)."""

from __future__ import annotations

from dataclasses import dataclass
from ..sim.rng import Stream
from .bigint import i2osp
from .ec import Curve, EcError, Point

__all__ = ["EcdhKeyPair", "generate_keypair", "shared_secret",
           "encode_point", "decode_point"]


@dataclass(frozen=True)
class EcdhKeyPair:
    curve: Curve
    d: int
    public: Point


def generate_keypair(curve: Curve, rng: Stream) -> EcdhKeyPair:
    nbytes = (curve.n.bit_length() + 7) // 8
    while True:
        d = int.from_bytes(rng.bytes(nbytes), "big") % curve.n
        if d != 0:
            break
    return EcdhKeyPair(curve, d, curve.base_mult(d))


def shared_secret(curve: Curve, private: int, peer_public: Point) -> bytes:
    """ECDH shared secret: the x-coordinate of ``d * Q_peer`` encoded
    as a fixed-width octet string (SEC 1 / RFC 8446 convention)."""
    curve.validate_point(peer_public)
    # Cofactor multiplication guards against small-subgroup points.
    p = curve.scalar_mult(private, peer_public)
    if curve.h != 1:
        check = p
        for _ in range(max(0, curve.h.bit_length() - 1)):
            check = curve.double(check)
        if check.is_infinity:
            raise EcError("peer point in small subgroup")
    if p.is_infinity:
        raise EcError("ECDH produced the point at infinity")
    flen = (curve.field_bits + 7) // 8
    return i2osp(p.x, flen)


def encode_point(curve: Curve, p: Point) -> bytes:
    """SEC 1 uncompressed point encoding: ``04 || X || Y``."""
    if p.is_infinity:
        raise EcError("cannot encode the point at infinity")
    flen = (curve.field_bits + 7) // 8
    return b"\x04" + i2osp(p.x, flen) + i2osp(p.y, flen)


def decode_point(curve: Curve, data: bytes) -> Point:
    """Decode and validate an uncompressed point."""
    flen = (curve.field_bits + 7) // 8
    if len(data) != 1 + 2 * flen or data[0] != 4:
        raise EcError("malformed uncompressed point")
    x = int.from_bytes(data[1:1 + flen], "big")
    y = int.from_bytes(data[1 + flen:], "big")
    p = Point(x, y)
    curve.validate_point(p)
    return p
