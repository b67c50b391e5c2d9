"""RSA from scratch: key generation, raw CRT exponentiation, and the
PKCS#1 v1.5 paddings used by TLS (EMSA for signatures, EME for the
RSA-wrapped premaster secret).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..sim.rng import Stream
from .bigint import byte_length, crt_pair, i2osp, modinv, os2ip
from .primes import generate_prime

__all__ = ["RsaPublicKey", "RsaPrivateKey", "generate_keypair",
           "sign_pkcs1v15", "verify_pkcs1v15",
           "encrypt_pkcs1v15", "decrypt_pkcs1v15", "RsaError"]


class RsaError(ValueError):
    """Raised on malformed ciphertexts, signatures or keys."""


# DER DigestInfo prefixes for EMSA-PKCS1-v1_5 (RFC 8017 section 9.2).
_DIGEST_INFO = {
    "sha1": bytes.fromhex("3021300906052b0e03021a05000414"),
    "sha256": bytes.fromhex("3031300d060960864801650304020105000420"),
    "sha384": bytes.fromhex("3041300d060960864801650304020205000430"),
    "sha512": bytes.fromhex("3051300d060960864801650304020305000440"),
}


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def size(self) -> int:
        """Modulus length in octets."""
        return byte_length(self.n)

    def raw_encrypt(self, m: int) -> int:
        if not 0 <= m < self.n:
            raise RsaError("message representative out of range")
        return pow(m, self.e, self.n)


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT parameters."""

    n: int
    e: int
    d: int
    p: int
    q: int
    dp: int
    dq: int
    qinv: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def size(self) -> int:
        return byte_length(self.n)

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    def raw_decrypt(self, c: int) -> int:
        """Private-key operation via CRT (the expensive op QAT offloads)."""
        if not 0 <= c < self.n:
            raise RsaError("ciphertext representative out of range")
        mp = pow(c, self.dp, self.p)
        mq = pow(c, self.dq, self.q)
        return crt_pair(mp, mq, self.p, self.q, self.qinv) % self.n


def generate_keypair(bits: int, rng: Stream,
                     e: int = 65537) -> RsaPrivateKey:
    """Generate an RSA keypair with a modulus of exactly ``bits`` bits."""
    if bits < 128 or bits % 2:
        raise RsaError("modulus size must be an even number of bits >= 128")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        if p < q:
            p, q = q, p  # PKCS#1 convention: p > q so qinv = q^-1 mod p
        phi = (p - 1) * (q - 1)
        try:
            d = modinv(e, phi)
        except ValueError:
            continue  # gcd(e, phi) != 1; extremely rare, draw again
        n = p * q
        if n.bit_length() != bits:
            continue
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q,
                             dp=d % (p - 1), dq=d % (q - 1),
                             qinv=modinv(q, p))


# -- EMSA-PKCS1-v1_5 signatures ------------------------------------------


def _emsa_encode(message: bytes, em_len: int, hash_name: str) -> bytes:
    try:
        prefix = _DIGEST_INFO[hash_name]
    except KeyError:
        raise RsaError(f"unsupported hash {hash_name!r}") from None
    digest = hashlib.new(hash_name, message).digest()
    t = prefix + digest
    if em_len < len(t) + 11:
        raise RsaError("intended encoded message length too short")
    ps = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + ps + b"\x00" + t


def sign_pkcs1v15(key: RsaPrivateKey, message: bytes,
                  hash_name: str = "sha256") -> bytes:
    """RSASSA-PKCS1-v1_5 signature (the TLS server-auth operation)."""
    em = _emsa_encode(message, key.size, hash_name)
    return i2osp(key.raw_decrypt(os2ip(em)), key.size)


def verify_pkcs1v15(key: RsaPublicKey, message: bytes, signature: bytes,
                    hash_name: str = "sha256") -> bool:
    """Verify an RSASSA-PKCS1-v1_5 signature; returns True/False."""
    if len(signature) != key.size:
        return False
    try:
        em = i2osp(key.raw_encrypt(os2ip(signature)), key.size)
        expected = _emsa_encode(message, key.size, hash_name)
    except RsaError:
        return False
    return em == expected


# -- EME-PKCS1-v1_5 encryption (RSA-wrapped premaster secret) -------------


def encrypt_pkcs1v15(key: RsaPublicKey, message: bytes,
                     rng: Stream) -> bytes:
    """RSAES-PKCS1-v1_5 encryption, used by the client to wrap the
    48-byte premaster secret in the TLS-RSA key exchange."""
    k = key.size
    if len(message) > k - 11:
        raise RsaError("message too long")
    ps_len = k - len(message) - 3
    # Padding string must be non-zero octets.
    ps = bytes(int(b) % 255 + 1 for b in rng.bytes(ps_len))
    em = b"\x00\x02" + ps + b"\x00" + message
    return i2osp(key.raw_encrypt(os2ip(em)), k)


def decrypt_pkcs1v15(key: RsaPrivateKey, ciphertext: bytes,
                     expected_len: Optional[int] = None) -> bytes:
    """RSAES-PKCS1-v1_5 decryption (server side of TLS-RSA).

    ``expected_len`` enables the constant-shape check TLS uses against
    Bleichenbacher-style oracles: on any padding error a random-looking
    value of the expected length should be substituted by the caller.
    """
    k = key.size
    if len(ciphertext) != k:
        raise RsaError("ciphertext length mismatch")
    em = i2osp(key.raw_decrypt(os2ip(ciphertext)), k)
    if em[0] != 0 or em[1] != 2:
        raise RsaError("decryption error")
    try:
        sep = em.index(0, 2)
    except ValueError:
        raise RsaError("decryption error") from None
    if sep < 10:  # at least 8 padding octets
        raise RsaError("decryption error")
    msg = em[sep + 1:]
    if expected_len is not None and len(msg) != expected_len:
        raise RsaError("decryption error")
    return msg
