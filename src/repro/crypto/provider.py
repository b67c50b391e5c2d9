"""Crypto providers: real math vs. modeled placeholders.

The TLS stack is written against :class:`CryptoProvider`. Two
implementations exist:

:class:`RealCryptoProvider`
    Executes the from-scratch primitives in this package. Signatures
    verify, records decrypt — used by the test suite and the examples.

:class:`ModeledCryptoProvider`
    Produces deterministic, structurally-correct placeholder bytes so
    that large simulated workloads (100K+ handshakes) do not pay
    pure-Python bignum costs. Both sides of a connection derive the
    *same* secrets from the *same* wire bytes, so the protocol state
    machines run unchanged. Its (EC)DHE stand-in hashes: a public
    value is a hash of the share's secret, and a shared secret is a
    hash of the two public values (see the class docstring).

Crucially, **simulated durations do not come from providers** — they
come from the cost model — so switching provider never changes the
performance results, only the wall-clock cost of running them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..sim.rng import Stream
from . import ecdh, ecdsa, rsa
from .bigint import i2osp, os2ip
from .ec import EcError, get_curve
from .hkdf import hkdf_expand_label, hkdf_extract
from .prf import prf as _prf

__all__ = ["KeyShare", "ServerCredentials", "CryptoProvider",
           "RealCryptoProvider", "ModeledCryptoProvider", "VerifyError"]


class VerifyError(ValueError):
    """Raised when a signature or MAC check fails."""


@dataclass(frozen=True)
class KeyShare:
    """An (EC)DHE key share: opaque private handle + wire encoding."""

    curve: str
    private: object
    public_bytes: bytes


@dataclass(frozen=True)
class ServerCredentials:
    """Server authentication material.

    ``kind`` is ``"rsa"`` or ``"ecdsa"``; ``public_bytes`` is what gets
    shipped in the Certificate message and is all a client needs to
    verify signatures from this server.
    """

    kind: str
    key_id: str
    private: object
    public_bytes: bytes
    rsa_bits: Optional[int] = None
    curve: Optional[str] = None

    @property
    def sig_curve(self) -> Optional[str]:
        return self.curve if self.kind == "ecdsa" else None


def _field_len(curve_name: str) -> int:
    return (get_curve(curve_name).field_bits + 7) // 8


def _order_len(curve_name: str) -> int:
    return (get_curve(curve_name).n.bit_length() + 7) // 8


class CryptoProvider:
    """Abstract provider interface (see module docstring)."""

    name = "abstract"

    # -- server credentials --------------------------------------------

    def make_rsa_credentials(self, bits: int, rng: Stream,
                             key_id: str = "server-rsa") -> ServerCredentials:
        raise NotImplementedError

    def make_ecdsa_credentials(self, curve: str, rng: Stream,
                               key_id: str = "server-ec") -> ServerCredentials:
        raise NotImplementedError

    # -- asymmetric ------------------------------------------------------

    def rsa_encrypt(self, server_public: bytes, message: bytes,
                    rng: Stream) -> bytes:
        raise NotImplementedError

    def rsa_decrypt(self, cred: ServerCredentials, ciphertext: bytes,
                    expected_len: int) -> bytes:
        raise NotImplementedError

    def sign(self, cred: ServerCredentials, message: bytes) -> bytes:
        raise NotImplementedError

    def verify(self, kind: str, server_public: bytes, message: bytes,
               signature: bytes, curve: Optional[str] = None) -> bool:
        raise NotImplementedError

    def ecdh_keygen(self, curve: str, rng: Stream) -> KeyShare:
        raise NotImplementedError

    def ecdh_shared(self, share: KeyShare, peer_public: bytes) -> bytes:
        raise NotImplementedError

    # -- key derivation ---------------------------------------------------
    # PRF/HKDF math is cheap even in pure Python, so both providers use
    # the real implementations (their simulated cost is charged by the
    # engine layer regardless).

    def prf(self, secret: bytes, label: bytes, seed: bytes,
            length: int) -> bytes:
        return _prf(secret, label, seed, length)

    def hkdf_extract(self, salt: bytes, ikm: bytes) -> bytes:
        return hkdf_extract(salt, ikm)

    def hkdf_expand_label(self, secret: bytes, label: bytes, context: bytes,
                          length: int) -> bytes:
        return hkdf_expand_label(secret, label, context, length)

    # -- record protection --------------------------------------------------

    def encrypt_record_cbc_hmac(self, enc_key: bytes, mac_key: bytes,
                                seq: int, content_type: int, version: int,
                                payload: bytes, iv: bytes) -> bytes:
        raise NotImplementedError

    def decrypt_record_cbc_hmac(self, enc_key: bytes, mac_key: bytes,
                                seq: int, content_type: int, version: int,
                                fragment: bytes) -> bytes:
        raise NotImplementedError

    # TLS 1.3 AEAD records (AES-128-GCM, RFC 8446 section 5.2/5.3).

    def encrypt_record_aead(self, enc_key: bytes, iv: bytes, seq: int,
                            content_type: int, payload: bytes) -> bytes:
        raise NotImplementedError

    def decrypt_record_aead(self, enc_key: bytes, iv: bytes, seq: int,
                            content_type: int, fragment: bytes) -> bytes:
        raise NotImplementedError

    @staticmethod
    def aead_nonce(iv: bytes, seq: int) -> bytes:
        """RFC 8446: per-record nonce = static IV XOR padded sequence."""
        seq_bytes = seq.to_bytes(len(iv), "big")
        return bytes(a ^ b for a, b in zip(iv, seq_bytes))


# ---------------------------------------------------------------------------


class RealCryptoProvider(CryptoProvider):
    """Executes the actual from-scratch primitives."""

    name = "real"

    # -- credentials --------------------------------------------------------

    def make_rsa_credentials(self, bits: int, rng: Stream,
                             key_id: str = "server-rsa") -> ServerCredentials:
        key = rsa.generate_keypair(bits, rng)
        size = key.size
        pub = i2osp(key.n, size) + i2osp(key.e, 4)
        return ServerCredentials("rsa", key_id, key, pub, rsa_bits=bits)

    def make_ecdsa_credentials(self, curve: str, rng: Stream,
                               key_id: str = "server-ec") -> ServerCredentials:
        c = get_curve(curve)
        key = ecdsa.generate_keypair(c, rng)
        pub = ecdh.encode_point(c, key.public)
        return ServerCredentials("ecdsa", key_id, key, pub, curve=curve)

    # -- asymmetric ------------------------------------------------------

    @staticmethod
    def _parse_rsa_public(blob: bytes) -> rsa.RsaPublicKey:
        n = os2ip(blob[:-4])
        e = os2ip(blob[-4:])
        return rsa.RsaPublicKey(n, e)

    def rsa_encrypt(self, server_public: bytes, message: bytes,
                    rng: Stream) -> bytes:
        return rsa.encrypt_pkcs1v15(self._parse_rsa_public(server_public),
                                    message, rng)

    def rsa_decrypt(self, cred: ServerCredentials, ciphertext: bytes,
                    expected_len: int) -> bytes:
        return rsa.decrypt_pkcs1v15(cred.private, ciphertext, expected_len)

    def sign(self, cred: ServerCredentials, message: bytes) -> bytes:
        if cred.kind == "rsa":
            return rsa.sign_pkcs1v15(cred.private, message)
        c = get_curve(cred.curve)
        r, s = ecdsa.sign(cred.private, message)
        olen = _order_len(cred.curve)
        return i2osp(r, olen) + i2osp(s, olen)

    def verify(self, kind: str, server_public: bytes, message: bytes,
               signature: bytes, curve: Optional[str] = None) -> bool:
        if kind == "rsa":
            return rsa.verify_pkcs1v15(self._parse_rsa_public(server_public),
                                       message, signature)
        c = get_curve(curve)
        olen = _order_len(curve)
        if len(signature) != 2 * olen:
            return False
        r, s = os2ip(signature[:olen]), os2ip(signature[olen:])
        try:
            pub = ecdh.decode_point(c, server_public)
        except Exception:
            return False
        return ecdsa.verify(c, pub, message, (r, s))

    def ecdh_keygen(self, curve: str, rng: Stream) -> KeyShare:
        c = get_curve(curve)
        pair = ecdh.generate_keypair(c, rng)
        return KeyShare(curve, pair.d, ecdh.encode_point(c, pair.public))

    def ecdh_shared(self, share: KeyShare, peer_public: bytes) -> bytes:
        c = get_curve(share.curve)
        peer = ecdh.decode_point(c, peer_public)
        return ecdh.shared_secret(c, share.private, peer)

    # -- record protection (MAC-then-encrypt, RFC 5246 6.2.3.2) -----------

    @staticmethod
    def _record_mac(mac_key: bytes, seq: int, content_type: int,
                    version: int, payload: bytes) -> bytes:
        from .hmac_impl import hmac_digest
        header = (seq.to_bytes(8, "big") + bytes([content_type])
                  + version.to_bytes(2, "big")
                  + len(payload).to_bytes(2, "big"))
        return hmac_digest(mac_key, header + payload, "sha1")

    def encrypt_record_cbc_hmac(self, enc_key: bytes, mac_key: bytes,
                                seq: int, content_type: int, version: int,
                                payload: bytes, iv: bytes) -> bytes:
        from .modes import cbc_encrypt, pkcs7_pad
        mac = self._record_mac(mac_key, seq, content_type, version, payload)
        plaintext = pkcs7_pad(payload + mac)
        # Explicit IV convention: IV is prepended to the ciphertext.
        return iv + cbc_encrypt(enc_key, iv, plaintext)

    def decrypt_record_cbc_hmac(self, enc_key: bytes, mac_key: bytes,
                                seq: int, content_type: int, version: int,
                                fragment: bytes) -> bytes:
        from .modes import PaddingError, cbc_decrypt, pkcs7_unpad
        if len(fragment) < 32:
            raise VerifyError("record too short")
        iv, ct = fragment[:16], fragment[16:]
        try:
            padded = cbc_decrypt(enc_key, iv, ct)
            plaintext = pkcs7_unpad(padded)
        except (PaddingError, ValueError) as e:
            raise VerifyError(f"bad record: {e}") from None
        if len(plaintext) < 20:
            raise VerifyError("record shorter than its MAC")
        payload, mac = plaintext[:-20], plaintext[-20:]
        expect = self._record_mac(mac_key, seq, content_type, version, payload)
        if mac != expect:
            raise VerifyError("record MAC mismatch")
        return payload


    # -- TLS 1.3 AEAD records ----------------------------------------------

    def encrypt_record_aead(self, enc_key: bytes, iv: bytes, seq: int,
                            content_type: int, payload: bytes) -> bytes:
        from .gcm import AesGcm
        nonce = self.aead_nonce(iv[:12], seq)
        inner = payload + bytes([content_type])
        aad = b"\x17\x03\x03" + (len(inner) + 16).to_bytes(2, "big")
        return AesGcm(enc_key).seal(nonce, inner, aad)

    def decrypt_record_aead(self, enc_key: bytes, iv: bytes, seq: int,
                            content_type: int, fragment: bytes) -> bytes:
        from .gcm import AesGcm, GcmAuthError
        nonce = self.aead_nonce(iv[:12], seq)
        aad = b"\x17\x03\x03" + len(fragment).to_bytes(2, "big")
        try:
            inner = AesGcm(enc_key).open(nonce, fragment, aad)
        except GcmAuthError as e:
            raise VerifyError(str(e)) from None
        if not inner or inner[-1] != content_type:
            raise VerifyError("inner content type mismatch")
        return inner[:-1]


# ---------------------------------------------------------------------------


def _h(*parts: bytes) -> bytes:
    ctx = hashlib.sha256()
    for p in parts:
        ctx.update(len(p).to_bytes(4, "big"))
        ctx.update(p)
    return ctx.digest()


def _stretch(seed: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:length])


class ModeledCryptoProvider(CryptoProvider):
    """Deterministic placeholder crypto with correct wire shapes.

    Secrets are derived with SHA-256 from the bytes both sides can see,
    so key agreement "works"; signatures are keyed hashes that verify
    only against the matching public blob. This keeps protocol logic,
    message sizes and failure paths identical to the real provider at a
    tiny fraction of the compute.

    Key agreement hashes what is on the wire. With ``flen`` the
    curve's field length in bytes, a share's public value is ``0x04``
    followed by ``2 * flen`` bytes stretched from a hash of its 32-byte
    secret (the real encoding's length), and the shared secret is
    ``flen`` bytes stretched from a hash of the own and the peer public
    value in sorted order. Both sides agree exactly when each received
    the other's public value untampered. A peer value with the wrong
    length or a prefix other than ``0x04`` fails as in the real
    provider.
    """

    name = "modeled"

    # -- credentials --------------------------------------------------------

    def make_rsa_credentials(self, bits: int, rng: Stream,
                             key_id: str = "server-rsa") -> ServerCredentials:
        secret = rng.bytes(32)
        pub = _h(b"rsa-pub", key_id.encode(), secret)
        pub = _stretch(pub, bits // 8 + 4)
        return ServerCredentials("rsa", key_id, secret, pub, rsa_bits=bits)

    def make_ecdsa_credentials(self, curve: str, rng: Stream,
                               key_id: str = "server-ec") -> ServerCredentials:
        secret = rng.bytes(32)
        pub = _stretch(_h(b"ec-pub", key_id.encode(), secret),
                       1 + 2 * _field_len(curve))
        return ServerCredentials("ecdsa", key_id, secret, pub, curve=curve)

    # -- asymmetric ------------------------------------------------------

    def rsa_encrypt(self, server_public: bytes, message: bytes,
                    rng: Stream) -> bytes:
        # Ciphertext = recoverable container bound to the public key.
        # Width matches the modulus size (public blob minus the 4-byte e).
        k = len(server_public) - 4
        body = _h(b"rsa-ct", server_public) + len(message).to_bytes(2, "big") \
            + message
        return body + _stretch(_h(b"pad", body), k - len(body))

    def rsa_decrypt(self, cred: ServerCredentials, ciphertext: bytes,
                    expected_len: int) -> bytes:
        tag = _h(b"rsa-ct", cred.public_bytes)
        if ciphertext[:32] != tag:
            raise rsa.RsaError("decryption error")
        mlen = int.from_bytes(ciphertext[32:34], "big")
        if mlen != expected_len:
            raise rsa.RsaError("decryption error")
        return ciphertext[34:34 + mlen]

    def sign(self, cred: ServerCredentials, message: bytes) -> bytes:
        if cred.kind == "rsa":
            width = (cred.rsa_bits or 2048) // 8
        else:
            width = 2 * _order_len(cred.curve)
        return _stretch(_h(b"sig", cred.public_bytes, message), width)

    def verify(self, kind: str, server_public: bytes, message: bytes,
               signature: bytes, curve: Optional[str] = None) -> bool:
        return signature == _stretch(_h(b"sig", server_public, message),
                                     len(signature))

    def ecdh_keygen(self, curve: str, rng: Stream) -> KeyShare:
        secret = rng.bytes(32)
        pub = b"\x04" + _stretch(_h(b"dh-pub", curve.encode(), secret),
                                 2 * _field_len(curve))
        return KeyShare(curve, secret, pub)

    def ecdh_shared(self, share: KeyShare, peer_public: bytes) -> bytes:
        flen = _field_len(share.curve)
        if len(peer_public) != 1 + 2 * flen or peer_public[0] != 4:
            raise EcError("malformed uncompressed point")
        lo, hi = sorted((share.public_bytes, peer_public))
        return _stretch(_h(b"dh-ss", lo, hi), flen)

    # -- record protection ---------------------------------------------------

    def encrypt_record_cbc_hmac(self, enc_key: bytes, mac_key: bytes,
                                seq: int, content_type: int, version: int,
                                payload: bytes, iv: bytes) -> bytes:
        # Same length arithmetic as real CBC/HMAC-SHA1: IV + pad(payload+20).
        padded_len = (len(payload) + 20) + 16 - ((len(payload) + 20) % 16)
        tag = _h(b"rec", enc_key, mac_key, seq.to_bytes(8, "big"),
                 bytes([content_type]), payload)[:16]
        body = len(payload).to_bytes(3, "big") + payload + tag
        assert len(body) <= padded_len
        return iv + body + _stretch(_h(b"rp", tag), padded_len - len(body))

    def decrypt_record_cbc_hmac(self, enc_key: bytes, mac_key: bytes,
                                seq: int, content_type: int, version: int,
                                fragment: bytes) -> bytes:
        if len(fragment) < 32:
            raise VerifyError("record too short")
        body = fragment[16:]
        plen = int.from_bytes(body[:3], "big")
        payload = body[3:3 + plen]
        tag = _h(b"rec", enc_key, mac_key, seq.to_bytes(8, "big"),
                 bytes([content_type]), payload)[:16]
        if body[3 + plen:3 + plen + 16] != tag:
            raise VerifyError("record MAC mismatch")
        # Any flipped bit outside the payload/tag lands in the filler,
        # which is deterministic from the tag — verify it too so the
        # modeled provider detects tampering anywhere in the record.
        fill = _stretch(_h(b"rp", tag), len(body) - (3 + plen + 16))
        if body[3 + plen + 16:] != fill:
            raise VerifyError("record MAC mismatch")
        return payload


    # -- TLS 1.3 AEAD records (same wire arithmetic as GCM) -----------------

    def encrypt_record_aead(self, enc_key: bytes, iv: bytes, seq: int,
                            content_type: int, payload: bytes) -> bytes:
        tag = _h(b"aead", enc_key, iv, seq.to_bytes(8, "big"),
                 bytes([content_type]), payload)[:16]
        # Same wire arithmetic as GCM: payload || content_type || tag.
        # The payload length is implied by the fragment length.
        return payload + bytes([content_type]) + tag

    def decrypt_record_aead(self, enc_key: bytes, iv: bytes, seq: int,
                            content_type: int, fragment: bytes) -> bytes:
        if len(fragment) < 17:
            raise VerifyError("record too short")
        payload = fragment[:-17]
        if fragment[-17] != content_type:
            raise VerifyError("inner content type mismatch")
        tag = _h(b"aead", enc_key, iv, seq.to_bytes(8, "big"),
                 bytes([content_type]), payload)[:16]
        if fragment[-16:] != tag:
            raise VerifyError("record tag mismatch")
        return payload
