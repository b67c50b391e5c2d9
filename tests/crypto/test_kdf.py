"""HMAC / TLS 1.2 PRF / HKDF tests, cross-checked against independent
implementations built directly on the standard library."""

import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hkdf import hkdf_expand, hkdf_expand_label, hkdf_extract
from repro.crypto.hmac_impl import HmacKey, hmac_digest
from repro.crypto.prf import p_hash, prf


# -- HMAC -------------------------------------------------------------------

@given(st.binary(max_size=200), st.binary(max_size=200))
@settings(max_examples=50)
def test_hmac_matches_stdlib(key, msg):
    for h in ("sha1", "sha256", "sha384"):
        assert hmac_digest(key, msg, h) == \
            stdlib_hmac.new(key, msg, h).digest()


def test_hmac_long_key_hashed_first():
    key = b"k" * 200  # longer than the sha256 block size
    assert hmac_digest(key, b"m") == stdlib_hmac.new(key, b"m", "sha256").digest()


def test_hmac_context_reusable():
    ctx = HmacKey(b"key")
    for msg in (b"a", b"b", b"a", b""):
        assert ctx.digest(msg) == \
            stdlib_hmac.new(b"key", msg, "sha256").digest()


def test_hmac_rfc2202_vector():
    # RFC 2202 test case 1 for HMAC-SHA1.
    out = hmac_digest(b"\x0b" * 20, b"Hi There", "sha1")
    assert out.hex() == "b617318655057264e28bc0b6fb378c8ef146be00"


# -- TLS 1.2 PRF --------------------------------------------------------------

def _reference_p_hash(secret, seed, length, hash_name="sha256"):
    """Independent P_hash written directly on stdlib hmac."""
    out = b""
    a = seed
    while len(out) < length:
        a = stdlib_hmac.new(secret, a, hash_name).digest()
        out += stdlib_hmac.new(secret, a + seed, hash_name).digest()
    return out[:length]


@given(st.binary(min_size=1, max_size=48), st.binary(max_size=64),
       st.integers(1, 200))
@settings(max_examples=50)
def test_p_hash_matches_reference(secret, seed, length):
    assert p_hash(secret, seed, length) == \
        _reference_p_hash(secret, seed, length)


def test_prf_concatenates_label_and_seed():
    secret, label, seed = b"s" * 48, b"master secret", b"r" * 64
    assert prf(secret, label, seed, 48) == \
        _reference_p_hash(secret, label + seed, 48)


def test_prf_length_exact():
    for n in (1, 32, 33, 48, 100):
        assert len(prf(b"x", b"l", b"s", n)) == n


def test_prf_deterministic_and_sensitive():
    base = prf(b"secret", b"label", b"seed", 48)
    assert base == prf(b"secret", b"label", b"seed", 48)
    assert base != prf(b"secret2", b"label", b"seed", 48)
    assert base != prf(b"secret", b"label2", b"seed", 48)


# -- HKDF ----------------------------------------------------------------------

def test_hkdf_rfc5869_case1():
    """RFC 5869 appendix A.1 (SHA-256, basic)."""
    ikm = b"\x0b" * 22
    salt = bytes(range(13))
    info = bytes(range(0xF0, 0xFA))
    prk = hkdf_extract(salt, ikm)
    assert prk.hex() == ("077709362c2e32df0ddc3f0dc47bba63"
                         "90b6c73bb50f9c3122ec844ad7c2b3e5")
    okm = hkdf_expand(prk, info, 42)
    assert okm.hex() == ("3cb25f25faacd57a90434f64d0362f2a"
                         "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
                         "34007208d5b887185865")


def test_hkdf_extract_empty_salt_defaults_to_zeros():
    ikm = b"\x0b" * 22
    assert hkdf_extract(b"", ikm) == \
        stdlib_hmac.new(b"\x00" * 32, ikm, "sha256").digest()


def test_hkdf_expand_too_long_rejected():
    with pytest.raises(ValueError):
        hkdf_expand(b"\x00" * 32, b"", 255 * 32 + 1)


@given(st.binary(min_size=1, max_size=64), st.binary(max_size=32),
       st.integers(1, 128))
@settings(max_examples=50)
def test_hkdf_expand_matches_reference(prk, info, length):
    def ref(prk, info, length):
        out, t, i = b"", b"", 1
        while len(out) < length:
            t = stdlib_hmac.new(prk, t + info + bytes([i]), "sha256").digest()
            out += t
            i += 1
        return out[:length]

    assert hkdf_expand(prk, info, length) == ref(prk, info, length)


def test_hkdf_expand_label_structure():
    """RFC 8446: HkdfLabel = length || "tls13 "+label || context."""
    secret = b"\x01" * 32
    out = hkdf_expand_label(secret, b"key", b"ctx", 16)
    label = b"tls13 key"
    info = (16).to_bytes(2, "big") + bytes([len(label)]) + label \
        + bytes([3]) + b"ctx"
    assert out == hkdf_expand(secret, info, 16)
