"""AES-GCM tests: NIST vectors, oracle cross-check, properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.gcm import AesGcm, GcmAuthError
from repro.sim.rng import Stream

try:
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    HAVE_ORACLE = True
except ImportError:  # pragma: no cover
    HAVE_ORACLE = False

oracle = pytest.mark.skipif(not HAVE_ORACLE,
                            reason="cryptography package unavailable")


def test_nist_test_case_1():
    """SP 800-38D validation vector: zero key, zero nonce, empty input."""
    gcm = AesGcm(b"\x00" * 16)
    sealed = gcm.seal(b"\x00" * 12, b"")
    assert sealed.hex() == "58e2fccefa7e3061367f1d57a4e7455a"


def test_nist_test_case_2():
    """Zero key/nonce, one zero block of plaintext."""
    gcm = AesGcm(b"\x00" * 16)
    sealed = gcm.seal(b"\x00" * 12, b"\x00" * 16)
    assert sealed[:16].hex() == "0388dace60b6a392f328c2b971b2fe78"
    assert sealed[16:].hex() == "ab6e47d42cec13bdf53a67b21257bddf"


def test_roundtrip_with_aad():
    gcm = AesGcm(b"k" * 16)
    sealed = gcm.seal(b"n" * 12, b"payload", aad=b"header")
    assert gcm.open(b"n" * 12, sealed, aad=b"header") == b"payload"


def test_tampered_ciphertext_rejected():
    gcm = AesGcm(b"k" * 16)
    sealed = bytearray(gcm.seal(b"n" * 12, b"payload"))
    sealed[0] ^= 1
    with pytest.raises(GcmAuthError):
        gcm.open(b"n" * 12, bytes(sealed))


def test_wrong_aad_rejected():
    gcm = AesGcm(b"k" * 16)
    sealed = gcm.seal(b"n" * 12, b"payload", aad=b"a")
    with pytest.raises(GcmAuthError):
        gcm.open(b"n" * 12, sealed, aad=b"b")


def test_wrong_nonce_rejected():
    gcm = AesGcm(b"k" * 16)
    sealed = gcm.seal(b"n" * 12, b"payload")
    with pytest.raises(GcmAuthError):
        gcm.open(b"m" * 12, sealed)


def test_nonce_length_enforced():
    gcm = AesGcm(b"k" * 16)
    with pytest.raises(ValueError):
        gcm.seal(b"short", b"x")
    with pytest.raises(GcmAuthError):
        gcm.open(b"n" * 12, b"tiny")


@given(st.binary(max_size=100), st.binary(max_size=40))
@settings(max_examples=25)
def test_roundtrip_property(plaintext, aad):
    gcm = AesGcm(b"\x07" * 16)
    sealed = gcm.seal(b"\x01" * 12, plaintext, aad)
    assert gcm.open(b"\x01" * 12, sealed, aad) == plaintext
    assert len(sealed) == len(plaintext) + 16


@oracle
def test_matches_openssl():
    rng = Stream(17)
    for _ in range(5):
        key, nonce = rng.bytes(16), rng.bytes(12)
        pt, aad = rng.bytes(50), rng.bytes(13)
        ours = AesGcm(key).seal(nonce, pt, aad)
        theirs = AESGCM(key).encrypt(nonce, pt, aad)
        assert ours == theirs
