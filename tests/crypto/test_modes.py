"""CBC mode and PKCS#7 padding tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.modes import (PaddingError, cbc_decrypt, cbc_encrypt,
                                pkcs7_pad, pkcs7_unpad)
from repro.sim.rng import Stream

try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    HAVE_ORACLE = True
except ImportError:  # pragma: no cover
    HAVE_ORACLE = False

oracle = pytest.mark.skipif(not HAVE_ORACLE,
                            reason="cryptography package unavailable")

KEY = bytes(range(16))
IV = bytes(range(16, 32))


def test_pad_lengths():
    assert pkcs7_pad(b"") == b"\x10" * 16
    assert pkcs7_pad(b"a" * 15) == b"a" * 15 + b"\x01"
    assert pkcs7_pad(b"a" * 16)[-16:] == b"\x10" * 16


@given(st.binary(max_size=100))
def test_pad_unpad_roundtrip(data):
    padded = pkcs7_pad(data)
    assert len(padded) % 16 == 0
    assert pkcs7_unpad(padded) == data


def test_unpad_rejects_bad_length():
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"abc")


def test_unpad_rejects_inconsistent_bytes():
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"a" * 14 + b"\x03\x02")
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"a" * 15 + b"\x00")
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"a" * 15 + b"\x11")


@given(st.binary(max_size=64))
@settings(max_examples=20)
def test_cbc_roundtrip(data):
    padded = pkcs7_pad(data)
    ct = cbc_encrypt(KEY, IV, padded)
    assert len(ct) == len(padded)
    assert pkcs7_unpad(cbc_decrypt(KEY, IV, ct)) == data


def test_cbc_chaining_differs_per_block():
    pt = b"\x00" * 32  # two identical blocks
    ct = cbc_encrypt(KEY, IV, pt)
    assert ct[:16] != ct[16:]


def test_cbc_iv_sensitivity():
    pt = pkcs7_pad(b"data")
    assert cbc_encrypt(KEY, IV, pt) != cbc_encrypt(KEY, bytes(16), pt)


def test_cbc_validation():
    with pytest.raises(ValueError):
        cbc_encrypt(KEY, b"shortiv", b"\x00" * 16)
    with pytest.raises(ValueError):
        cbc_encrypt(KEY, IV, b"\x00" * 15)
    with pytest.raises(ValueError):
        cbc_decrypt(KEY, IV, b"")


@oracle
def test_cbc_matches_openssl():
    rng = Stream(4)
    for _ in range(5):
        key, iv = rng.bytes(16), rng.bytes(16)
        pt = rng.bytes(64)
        ours = cbc_encrypt(key, iv, pt)
        enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
        assert ours == enc.update(pt) + enc.finalize()
