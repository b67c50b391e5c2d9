"""AES-128 tests: FIPS-197 vectors, oracle cross-check, properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes
from repro.crypto.aes import AES128, _INV_SBOX, _SBOX
from repro.sim.rng import Stream

try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    HAVE_ORACLE = True
except ImportError:  # pragma: no cover
    HAVE_ORACLE = False

oracle = pytest.mark.skipif(not HAVE_ORACLE,
                            reason="cryptography package unavailable")


def test_fips197_appendix_c_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    aes = AES128(key)
    assert aes.encrypt_block(pt) == ct
    assert aes.decrypt_block(ct) == pt


def test_sbox_known_entries():
    # FIPS 197 figure 7: S(0x00)=0x63, S(0x53)=0xED, S(0xFF)=0x16.
    assert _SBOX[0x00] == 0x63
    assert _SBOX[0x53] == 0xED
    assert _SBOX[0xFF] == 0x16


def test_sbox_is_permutation():
    assert sorted(_SBOX) == list(range(256))
    for i in range(256):
        assert _INV_SBOX[_SBOX[i]] == i


def _gf_mul(a, b):
    # Reference GF(2^8) multiply: shift-and-add modulo x^8+x^4+x^3+x+1.
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return acc


def _brute_force_sbox():
    # Each inverse by exhaustive search, then the FIPS 197 affine map
    # written as XORs of left rotations.
    sbox = []
    for x in range(256):
        b = next((y for y in range(1, 256) if _gf_mul(x, y) == 1), 0)
        rot = [((b << k) | (b >> (8 - k))) & 0xFF for k in range(5)]
        sbox.append(rot[0] ^ rot[1] ^ rot[2] ^ rot[3] ^ rot[4] ^ 0x63)
    inv_sbox = [0] * 256
    for x, s in enumerate(sbox):
        inv_sbox[s] = x
    return tuple(sbox), tuple(inv_sbox)


def test_tables_match_brute_force_gf_reference():
    assert (_SBOX, _INV_SBOX) == _brute_force_sbox()
    for c in (2, 3, 9, 11, 13, 14):
        table = getattr(aes, f"_MUL{c}")
        assert table == tuple(_gf_mul(a, c) for a in range(256)), c


def test_key_length_validation():
    with pytest.raises(ValueError):
        AES128(b"short")


def test_block_length_validation():
    aes = AES128(b"\x00" * 16)
    with pytest.raises(ValueError):
        aes.encrypt_block(b"\x00" * 15)
    with pytest.raises(ValueError):
        aes.decrypt_block(b"\x00" * 17)


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
@settings(max_examples=25)
def test_roundtrip_property(key, block):
    aes = AES128(key)
    assert aes.decrypt_block(aes.encrypt_block(block)) == block


def test_different_keys_different_ciphertexts():
    block = b"\x00" * 16
    assert AES128(b"\x01" * 16).encrypt_block(block) != \
        AES128(b"\x02" * 16).encrypt_block(block)


@oracle
def test_matches_openssl_for_random_inputs():
    rng = Stream(99)
    for _ in range(10):
        key, block = rng.bytes(16), rng.bytes(16)
        ours = AES128(key).encrypt_block(block)
        enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        theirs = enc.update(block) + enc.finalize()
        assert ours == theirs
