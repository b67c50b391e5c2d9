"""Provider tests: both providers must satisfy the same contract."""

import hashlib

import pytest

from repro.crypto.ec import EcError
from repro.crypto.provider import (_DH_P, REMEMBERED_EXPONENTS,
                                   ModeledCryptoProvider, RealCryptoProvider,
                                   VerifyError)
from repro.crypto.rsa import RsaError
from repro.sim.rng import Stream

PROVIDERS = [RealCryptoProvider(), ModeledCryptoProvider()]
IDS = ["real", "modeled"]


def _rng(seed=0):
    return Stream(seed)


@pytest.fixture(params=PROVIDERS, ids=IDS)
def provider(request):
    return request.param


@pytest.fixture
def rsa_cred(provider):
    # 1024-bit keeps the real keygen fast in tests.
    return provider.make_rsa_credentials(1024, _rng(1))


# -- RSA path (TLS-RSA key exchange + server auth) ---------------------------

def test_rsa_premaster_roundtrip(provider, rsa_cred):
    premaster = _rng(2).bytes(48)
    ct = provider.rsa_encrypt(rsa_cred.public_bytes, premaster, _rng(3))
    assert len(ct) == 1024 // 8
    assert provider.rsa_decrypt(rsa_cred, ct, expected_len=48) == premaster


def test_rsa_decrypt_rejects_garbage(provider, rsa_cred):
    with pytest.raises(RsaError):
        provider.rsa_decrypt(rsa_cred, b"\x01" * 128, expected_len=48)


def test_rsa_signature_roundtrip(provider, rsa_cred):
    sig = provider.sign(rsa_cred, b"server params")
    assert len(sig) == 1024 // 8
    assert provider.verify("rsa", rsa_cred.public_bytes, b"server params", sig)
    assert not provider.verify("rsa", rsa_cred.public_bytes, b"other", sig)


def test_rsa_sig_bound_to_key(provider):
    c1 = provider.make_rsa_credentials(1024, _rng(1), key_id="a")
    c2 = provider.make_rsa_credentials(1024, _rng(2), key_id="b")
    sig = provider.sign(c1, b"m")
    assert not provider.verify("rsa", c2.public_bytes, b"m", sig)


# -- ECDSA path ---------------------------------------------------------------

@pytest.mark.parametrize("curve", ["P-256", "B-283"])
def test_ecdsa_roundtrip(provider, curve):
    cred = provider.make_ecdsa_credentials(curve, _rng(4))
    sig = provider.sign(cred, b"handshake transcript")
    assert provider.verify("ecdsa", cred.public_bytes,
                           b"handshake transcript", sig, curve=curve)
    assert not provider.verify("ecdsa", cred.public_bytes,
                               b"tampered", sig, curve=curve)


# -- ECDHE path ----------------------------------------------------------------

@pytest.mark.parametrize("curve", ["P-256", "P-384", "K-283"])
def test_ecdh_agreement(provider, curve):
    a = provider.ecdh_keygen(curve, _rng(5))
    b = provider.ecdh_keygen(curve, _rng(6))
    s1 = provider.ecdh_shared(a, b.public_bytes)
    s2 = provider.ecdh_shared(b, a.public_bytes)
    assert s1 == s2
    assert len(s1) > 0


def test_ecdh_public_encoding_width(provider):
    share = provider.ecdh_keygen("P-256", _rng(7))
    assert len(share.public_bytes) == 65  # 04 || X(32) || Y(32)
    assert share.public_bytes[0] == 4


def test_ecdh_different_keys_different_secrets(provider):
    a = provider.ecdh_keygen("P-256", _rng(8))
    b = provider.ecdh_keygen("P-256", _rng(9))
    c = provider.ecdh_keygen("P-256", _rng(10))
    assert provider.ecdh_shared(a, b.public_bytes) != \
        provider.ecdh_shared(a, c.public_bytes)


@pytest.mark.parametrize("mangle", [lambda pub: pub[:-1],
                                    lambda pub: b"\x02" + pub[1:]],
                         ids=["truncated", "prefix-02"])
def test_ecdh_rejects_malformed_share(provider, mangle):
    a = provider.ecdh_keygen("P-256", _rng(5))
    b = provider.ecdh_keygen("P-256", _rng(6))
    with pytest.raises(EcError, match="malformed uncompressed point"):
        provider.ecdh_shared(a, mangle(b.public_bytes))


# -- modeled ECDH: fixed-base table and remembered exponents -------------------

# (curve, rng seed of share A (B's is one more), sha256 of A's public
# bytes, of B's, shared secret): the bytes the plain-``pow``
# implementation produced.
MODELED_ECDH_PINS = [
    ("P-256", 11,
     "f9a64922c67fee8802213cd60b3bb6ba135ac423f78222dd420bab7fa20f5fb0",
     "be113c2182d77f8a4a429a8f54167024254804a809b26c953e07909c2a48c2ed",
     "ad49077dfadc4f73a22fe81878d499b54ad4b8bbfcfd6728d30213fbcad0657b"),
    ("P-384", 13,
     "c1743207261374720ccc6116a6edaf24e28ad36850d5c5f13fa1e59330d47443",
     "446cae5137d08440fd4a0c56f80699b28773b7422b4ca8a9e0682c8232cb07c2",
     "e18ce7448b28f88886a7ec77afc3764d343bc3e80da31c8facbeac1ea3063945"
     "57ecb0b56f50326ff4bc8fb9f3bb2c9e"),
    ("K-283", 15,
     "900215e6d248e5d9f5f2607b84a2a69781cc38372078136edeed07ebec112805",
     "9698c5874edc6c87141564f7854f5f893191a320f87019fe641a352bb3cec882",
     "58ebe603db122a87b3e756121d25bd1804bb998b77d00d942c14096c9d5eb2c4"
     "caec99a9"),
]


@pytest.mark.parametrize("curve,seed,pub_a,pub_b,secret", MODELED_ECDH_PINS,
                         ids=[pin[0] for pin in MODELED_ECDH_PINS])
def test_modeled_ecdh_known_answers(curve, seed, pub_a, pub_b, secret):
    p = ModeledCryptoProvider()
    a = p.ecdh_keygen(curve, _rng(seed))
    b = p.ecdh_keygen(curve, _rng(seed + 1))
    assert hashlib.sha256(a.public_bytes).hexdigest() == pub_a
    assert hashlib.sha256(b.public_bytes).hexdigest() == pub_b
    assert p.ecdh_shared(a, b.public_bytes).hex() == secret
    assert p.ecdh_shared(b, a.public_bytes).hex() == secret


def test_fixed_base_table_matches_pow():
    p = ModeledCryptoProvider()
    edges = [0, 1, 255, 256, _DH_P - 2, _DH_P - 1, _DH_P, 2**256 - 1]
    rng = _rng(30)
    draws = [int.from_bytes(rng.bytes(32), "big") for _ in range(64)]
    for x in edges + draws:
        assert p._g_pow(x) == pow(5, x, _DH_P), x


@pytest.mark.parametrize("a_first", [True, False], ids=["a-first", "b-first"])
def test_ecdh_remembered_exponent_matches_pow_path(a_first):
    """One instance issued both shares, so each side hits the registry;
    two instances each issued one, so both sides miss and take ``pow``."""
    one = ModeledCryptoProvider()
    a, b = one.ecdh_keygen("P-256", _rng(20)), one.ecdh_keygen("P-256",
                                                              _rng(21))
    pa, pb = ModeledCryptoProvider(), ModeledCryptoProvider()
    a2, b2 = pa.ecdh_keygen("P-256", _rng(20)), pb.ecdh_keygen("P-256",
                                                               _rng(21))
    assert (a2, b2) == (a, b)
    sides = [(one, a, b), (one, b, a)]
    split = [(pa, a2, b2), (pb, b2, a2)]
    if not a_first:
        sides.reverse()
        split.reverse()
    hits = [p.ecdh_shared(s, peer.public_bytes) for p, s, peer in sides]
    misses = [p.ecdh_shared(s, peer.public_bytes) for p, s, peer in split]
    assert one._issued == {}
    assert len(pa._issued) == len(pb._issued) == 1
    assert hits[0] == hits[1] == misses[0] == misses[1]


def test_ecdh_registry_capped_oldest_first():
    p = ModeledCryptoProvider()
    rng = _rng(40)
    shares = [p.ecdh_keygen("P-256", rng)
              for _ in range(REMEMBERED_EXPONENTS + 3)]
    assert len(p._issued) == REMEMBERED_EXPONENTS
    oldest, newest = shares[0], shares[-1]
    assert int.from_bytes(oldest.public_bytes[1:33], "big") not in p._issued
    assert int.from_bytes(newest.public_bytes[1:33], "big") in p._issued
    evicted_side = p.ecdh_shared(newest, oldest.public_bytes)   # pow path
    remembered_side = p.ecdh_shared(oldest, newest.public_bytes)
    assert evicted_side == remembered_side


# -- KDFs ------------------------------------------------------------------------

def test_prf_consistent_across_providers():
    """PRF is a shared real implementation — identical everywhere."""
    args = (b"secret", b"key expansion", b"seed", 104)
    assert PROVIDERS[0].prf(*args) == PROVIDERS[1].prf(*args)


def test_hkdf_consistent_across_providers():
    a = PROVIDERS[0].hkdf_expand_label(b"\x01" * 32, b"key", b"", 16)
    b = PROVIDERS[1].hkdf_expand_label(b"\x01" * 32, b"key", b"", 16)
    assert a == b


# -- record protection -------------------------------------------------------------

def _roundtrip_record(provider, payload):
    ek, mk, iv = b"\x01" * 16, b"\x02" * 20, b"\x03" * 16
    frag = provider.encrypt_record_cbc_hmac(ek, mk, seq=5, content_type=23,
                                            version=0x0303, payload=payload,
                                            iv=iv)
    out = provider.decrypt_record_cbc_hmac(ek, mk, seq=5, content_type=23,
                                           version=0x0303, fragment=frag)
    return frag, out


@pytest.mark.parametrize("size", [0, 1, 15, 16, 100, 1000])
def test_record_roundtrip(provider, size):
    payload = bytes(range(256)) * (size // 256 + 1)
    payload = payload[:size]
    frag, out = _roundtrip_record(provider, payload)
    assert out == payload


def test_record_ciphertext_length_identical_across_providers():
    """The modeled provider must preserve the CBC/HMAC wire arithmetic."""
    for size in (0, 1, 100, 16384):
        payload = b"\x00" * size
        frags = []
        for p in PROVIDERS:
            ek, mk, iv = b"\x01" * 16, b"\x02" * 20, b"\x03" * 16
            frags.append(p.encrypt_record_cbc_hmac(
                ek, mk, 0, 23, 0x0303, payload, iv))
        assert len(frags[0]) == len(frags[1]), f"size={size}"


def test_record_wrong_seq_rejected(provider):
    ek, mk, iv = b"\x01" * 16, b"\x02" * 20, b"\x03" * 16
    frag = provider.encrypt_record_cbc_hmac(ek, mk, 1, 23, 0x0303, b"data", iv)
    with pytest.raises(VerifyError):
        provider.decrypt_record_cbc_hmac(ek, mk, 2, 23, 0x0303, frag)


def test_record_wrong_key_rejected(provider):
    ek, mk, iv = b"\x01" * 16, b"\x02" * 20, b"\x03" * 16
    frag = provider.encrypt_record_cbc_hmac(ek, mk, 1, 23, 0x0303, b"data", iv)
    with pytest.raises(VerifyError):
        provider.decrypt_record_cbc_hmac(b"\x09" * 16, mk, 1, 23, 0x0303, frag)


def test_record_too_short_rejected(provider):
    with pytest.raises(VerifyError):
        provider.decrypt_record_cbc_hmac(b"\x01" * 16, b"\x02" * 20, 0, 23,
                                         0x0303, b"tiny")
