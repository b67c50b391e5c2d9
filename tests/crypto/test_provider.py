"""Provider tests: both providers must satisfy the same contract."""

import hashlib

import pytest

from repro.crypto.ec import EcError
from repro.crypto.provider import (ModeledCryptoProvider, RealCryptoProvider,
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


# -- modeled ECDH: hashes of the secret and of both public values -------------

#: Field length in bytes of each curve the modeled shares are tested on.
FIELD_LEN = {"P-256": 32, "P-384": 48, "K-283": 36}

# (curve, rng seed of share A (B's is one more), sha256 of A's public
# bytes, of B's, shared secret).
MODELED_ECDH_PINS = [
    ("P-256", 11,
     "9df5680d4fa70bbcf9aa302675773ea919207268fd031c8e16465077937e18f6",
     "12e6a2cd77457ab89f58dbda20a564857b1537282293a8a3cd558caa7b95a6d4",
     "5126ad0b2bc352eedf1dc5d03288b4e49e77e6b4bd0680e60b17f1d3ae3c4b84"),
    ("P-384", 13,
     "90f9f31e327205e435637716864c8f3b3625f8a41fff6949d9a3e1ad8c495daf",
     "53a1c4d576998cccce128050ec91c5dfc8daca801d05636711aacfc2b7c63c04",
     "4ef72e0f611e34f2eb21c81a509ddb98667cea15439f906825c8a460c7e35bcb"
     "096fbc2c8519dba1e6141bb8d3901a66"),
    ("K-283", 15,
     "917b2c69d14e8ed84212ab8e3db84443a436abcb2f49523446700ee1450e0065",
     "99e6d8c191a2aefc6cc472d3e28f80421ed21fdce1951c2ef53ea7cf530e0178",
     "43166e5b6d73490dd4c190ce0cfe7826961f70ea553ea33dd71f5448b44a3c68"
     "f8abf916"),
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


@pytest.mark.parametrize("a_first", [True, False], ids=["a-first", "b-first"])
@pytest.mark.parametrize("curve", sorted(FIELD_LEN))
def test_modeled_ecdh_agrees_within_and_across_instances(curve, a_first):
    """Both sides derive one secret whichever computes first, whether one
    provider issued both shares or each side has its own provider."""
    one, pa, pb = (ModeledCryptoProvider() for _ in range(3))
    a, b = one.ecdh_keygen(curve, _rng(20)), one.ecdh_keygen(curve, _rng(21))
    a2, b2 = pa.ecdh_keygen(curve, _rng(20)), pb.ecdh_keygen(curve, _rng(21))
    assert (a2, b2) == (a, b)
    sides = [(one, a, b), (one, b, a), (pa, a2, b2), (pb, b2, a2)]
    if not a_first:
        sides = [sides[1], sides[0], sides[3], sides[2]]
    secrets = {p.ecdh_shared(s, peer.public_bytes) for p, s, peer in sides}
    assert len(secrets) == 1
    assert len(secrets.pop()) == FIELD_LEN[curve]


@pytest.mark.parametrize("curve", sorted(FIELD_LEN))
def test_modeled_ecdh_any_flipped_peer_byte_changes_secret(curve):
    """Every byte after the prefix, X part and fill alike, is bound into
    the secret, so a share tampered in transit never agrees."""
    p = ModeledCryptoProvider()
    a, b = p.ecdh_keygen(curve, _rng(30)), p.ecdh_keygen(curve, _rng(31))
    honest = p.ecdh_shared(a, b.public_bytes)
    for index in range(1, len(b.public_bytes)):
        tampered = bytearray(b.public_bytes)
        tampered[index] ^= 0xFF
        assert p.ecdh_shared(a, bytes(tampered)) != honest, index


@pytest.mark.parametrize("curve", sorted(FIELD_LEN))
def test_modeled_ecdh_keygen_shape_and_one_draw(curve):
    """The public value has the real encoding's length, and key
    generation takes exactly one 32-byte draw, so every stream that
    feeds a simulated world stays where it was."""
    rng, ref = _rng(40), _rng(40)
    share = ModeledCryptoProvider().ecdh_keygen(curve, rng)
    ref.bytes(32)
    assert rng.state == ref.state
    assert len(share.public_bytes) == 1 + 2 * FIELD_LEN[curve]
    assert share.public_bytes[0] == 4


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
