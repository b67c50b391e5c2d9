"""Elliptic-curve tests: parameter integrity, group laws on all six
NIST curves, ECDH/ECDSA roundtrips, OpenSSL cross-validation for P-256."""

import pytest

from repro.crypto import ecdh, ecdsa
from repro.crypto.ec import (INFINITY, EcError, Point, get_curve,
                             list_curves)
from repro.sim.rng import Stream

ALL_CURVES = list(list_curves())
# A fast subset for the heavier group-law sweeps.
FAST_CURVES = ["P-256", "K-283"]

try:
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import ec as oec
    from cryptography.hazmat.primitives.asymmetric.utils import (
        decode_dss_signature, encode_dss_signature)
    HAVE_ORACLE = True
except ImportError:  # pragma: no cover
    HAVE_ORACLE = False

oracle = pytest.mark.skipif(not HAVE_ORACLE,
                            reason="cryptography package unavailable")


@pytest.mark.parametrize("name", ALL_CURVES)
def test_generator_on_curve(name):
    c = get_curve(name)
    assert c.is_on_curve(c.generator)


@pytest.mark.parametrize("name", ALL_CURVES)
def test_group_order(name):
    c = get_curve(name)
    assert c.base_mult(c.n).is_infinity


@pytest.mark.parametrize("name", ALL_CURVES)
def test_small_multiples_consistent(name):
    """2G computed by doubling equals G+G; 3G = 2G + G, all on curve."""
    c = get_curve(name)
    g = c.generator
    g2a = c.double(g)
    g2b = c.add(g, g)
    assert g2a == g2b
    g3 = c.add(g2a, g)
    assert c.is_on_curve(g2a) and c.is_on_curve(g3)
    assert c.base_mult(3) == g3


@pytest.mark.parametrize("name", FAST_CURVES)
def test_scalar_mult_distributes(name):
    c = get_curve(name)
    a, b = 0x1234567, 0x89ABCDE
    lhs = c.base_mult(a + b)
    rhs = c.add(c.base_mult(a), c.base_mult(b))
    assert lhs == rhs


@pytest.mark.parametrize("name", FAST_CURVES)
def test_negation(name):
    c = get_curve(name)
    p = c.base_mult(12345)
    assert c.add(p, c.negate(p)).is_infinity
    assert c.is_on_curve(c.negate(p))


@pytest.mark.parametrize("name", ALL_CURVES)
def test_infinity_is_identity(name):
    c = get_curve(name)
    p = c.base_mult(7)
    assert c.add(p, INFINITY) == p
    assert c.add(INFINITY, p) == p
    assert c.double(INFINITY).is_infinity


def test_scalar_mult_zero_is_infinity():
    c = get_curve("P-256")
    assert c.base_mult(0).is_infinity
    assert c.scalar_mult(c.n, c.generator).is_infinity


def test_scalar_mult_reduces_mod_n():
    c = get_curve("P-256")
    assert c.base_mult(5) == c.base_mult(5 + c.n)


def test_validate_point_rejects_off_curve():
    c = get_curve("P-256")
    with pytest.raises(EcError):
        c.validate_point(Point(1, 1))
    with pytest.raises(EcError):
        c.validate_point(INFINITY)


def test_unknown_curve():
    with pytest.raises(EcError):
        get_curve("P-224")


def test_p256_montgomery_flag():
    assert get_curve("P-256").montgomery_friendly
    assert not get_curve("P-384").montgomery_friendly


# -- ECDH ------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_CURVES)
def test_ecdh_shared_secret_agrees(name):
    c = get_curve(name)
    rng = Stream(5)
    alice = ecdh.generate_keypair(c, rng)
    bob = ecdh.generate_keypair(c, rng)
    s1 = ecdh.shared_secret(c, alice.d, bob.public)
    s2 = ecdh.shared_secret(c, bob.d, alice.public)
    assert s1 == s2
    assert len(s1) == (c.field_bits + 7) // 8


def test_ecdh_point_encoding_roundtrip():
    c = get_curve("P-384")
    rng = Stream(8)
    kp = ecdh.generate_keypair(c, rng)
    blob = ecdh.encode_point(c, kp.public)
    assert len(blob) == 1 + 2 * ((c.field_bits + 7) // 8)
    assert ecdh.decode_point(c, blob) == kp.public


def test_ecdh_decode_rejects_malformed():
    c = get_curve("P-256")
    with pytest.raises(EcError):
        ecdh.decode_point(c, b"\x04" + b"\x01" * 64)  # off-curve
    with pytest.raises(EcError):
        ecdh.decode_point(c, b"\x02" + b"\x00" * 64)  # wrong form byte


# -- ECDSA -----------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_CURVES)
def test_ecdsa_sign_verify(name):
    c = get_curve(name)
    rng = Stream(13)
    key = ecdsa.generate_keypair(c, rng)
    sig = ecdsa.sign(key, b"hello curve " + name.encode())
    assert ecdsa.verify(c, key.public, b"hello curve " + name.encode(), sig)


def test_ecdsa_rejects_wrong_message():
    c = get_curve("P-256")
    key = ecdsa.generate_keypair(c, Stream(13))
    sig = ecdsa.sign(key, b"real")
    assert not ecdsa.verify(c, key.public, b"fake", sig)


def test_ecdsa_rejects_tampered_signature():
    c = get_curve("P-256")
    key = ecdsa.generate_keypair(c, Stream(13))
    r, s = ecdsa.sign(key, b"msg")
    assert not ecdsa.verify(c, key.public, b"msg", (r, s ^ 1))
    assert not ecdsa.verify(c, key.public, b"msg", (0, s))
    assert not ecdsa.verify(c, key.public, b"msg", (r, c.n))


def test_ecdsa_deterministic_nonce():
    """RFC 6979: same key + message => identical signature."""
    c = get_curve("P-256")
    key = ecdsa.generate_keypair(c, Stream(13))
    assert ecdsa.sign(key, b"m") == ecdsa.sign(key, b"m")
    assert ecdsa.sign(key, b"m") != ecdsa.sign(key, b"m2")


# -- OpenSSL cross-validation ------------------------------------------------

_ORACLE_CURVES = {"P-256": "SECP256R1", "P-384": "SECP384R1",
                  "K-283": "SECT283K1", "B-283": "SECT283R1",
                  "K-409": "SECT409K1", "B-409": "SECT409R1"}


def _oracle_curve(name):
    return getattr(oec, _ORACLE_CURVES[name])()


@oracle
@pytest.mark.parametrize("name", ["P-256", "P-384"])
def test_oracle_verifies_our_ecdsa(name):
    c = get_curve(name)
    key = ecdsa.generate_keypair(c, Stream(21))
    msg = b"interop " + name.encode()
    r, s = ecdsa.sign(key, msg)
    priv = oec.derive_private_key(key.d, _oracle_curve(name))
    priv.public_key().verify(encode_dss_signature(r, s), msg,
                             oec.ECDSA(hashes.SHA256()))


@oracle
@pytest.mark.parametrize("name", ["P-256", "P-384"])
def test_we_verify_oracle_ecdsa(name):
    c = get_curve(name)
    priv = oec.generate_private_key(_oracle_curve(name))
    msg = b"reverse interop"
    der = priv.sign(msg, oec.ECDSA(hashes.SHA256()))
    r, s = decode_dss_signature(der)
    nums = priv.public_key().public_numbers()
    assert ecdsa.verify(c, Point(nums.x, nums.y), msg, (r, s))


@oracle
def test_public_point_matches_oracle_p256():
    """Scalar multiplication agrees with OpenSSL on the prime curve."""
    c = get_curve("P-256")
    d = 0x1F2E3D4C5B6A79880102030405060708090A0B0C0D0E0F10
    ours = c.base_mult(d)
    priv = oec.derive_private_key(d, _oracle_curve("P-256"))
    nums = priv.public_key().public_numbers()
    assert (ours.x, ours.y) == (nums.x, nums.y)


def test_public_point_matches_openssl_kat_k283():
    """Known-answer test generated with `openssl ecparam -name sect283k1
    -genkey`: binary-curve scalar multiplication matches OpenSSL."""
    d = int("013b8aba8e6f21ced10101ba8962dd10475f01ea730d575a8ef5a70b3c96"
            "5b058ef20d17", 16)
    pub_hex = ("02fea1f200aa4560cfb06568f131a6cb07c78b98d059da7812a0a9b98b"
               "6fbbf57fefcc11055ddbfa20ab6285d9854988edcba86760642866"
               "28f66e46146b5a72cbec9e5b9aada583")
    flen = 36  # ceil(283/8)
    blob = bytes.fromhex(pub_hex)
    expect = Point(int.from_bytes(blob[:flen], "big"),
                   int.from_bytes(blob[flen:], "big"))
    assert get_curve("K-283").base_mult(d) == expect
