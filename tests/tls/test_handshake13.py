"""TLS 1.3 handshake tests: agreement, op counts, HKDF non-offloadability."""

import dataclasses
from collections import deque

import pytest

from repro.crypto.ops import CryptoOpKind as K
from repro.crypto.provider import ModeledCryptoProvider, RealCryptoProvider
from repro.sim.rng import Stream
from repro.tls import (TLS13_ECDHE_RSA, OpLog, TlsAlert, TlsClientConfig,
                       TlsServerConfig, client_handshake13,
                       run_loopback_handshake, server_handshake13)
from repro.tls.loopback import SyncDriver
from repro.tls.messages import ClientHello, ServerHello

PROVIDERS = [RealCryptoProvider(), ModeledCryptoProvider()]
IDS = ["real", "modeled"]


def make_configs(provider, curve="P-256", seed=0):
    rng = Stream
    scfg = TlsServerConfig(
        provider=provider, suites=(TLS13_ECDHE_RSA,),
        rng=rng(seed + 2), curves=(curve,),
        credentials_rsa=provider.make_rsa_credentials(1024, rng(seed + 1)))
    ccfg = TlsClientConfig(provider=provider, suites=(TLS13_ECDHE_RSA,),
                           rng=rng(seed + 3), curves=(curve,))
    return scfg, ccfg


@pytest.fixture(params=PROVIDERS, ids=IDS)
def provider(request):
    return request.param


def test_tls13_handshake_agrees(provider):
    scfg, ccfg = make_configs(provider)
    cres, sres = run_loopback_handshake(client_handshake13(ccfg),
                                        server_handshake13(scfg))
    assert cres.master_secret == sres.master_secret
    assert cres.client_write_keys == sres.client_write_keys
    assert cres.server_write_keys == sres.server_write_keys
    assert sres.negotiated_curve == "P-256"


def test_tls13_one_rtt_shape():
    """Client sends exactly one flight before the server's reply:
    ClientHello only (1-RTT)."""
    provider = ModeledCryptoProvider()
    scfg, ccfg = make_configs(provider)
    c = SyncDriver(client_handshake13(ccfg))
    first_flight = []
    c.pump(deque(), first_flight)
    assert len(first_flight) == 1
    assert type(first_flight[0]).__name__ == "ClientHello"


def test_table1_tls13_op_counts():
    """Table 1 row '1.3 ECDHE-RSA': RSA=1, ECC=2, HKDF > 4."""
    provider = RealCryptoProvider()
    scfg, ccfg = make_configs(provider)
    slog = OpLog()
    run_loopback_handshake(client_handshake13(ccfg),
                           server_handshake13(scfg), server_oplog=slog)
    assert slog.count(K.RSA_PRIV) == 1
    assert slog.count(K.ECDH_KEYGEN, K.ECDH_COMPUTE) == 2
    assert slog.count(K.HKDF) > 4
    assert slog.count(K.PRF) == 0  # TLS 1.3 replaced the PRF with HKDF


def test_hkdf_ops_not_offloadable():
    """Every HKDF op must be flagged non-offloadable — the cause of
    Figure 8's lower speedup."""
    provider = RealCryptoProvider()
    scfg, ccfg = make_configs(provider)
    slog = OpLog()
    run_loopback_handshake(client_handshake13(ccfg),
                           server_handshake13(scfg), server_oplog=slog)
    hkdf_ops = [op for op in slog.ops if op.kind is K.HKDF]
    assert hkdf_ops and all(not op.qat_offloadable for op in hkdf_ops)
    asym = [op for op in slog.ops if op.kind in (K.RSA_PRIV, K.ECDH_KEYGEN,
                                                 K.ECDH_COMPUTE)]
    assert asym and all(op.qat_offloadable for op in asym)


def test_client_without_keyshare_rejected():
    provider = ModeledCryptoProvider()
    scfg, _ = make_configs(provider)
    from repro.tls.messages import ClientHello

    def fake_client():
        from repro.tls.actions import NeedMessage, SendMessage
        yield SendMessage(ClientHello(
            client_random=b"\x00" * 32,
            cipher_suites=("TLS1.3-ECDHE-RSA",),
            supported_curves=("P-256",)), flush=True)
        yield NeedMessage(())

    with pytest.raises(TlsAlert, match="no key_share"):
        run_loopback_handshake(fake_client(), server_handshake13(scfg))


def test_unsupported_group_rejected():
    provider = ModeledCryptoProvider()
    scfg, ccfg = make_configs(provider)
    ccfg.curves = ("P-384",)
    with pytest.raises(TlsAlert, match="unsupported key-share group"):
        run_loopback_handshake(client_handshake13(ccfg),
                               server_handshake13(scfg))


def _alert_with_flipped_prefix(provider, hello_type):
    """Loopback handshake whose ``hello_type`` key_share has its 0x04
    prefix flipped in transit; returns the alert text."""
    scfg, ccfg = make_configs(provider)
    client = SyncDriver(client_handshake13(ccfg))
    server = SyncDriver(server_handshake13(scfg))
    c2s, s2c = deque(), deque()

    def flip(queue):
        for i, msg in enumerate(list(queue)):
            if isinstance(msg, hello_type):
                share = bytearray(msg.key_share)
                share[0] ^= 0xFF
                queue[i] = dataclasses.replace(msg, key_share=bytes(share))

    try:
        for _ in range(50):
            client.pump(s2c, c2s)
            flip(c2s)
            server.pump(c2s, s2c)
            flip(s2c)
            if client.done and server.done:
                return None
    except TlsAlert as alert:
        return str(alert)
    raise AssertionError("handshake neither finished nor failed")


def test_malformed_key_share_is_illegal_parameter(provider):
    """A key_share whose 0x04 prefix is flipped is no point at all: the
    server answers with an alert instead of letting EcError escape."""
    assert _alert_with_flipped_prefix(provider, ClientHello) == \
        "illegal_parameter: malformed uncompressed point"


def test_malformed_server_key_share_is_illegal_parameter(provider):
    """The same flip on the ServerHello's share: the client answers
    with the alert."""
    assert _alert_with_flipped_prefix(provider, ServerHello) == \
        "illegal_parameter: malformed uncompressed point"


def test_tampered_certificate_verify_rejected():
    provider = RealCryptoProvider()
    scfg, ccfg = make_configs(provider)
    evil = provider.make_rsa_credentials(1024, Stream(55))

    patched = RealCryptoProvider()
    real_sign = provider.sign
    patched.sign = lambda cred, msg: real_sign(evil, msg)
    scfg.provider = patched
    with pytest.raises(TlsAlert, match="bad CertificateVerify"):
        run_loopback_handshake(client_handshake13(ccfg),
                               server_handshake13(scfg))
