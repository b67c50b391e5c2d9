"""TLS 1.2 handshake tests: all suites, both providers, Table 1 counts."""

import dataclasses
from collections import deque

import pytest

from repro.crypto.ops import CryptoOpKind as K
from repro.crypto.provider import ModeledCryptoProvider, RealCryptoProvider
from repro.sim import Simulator
from repro.sim.rng import Stream
from repro.tls import (ECDHE_ECDSA, ECDHE_RSA, TLS_RSA, OpLog, SessionCache,
                       SyncDriver, TlsAlert, TlsClientConfig, TlsServerConfig,
                       client_handshake12, run_loopback_handshake,
                       server_handshake12)
from repro.tls.messages import ClientKeyExchange
from repro.tls.session import SESSION_LIFETIME

ECC_KINDS = (K.ECDH_KEYGEN, K.ECDH_COMPUTE, K.ECDSA_SIGN)


def make_configs(suite, provider, curve="P-256", session_cache=None,
                 seed=0, tickets=False):
    rng = Stream
    kw = {}
    if suite.auth == "rsa":
        kw["credentials_rsa"] = provider.make_rsa_credentials(
            1024, rng(seed + 1))
    else:
        kw["credentials_ecdsa"] = provider.make_ecdsa_credentials(
            curve, rng(seed + 1))
    scfg = TlsServerConfig(provider=provider, suites=(suite,),
                           rng=rng(seed + 2), curves=(curve,),
                           session_cache=session_cache,
                           issue_tickets=tickets, **kw)
    ccfg = TlsClientConfig(provider=provider, suites=(suite,),
                           rng=rng(seed + 3), curves=(curve,))
    return scfg, ccfg


PROVIDERS = [RealCryptoProvider(), ModeledCryptoProvider()]
IDS = ["real", "modeled"]


@pytest.fixture(params=PROVIDERS, ids=IDS)
def provider(request):
    return request.param


@pytest.mark.parametrize("suite", [TLS_RSA, ECDHE_RSA, ECDHE_ECDSA],
                         ids=lambda s: s.name)
def test_full_handshake_agrees(provider, suite):
    scfg, ccfg = make_configs(suite, provider)
    cres, sres = run_loopback_handshake(client_handshake12(ccfg),
                                        server_handshake12(scfg))
    assert cres.master_secret == sres.master_secret
    assert cres.client_write_keys == sres.client_write_keys
    assert cres.server_write_keys == sres.server_write_keys
    assert not cres.resumed and not sres.resumed
    assert sres.suite == suite


# -- Table 1: server-side crypto op counts for full handshakes ----------------

TABLE1 = [
    (TLS_RSA, 1, 0, 4),
    (ECDHE_RSA, 1, 2, 4),
    (ECDHE_ECDSA, 0, 3, 4),
]


@pytest.mark.parametrize("suite,n_rsa,n_ecc,n_prf", TABLE1,
                         ids=lambda v: getattr(v, "name", v))
def test_table1_op_counts(suite, n_rsa, n_ecc, n_prf):
    provider = RealCryptoProvider()
    scfg, ccfg = make_configs(suite, provider)
    slog = OpLog()
    run_loopback_handshake(client_handshake12(ccfg),
                           server_handshake12(scfg), server_oplog=slog)
    assert slog.count(K.RSA_PRIV) == n_rsa
    assert slog.count(*ECC_KINDS) == n_ecc
    assert slog.count(K.PRF) == n_prf
    assert slog.count(K.HKDF) == 0


@pytest.mark.parametrize("curve", ["P-256", "P-384", "B-283", "B-409",
                                   "K-283", "K-409"])
def test_ecdhe_ecdsa_all_six_curves(curve):
    """Figure 7c's curves all complete functional handshakes."""
    provider = RealCryptoProvider()
    scfg, ccfg = make_configs(ECDHE_ECDSA, provider, curve=curve)
    cres, sres = run_loopback_handshake(client_handshake12(ccfg),
                                        server_handshake12(scfg))
    assert cres.master_secret == sres.master_secret
    assert sres.negotiated_curve == curve


def test_no_common_suite_fails(provider):
    scfg, _ = make_configs(TLS_RSA, provider)
    ccfg = TlsClientConfig(provider=provider, suites=(ECDHE_RSA,),
                           rng=Stream(9))
    with pytest.raises(TlsAlert, match="no common cipher suite"):
        run_loopback_handshake(client_handshake12(ccfg),
                               server_handshake12(scfg))


def test_no_common_curve_fails(provider):
    scfg, ccfg = make_configs(ECDHE_RSA, provider)
    ccfg.curves = ("P-384",)
    with pytest.raises(TlsAlert, match="no common curve"):
        run_loopback_handshake(client_handshake12(ccfg),
                               server_handshake12(scfg))


def test_tampered_ske_signature_rejected():
    """Client must reject a ServerKeyExchange signed by someone else."""
    provider = RealCryptoProvider()
    scfg, ccfg = make_configs(ECDHE_RSA, provider)
    evil = provider.make_rsa_credentials(1024, Stream(66))

    real_sign = provider.sign

    def evil_sign(cred, message):
        return real_sign(evil, message)

    provider_patched = RealCryptoProvider()
    provider_patched.sign = evil_sign
    scfg.provider = provider_patched
    with pytest.raises(TlsAlert, match="bad ServerKeyExchange signature"):
        run_loopback_handshake(client_handshake12(ccfg),
                               server_handshake12(scfg))


def _handshake_with_flipped_cke(scfg, ccfg, index, field="public"):
    """Loopback handshake whose ClientKeyExchange ``field`` (the ECDHE
    public value, or ``encrypted_premaster`` under TLS-RSA) has byte
    ``index`` flipped in transit; returns (alert text, the client's
    untampered value)."""
    client = SyncDriver(client_handshake12(ccfg))
    server = SyncDriver(server_handshake12(scfg))
    c2s, s2c = deque(), deque()
    sent = None
    try:
        for _ in range(50):
            client.pump(s2c, c2s)
            for i, msg in enumerate(list(c2s)):
                if isinstance(msg, ClientKeyExchange) and sent is None:
                    sent = getattr(msg, field)
                    flipped = bytearray(sent)
                    flipped[index] ^= 0xFF
                    c2s[i] = dataclasses.replace(
                        msg, **{field: bytes(flipped)})
            server.pump(c2s, s2c)
            if client.done and server.done:
                return None, sent
    except TlsAlert as alert:
        return str(alert), sent
    raise AssertionError("handshake neither finished nor failed")


def test_tampered_cke_public_value_fails_modeled():
    """A flipped byte of the client's public value, in the X part (1,
    12, 23, 32) or the fill (40, 64), ends every tampered handshake on
    the client Finished: the server's transcript and its modeled
    premaster both differ from the client's."""
    provider = ModeledCryptoProvider()
    alerts = []
    for seed, index in enumerate((1, 12, 23, 32, 40, 64)):
        scfg, ccfg = make_configs(ECDHE_RSA, provider, seed=10 * seed)
        alert, _ = _handshake_with_flipped_cke(scfg, ccfg, index)
        alerts.append(alert)
    assert alerts == ["decrypt_error: client Finished verify failed"] * 6


@pytest.mark.parametrize("provider", PROVIDERS, ids=IDS)
def test_malformed_cke_share_is_illegal_parameter(provider):
    """A share whose 0x04 prefix is flipped is no point at all: the
    server answers with an alert instead of letting EcError escape."""
    scfg, ccfg = make_configs(ECDHE_RSA, provider)
    alert, _ = _handshake_with_flipped_cke(scfg, ccfg, 0)
    assert alert == "illegal_parameter: malformed uncompressed point"


class _PrefixedShareProvider:
    """Delegates to ``inner`` but issues ECDHE shares whose prefix is
    0x02 instead of 0x04, so the server signs a share that is no
    uncompressed point."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def ecdh_keygen(self, curve, rng):
        share = self._inner.ecdh_keygen(curve, rng)
        return dataclasses.replace(
            share, public_bytes=b"\x02" + share.public_bytes[1:])


@pytest.mark.parametrize("provider", PROVIDERS, ids=IDS)
def test_malformed_ske_share_is_illegal_parameter(provider):
    """A validly signed ServerKeyExchange whose share is no point: the
    client answers with an alert instead of letting EcError escape."""
    scfg, ccfg = make_configs(ECDHE_RSA, provider)
    scfg.provider = _PrefixedShareProvider(provider)
    with pytest.raises(TlsAlert) as alert:
        run_loopback_handshake(client_handshake12(ccfg),
                               server_handshake12(scfg))
    assert str(alert.value) == \
        "illegal_parameter: malformed uncompressed point"


@pytest.mark.parametrize("provider", PROVIDERS, ids=IDS)
def test_undecryptable_premaster_fails_at_finished(provider):
    """RFC 5246 7.4.7.1: a premaster that does not decrypt is replaced
    by a random one, so the handshake fails at the client Finished
    instead of letting RsaError escape the server."""
    scfg, ccfg = make_configs(TLS_RSA, provider)
    alert, _ = _handshake_with_flipped_cke(
        scfg, ccfg, 1, field="encrypted_premaster")
    assert alert == "decrypt_error: client Finished verify failed"


# -- session resumption ---------------------------------------------------------

def resume_pair(provider, suite=ECDHE_RSA, advance=0.0):
    sim = Simulator()
    cache = SessionCache(sim)
    scfg, ccfg = make_configs(suite, provider, session_cache=cache)
    c1, s1 = run_loopback_handshake(client_handshake12(ccfg),
                                    server_handshake12(scfg))
    assert not s1.resumed and s1.session_id

    if advance:
        sim.timeout(advance)
        sim.run()

    ccfg2 = TlsClientConfig(provider=provider, suites=(suite,),
                            rng=Stream(77),
                            session_id=c1.session_id,
                            session_master_secret=c1.master_secret,
                            session_suite=c1.suite)
    slog = OpLog()
    c2, s2 = run_loopback_handshake(
        client_handshake12(ccfg2), server_handshake12(scfg),
        server_oplog=slog)
    return c1, s1, c2, s2, slog


def test_abbreviated_handshake_resumes(provider):
    c1, s1, c2, s2, slog = resume_pair(provider)
    assert s2.resumed and c2.resumed
    assert s2.master_secret == s1.master_secret
    assert c2.client_write_keys == s2.client_write_keys
    # Fresh randoms: record keys differ from the first connection.
    assert c2.client_write_keys != c1.client_write_keys


def test_abbreviated_is_prf_only(provider):
    """Paper section 5.3: abbreviated handshakes involve PRF only."""
    *_, slog = resume_pair(provider)
    assert slog.count(K.PRF) == 3
    assert slog.count(K.RSA_PRIV, *ECC_KINDS) == 0


def test_expired_session_falls_back_to_full(provider):
    c1, s1, c2, s2, slog = resume_pair(provider,
                                       advance=SESSION_LIFETIME + 1.0)
    assert not s2.resumed
    assert slog.count(K.RSA_PRIV) == 1  # full handshake happened


def test_unknown_session_id_falls_back_to_full(provider):
    sim = Simulator()
    cache = SessionCache(sim)
    scfg, _ = make_configs(ECDHE_RSA, provider, session_cache=cache)
    ccfg = TlsClientConfig(provider=provider, suites=(ECDHE_RSA,),
                           rng=Stream(5),
                           session_id=b"\xAA" * 16,
                           session_master_secret=b"\x01" * 48,
                           session_suite=ECDHE_RSA)
    cres, sres = run_loopback_handshake(client_handshake12(ccfg),
                                        server_handshake12(scfg))
    assert not sres.resumed
    assert cres.master_secret == sres.master_secret


def test_session_ticket_issued(provider):
    scfg, ccfg = make_configs(TLS_RSA, provider, tickets=True)
    cres, sres = run_loopback_handshake(client_handshake12(ccfg),
                                        server_handshake12(scfg))
    assert cres.session_ticket is not None
    assert cres.session_ticket == sres.session_ticket
