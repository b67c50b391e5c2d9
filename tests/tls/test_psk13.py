"""TLS 1.3 PSK resumption tests (extension beyond the paper's
evaluation; see DESIGN.md)."""

import pytest

from repro.crypto.ops import CryptoOpKind as K
from repro.crypto.provider import ModeledCryptoProvider, RealCryptoProvider
from repro.sim.rng import Stream
from repro.tls import (TLS13_ECDHE_RSA, OpLog, TlsAlert, TlsClientConfig,
                       TlsServerConfig, client_handshake13,
                       run_loopback_handshake, server_handshake13)
from repro.tls.session import SESSION_LIFETIME
from repro.tls.ticket import TicketKeeper


def make_server_config(provider, keeper, seed=0):
    rng = Stream
    return TlsServerConfig(
        provider=provider, suites=(TLS13_ECDHE_RSA,), rng=rng(seed + 2),
        credentials_rsa=provider.make_rsa_credentials(1024, rng(seed + 1)),
        issue_tickets=True, ticket_keeper=keeper, clock=lambda: 50.0)


def first_and_resumed(provider, tamper_psk=False, server_oplog=None):
    keeper = TicketKeeper(b"\x09" * 16)
    scfg = make_server_config(provider, keeper)
    ccfg = TlsClientConfig(provider=provider, suites=(TLS13_ECDHE_RSA,),
                           rng=Stream(3))
    c1, s1 = run_loopback_handshake(client_handshake13(ccfg),
                                    server_handshake13(scfg))
    assert c1.session_ticket is not None
    assert c1.resumption_psk is not None
    psk = c1.resumption_psk
    if tamper_psk:
        psk = bytes(b ^ 1 for b in psk)
    ccfg2 = TlsClientConfig(provider=provider, suites=(TLS13_ECDHE_RSA,),
                            rng=Stream(4),
                            session_ticket=c1.session_ticket,
                            session_master_secret=psk,
                            session_suite=c1.suite)
    c2, s2 = run_loopback_handshake(client_handshake13(ccfg2),
                                    server_handshake13(scfg),
                                    server_oplog=server_oplog)
    return c1, s1, c2, s2


@pytest.mark.parametrize("provider", [RealCryptoProvider(),
                                      ModeledCryptoProvider()],
                         ids=["real", "modeled"])
def test_psk_resumption_agrees(provider):
    c1, s1, c2, s2 = first_and_resumed(provider)
    assert not s1.resumed
    assert s2.resumed and c2.resumed
    assert c2.master_secret == s2.master_secret
    assert c2.client_write_keys == s2.client_write_keys
    # Fresh ECDHE: keys differ from the first connection.
    assert c2.master_secret != c1.master_secret


def test_resumed_handshake_skips_rsa_keeps_ecc():
    """psk_dhe_ke: no certificate signature, but still 2 ECC ops —
    the offload-relevant op mix of 1.3 resumption."""
    slog = OpLog()
    first_and_resumed(ModeledCryptoProvider(), server_oplog=slog)
    assert slog.count(K.RSA_PRIV) == 0
    assert slog.count(K.ECDH_KEYGEN, K.ECDH_COMPUTE) == 2
    assert slog.count(K.HKDF) > 4


def test_wrong_psk_binder_rejected():
    with pytest.raises(TlsAlert, match="binder verify failed"):
        first_and_resumed(ModeledCryptoProvider(), tamper_psk=True)


def test_resumed_connection_gets_new_ticket():
    c1, s1, c2, s2 = first_and_resumed(ModeledCryptoProvider())
    assert c2.session_ticket is not None
    assert c2.session_ticket != c1.session_ticket
    assert c2.resumption_psk != c1.resumption_psk


def test_unknown_ticket_falls_back_to_full():
    provider = ModeledCryptoProvider()
    keeper = TicketKeeper(b"\x09" * 16)
    scfg = make_server_config(provider, keeper)
    ccfg = TlsClientConfig(provider=provider, suites=(TLS13_ECDHE_RSA,),
                           rng=Stream(5),
                           session_ticket=b"\x00" * 64,  # bogus
                           session_master_secret=b"\x01" * 32,
                           session_suite=TLS13_ECDHE_RSA)
    c, s = run_loopback_handshake(client_handshake13(ccfg),
                                  server_handshake13(scfg))
    assert not s.resumed
    assert c.master_secret == s.master_secret


def test_expired_ticket_falls_back_to_full():
    provider = ModeledCryptoProvider()
    keeper = TicketKeeper(b"\x09" * 16)
    scfg = make_server_config(provider, keeper)
    ccfg = TlsClientConfig(provider=provider, suites=(TLS13_ECDHE_RSA,),
                           rng=Stream(3))
    c1, _ = run_loopback_handshake(client_handshake13(ccfg),
                                   server_handshake13(scfg))
    scfg.clock = lambda: 50.0 + SESSION_LIFETIME + 1.0  # past the lifetime
    ccfg2 = TlsClientConfig(provider=provider, suites=(TLS13_ECDHE_RSA,),
                            rng=Stream(4),
                            session_ticket=c1.session_ticket,
                            session_master_secret=c1.resumption_psk,
                            session_suite=c1.suite)
    c2, s2 = run_loopback_handshake(client_handshake13(ccfg2),
                                    server_handshake13(scfg))
    assert not s2.resumed
    assert c2.master_secret == s2.master_secret


def test_tls13_resumption_end_to_end():
    """Full simulated server: s_time reuse over TLS 1.3."""
    from repro.bench.runner import Testbed
    bed = Testbed("QTLS", workers=2, suites=("TLS1.3-ECDHE-RSA",),
                  tls_version="1.3", seed=5, session_tickets=True)
    bed.add_s_time_fleet(n_clients=10, reuse=True)
    bed.sim.run(until=0.1)
    snap = bed.server.metrics_snapshot()
    assert snap["handshakes_resumed"] > snap["handshakes_full"]
    assert bed.metrics.errors == 0
