"""Stateless session ticket (RFC 5077) tests."""

import pytest

from repro.sim.rng import Stream
from repro.tls.session import SESSION_LIFETIME, SessionState
from repro.tls.suites import ECDHE_RSA, TLS_RSA
from repro.tls.ticket import TicketKeeper


def make_state(suite=ECDHE_RSA):
    return SessionState(session_id=b"\x11" * 16, suite=suite,
                        master_secret=b"\x22" * 48, created_at=0.0)


def test_seal_open_roundtrip():
    keeper = TicketKeeper(b"\x01" * 16)
    ticket = keeper.seal(make_state(), now=100.0)
    state = keeper.open(ticket, now=200.0)
    assert state is not None
    assert state.master_secret == b"\x22" * 48
    assert state.suite is ECDHE_RSA
    assert state.session_id == b"\x11" * 16
    assert keeper.issued == 1 and keeper.accepted == 1


def test_expired_ticket_rejected():
    keeper = TicketKeeper(b"\x01" * 16)
    ticket = keeper.seal(make_state(), now=100.0)
    assert keeper.open(ticket, now=100.0 + SESSION_LIFETIME) is not None
    assert keeper.open(ticket, now=101.0 + SESSION_LIFETIME) is None
    assert keeper.rejected == 1


def test_tampered_ticket_rejected():
    keeper = TicketKeeper(b"\x01" * 16)
    ticket = bytearray(keeper.seal(make_state(), now=0.0))
    ticket[-1] ^= 1
    assert keeper.open(bytes(ticket), now=0.0) is None


def test_wrong_key_rejected():
    k1 = TicketKeeper(b"\x01" * 16)
    k2 = TicketKeeper(b"\x02" * 16)
    ticket = k1.seal(make_state(), now=0.0)
    assert k2.open(ticket, now=0.0) is None


def test_garbage_rejected():
    keeper = TicketKeeper(b"\x01" * 16)
    assert keeper.open(b"", now=0.0) is None
    assert keeper.open(b"\x00" * 64, now=0.0) is None


def test_tickets_are_unique():
    keeper = TicketKeeper(b"\x01" * 16)
    t1 = keeper.seal(make_state(), now=0.0)
    t2 = keeper.seal(make_state(), now=0.0)
    assert t1 != t2  # fresh nonce per ticket


def test_validation():
    with pytest.raises(ValueError):
        TicketKeeper(b"short")


# -- handshake integration ------------------------------------------------------

def test_ticket_resumption_without_cache():
    """A server with NO session cache resumes purely from the ticket."""
    from repro.crypto.provider import ModeledCryptoProvider
    from repro.tls import (TlsClientConfig, TlsServerConfig,
                           client_handshake12, run_loopback_handshake,
                           server_handshake12)

    provider = ModeledCryptoProvider()
    rng = Stream
    keeper = TicketKeeper(b"\x07" * 16)
    scfg = TlsServerConfig(
        provider=provider, suites=(TLS_RSA,), rng=rng(2),
        credentials_rsa=provider.make_rsa_credentials(1024, rng(1)),
        session_cache=None, issue_tickets=True, ticket_keeper=keeper,
        clock=lambda: 42.0)
    ccfg = TlsClientConfig(provider=provider, suites=(TLS_RSA,), rng=rng(3))
    c1, s1 = run_loopback_handshake(client_handshake12(ccfg),
                                    server_handshake12(scfg))
    assert c1.session_ticket is not None
    assert not s1.resumed

    ccfg2 = TlsClientConfig(provider=provider, suites=(TLS_RSA,),
                            rng=rng(4), session_ticket=c1.session_ticket,
                            session_master_secret=c1.master_secret,
                            session_suite=c1.suite)
    c2, s2 = run_loopback_handshake(client_handshake12(ccfg2),
                                    server_handshake12(scfg))
    assert s2.resumed and c2.resumed
    assert s2.master_secret == s1.master_secret
    assert keeper.accepted == 1


def test_ticket_resumption_end_to_end():
    """Full simulated server with tickets enabled and cache disabled."""
    from repro.bench.runner import Testbed
    bed = Testbed("QTLS", workers=2, suites=("ECDHE-RSA",), seed=5,
                  session_cache_enabled=False, session_tickets=True)
    bed.add_s_time_fleet(n_clients=10, reuse=True)
    bed.sim.run(until=0.1)
    snap = bed.server.metrics_snapshot()
    assert snap["handshakes_resumed"] > snap["handshakes_full"]
    assert bed.server.ticket_keeper.accepted > 0
    assert bed.metrics.errors == 0
