"""TLS 1.2 server handshake state machine (full and abbreviated).

A sans-IO generator (see :mod:`repro.tls.actions`). The crypto op
sequence per suite matches the paper's Table 1:

==============  ===  ===  ====
Suite           RSA  ECC  PRF
==============  ===  ===  ====
TLS-RSA          1    0    4
ECDHE-RSA        1    2    4
ECDHE-ECDSA      0    3    4
abbreviated      0    0    3
==============  ===  ===  ====

(The four full-handshake PRFs: master secret, key expansion, client
Finished verify, server Finished.)
"""

from __future__ import annotations

from typing import Generator, Optional

from ...crypto.ops import CryptoOp, CryptoOpKind
from ...crypto.rsa import RsaError
from ..actions import CryptoCall, HandshakeResult, SendMessage, TlsAlert
from ..config import TlsServerConfig
from ..constants import PREMASTER_LEN, RANDOM_LEN, ProtocolVersion
from ..keyschedule import derive_master_secret
from ..messages import (Certificate, ChangeCipherSpec, ClientHello,
                        ClientKeyExchange, NewSessionTicket, ServerHello,
                        ServerHelloDone, ServerKeyExchange)
from ..session import SessionState
from ..suites import CipherSuite
from .steps import (check_finished12, ecdh_compute, expect, key_expansion,
                    keygen, send_finished12, sign)

__all__ = ["server_handshake12"]


def _select_suite(config: TlsServerConfig, ch: ClientHello) -> CipherSuite:
    offered = set(ch.cipher_suites)
    for suite in config.suites:
        if suite.name in offered and suite.version == ProtocolVersion.TLS12:
            return suite
    raise TlsAlert("handshake_failure: no common cipher suite")


def _select_curve(config: TlsServerConfig, ch: ClientHello) -> str:
    offered = set(ch.supported_curves)
    for curve in config.curves:
        if curve in offered:
            return curve
    raise TlsAlert("handshake_failure: no common curve")


def server_handshake12(config: TlsServerConfig
                       ) -> Generator[object, object, HandshakeResult]:
    """Run one TLS 1.2 server-side handshake to completion."""
    provider = config.provider
    transcript = []

    ch = yield from expect(ClientHello)
    transcript.append(ch)
    suite = _select_suite(config, ch)
    server_random = config.rng.bytes(RANDOM_LEN)

    # -- abbreviated handshake (session resumption)? ------------------------
    # Stateless tickets (RFC 5077) take precedence over the session-ID
    # cache, as in OpenSSL.
    cached: Optional[SessionState] = None
    if ch.session_ticket and config.ticket_keeper is not None:
        cached = config.ticket_keeper.open(ch.session_ticket,
                                           config.clock())
    if cached is None and ch.session_id \
            and config.session_cache is not None:
        cached = config.session_cache.get(ch.session_id)
    if cached is not None and cached.suite != suite:
        cached = None  # suite changed; fall back to full handshake
    resumed = cached is not None
    if resumed:
        session_id = cached.session_id
    else:
        session_id = config.rng.bytes(16) \
            if config.session_cache is not None else b""
    sh = ServerHello(server_random=server_random,
                     version=ProtocolVersion.TLS12,
                     cipher_suite=suite.name, session_id=session_id,
                     resumed=resumed)
    transcript.append(sh)
    yield SendMessage(sh)

    if resumed:
        # PRF calculations only (paper section 5.3).
        master_secret = cached.master_secret
        client_keys, server_keys = yield from key_expansion(
            config, suite, master_secret, ch.client_random, server_random)
        yield from send_finished12(config, "server", master_secret,
                                   transcript)
        yield from expect(ChangeCipherSpec)
        yield from check_finished12(config, "client", master_secret,
                                    transcript)
        return HandshakeResult(
            suite=suite, master_secret=master_secret,
            client_write_keys=client_keys, server_write_keys=server_keys,
            session_id=session_id, resumed=True)

    # -- full handshake ------------------------------------------------------
    cred = config.credentials_for(suite)
    cert = Certificate(kind=cred.kind, public_bytes=cred.public_bytes,
                       curve=cred.curve)
    transcript.append(cert)
    yield SendMessage(cert)

    negotiated_curve = None
    server_share = None
    if suite.kx == "ecdhe":
        negotiated_curve = _select_curve(config, ch)
        server_share = yield keygen(config, negotiated_curve, "ske-keygen")
        unsigned = ServerKeyExchange(curve=negotiated_curve,
                                     public=server_share.public_bytes)
        signature = yield sign(
            config, cred,
            unsigned.signed_portion(ch.client_random, server_random),
            "ske-sign")
        ske = ServerKeyExchange(curve=negotiated_curve,
                                public=server_share.public_bytes,
                                signature=signature)
        transcript.append(ske)
        yield SendMessage(ske)

    shd = ServerHelloDone()
    transcript.append(shd)
    yield SendMessage(shd, flush=True)

    # -- client's reply flight -----------------------------------------------
    cke = yield from expect(ClientKeyExchange)
    transcript.append(cke)

    if suite.kx == "rsa":
        if not cke.encrypted_premaster:
            raise TlsAlert("decode_error: missing encrypted premaster")
        ct = cke.encrypted_premaster
        try:
            premaster = yield CryptoCall(
                CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=cred.rsa_bits),
                compute=lambda: provider.rsa_decrypt(cred, ct, PREMASTER_LEN),
                label="premaster-decrypt")
        except RsaError:
            # RFC 5246 7.4.7.1: go on with a random premaster, so the
            # handshake fails at the client Finished like any other
            # mismatch and leaks nothing about the padding.
            premaster = config.rng.bytes(PREMASTER_LEN)
    else:
        if not cke.public:
            raise TlsAlert("decode_error: missing client key share")
        premaster = yield from ecdh_compute(config, server_share, cke.public,
                                            negotiated_curve)

    master_secret = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=48),
        compute=lambda: derive_master_secret(
            provider, premaster, ch.client_random, server_random),
        label="master-secret")
    client_keys, server_keys = yield from key_expansion(
        config, suite, master_secret, ch.client_random, server_random)

    yield from expect(ChangeCipherSpec)
    yield from check_finished12(config, "client", master_secret, transcript)

    ticket = None
    if config.issue_tickets:
        if config.ticket_keeper is not None:
            ticket = config.ticket_keeper.seal(
                SessionState(session_id=session_id or b"\x00" * 16,
                             suite=suite, master_secret=master_secret,
                             created_at=config.clock()),
                config.clock())
        else:
            ticket = config.rng.bytes(32)  # opaque, cache-backed
        yield SendMessage(NewSessionTicket(ticket=ticket))
    yield from send_finished12(config, "server", master_secret, transcript)

    if config.session_cache is not None and session_id:
        config.session_cache.put(SessionState(
            session_id=session_id, suite=suite,
            master_secret=master_secret,
            created_at=config.session_cache.sim.now))

    return HandshakeResult(
        suite=suite, master_secret=master_secret,
        client_write_keys=client_keys, server_write_keys=server_keys,
        session_id=session_id, session_ticket=ticket, resumed=False,
        negotiated_curve=negotiated_curve)
