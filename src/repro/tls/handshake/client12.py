"""TLS 1.2 client handshake state machine (full and abbreviated)."""

from __future__ import annotations

from typing import Generator

from ...crypto.ops import CryptoOp, CryptoOpKind
from ..actions import CryptoCall, HandshakeResult, SendMessage, TlsAlert
from ..config import TlsClientConfig
from ..constants import PREMASTER_LEN, RANDOM_LEN, ProtocolVersion
from ..keyschedule import derive_master_secret
from ..messages import (Certificate, ChangeCipherSpec, ClientHello,
                        ClientKeyExchange, NewSessionTicket, ServerHello,
                        ServerHelloDone, ServerKeyExchange)
from .steps import (check_finished12, ecdh_compute, expect, key_expansion,
                    keygen, send_finished12, verify)

__all__ = ["client_handshake12"]


def client_handshake12(config: TlsClientConfig
                       ) -> Generator[object, object, HandshakeResult]:
    """Run one TLS 1.2 client-side handshake to completion.

    If ``config.session_id`` (with its master secret) is set, offers
    resumption; the server decides whether to accept.
    """
    provider = config.provider
    transcript = []
    client_random = config.rng.bytes(RANDOM_LEN)

    ch = ClientHello(
        client_random=client_random,
        versions=(ProtocolVersion.TLS12,),
        cipher_suites=tuple(s.name for s in config.suites),
        session_id=config.session_id,
        session_ticket=config.session_ticket,
        supported_curves=tuple(config.curves))
    transcript.append(ch)
    yield SendMessage(ch, flush=True)

    sh = yield from expect(ServerHello)
    transcript.append(sh)
    suite = next((s for s in config.suites if s.name == sh.cipher_suite),
                 None)
    if suite is None:
        raise TlsAlert("illegal_parameter: server chose unknown suite")

    if sh.resumed:
        offered_id = (config.session_id
                      and sh.session_id == config.session_id)
        offered_ticket = config.session_ticket is not None
        if (not (offered_id or offered_ticket)
                or config.session_suite != suite):
            raise TlsAlert("illegal_parameter: bogus resumption")
        master_secret = config.session_master_secret
        client_keys, server_keys = yield from key_expansion(
            config, suite, master_secret, client_random, sh.server_random)
        yield from expect(ChangeCipherSpec)
        yield from check_finished12(config, "server", master_secret,
                                    transcript)
        yield from send_finished12(config, "client", master_secret,
                                   transcript)
        return HandshakeResult(
            suite=suite, master_secret=master_secret,
            client_write_keys=client_keys, server_write_keys=server_keys,
            session_id=sh.session_id, resumed=True)

    cert = yield from expect(Certificate)
    transcript.append(cert)
    if cert.kind != suite.auth:
        raise TlsAlert("bad_certificate: key type does not match suite")

    server_point = None
    negotiated_curve = None
    if suite.kx == "ecdhe":
        ske = yield from expect(ServerKeyExchange)
        transcript.append(ske)
        negotiated_curve = ske.curve
        if negotiated_curve not in config.curves:
            raise TlsAlert("illegal_parameter: curve not offered")
        yield from verify(
            config, suite, cert,
            ske.signed_portion(client_random, sh.server_random),
            ske.signature, "ServerKeyExchange", "ske-verify")
        server_point = ske.public

    shd = yield from expect(ServerHelloDone)
    transcript.append(shd)

    # -- key exchange ---------------------------------------------------------
    if suite.kx == "rsa":
        premaster = config.rng.bytes(PREMASTER_LEN)
        pub = cert.public_bytes
        encrypted = yield CryptoCall(
            CryptoOp(CryptoOpKind.RSA_PUB,
                     rsa_bits=(len(pub) - 4) * 8),
            compute=lambda: provider.rsa_encrypt(pub, premaster, config.rng),
            label="premaster-encrypt")
        cke = ClientKeyExchange(encrypted_premaster=encrypted)
    else:
        share = yield keygen(config, negotiated_curve, "cke-keygen")
        premaster = yield from ecdh_compute(config, share, server_point,
                                            negotiated_curve)
        cke = ClientKeyExchange(public=share.public_bytes)
    transcript.append(cke)
    yield SendMessage(cke)

    master_secret = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=48),
        compute=lambda: derive_master_secret(
            provider, premaster, client_random, sh.server_random),
        label="master-secret")
    client_keys, server_keys = yield from key_expansion(
        config, suite, master_secret, client_random, sh.server_random)
    yield from send_finished12(config, "client", master_secret, transcript)

    # -- server's final flight -------------------------------------------------
    ticket = None
    msg = yield from expect(NewSessionTicket, ChangeCipherSpec)
    if isinstance(msg, NewSessionTicket):
        ticket = msg.ticket
        yield from expect(ChangeCipherSpec)
    yield from check_finished12(config, "server", master_secret, transcript)

    return HandshakeResult(
        suite=suite, master_secret=master_secret,
        client_write_keys=client_keys, server_write_keys=server_keys,
        session_id=sh.session_id, session_ticket=ticket, resumed=False,
        negotiated_curve=negotiated_curve)
