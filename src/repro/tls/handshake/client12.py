"""TLS 1.2 client handshake state machine (full and abbreviated)."""

from __future__ import annotations

from typing import Generator

from ...crypto.ec import EcError
from ...crypto.ops import CryptoOp, CryptoOpKind
from ..actions import (CryptoCall, HandshakeResult, NeedMessage, SendMessage,
                       TlsAlert)
from ..config import TlsClientConfig
from ..constants import PREMASTER_LEN, RANDOM_LEN, ProtocolVersion
from ..keyschedule import (derive_key_block, derive_master_secret,
                           finished_verify_data, split_key_block)
from ..messages import (Certificate, ChangeCipherSpec, ClientHello,
                        ClientKeyExchange, Finished, NewSessionTicket,
                        ServerHello, ServerHelloDone, ServerKeyExchange,
                        transcript_hash)

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

    sh = yield NeedMessage((ServerHello,))
    if not isinstance(sh, ServerHello):
        raise TlsAlert("unexpected_message: expected ServerHello")
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
        return (yield from _abbreviated_client(
            config, suite, client_random, sh, transcript))

    cert = yield NeedMessage((Certificate,))
    if not isinstance(cert, Certificate):
        raise TlsAlert("unexpected_message: expected Certificate")
    transcript.append(cert)
    if cert.kind != suite.auth:
        raise TlsAlert("bad_certificate: key type does not match suite")

    server_point = None
    negotiated_curve = None
    if suite.kx == "ecdhe":
        ske = yield NeedMessage((ServerKeyExchange,))
        if not isinstance(ske, ServerKeyExchange):
            raise TlsAlert("unexpected_message: expected ServerKeyExchange")
        transcript.append(ske)
        negotiated_curve = ske.curve
        if negotiated_curve not in config.curves:
            raise TlsAlert("illegal_parameter: curve not offered")
        signed = ske.signed_portion(client_random, sh.server_random)
        verify_kind = (CryptoOpKind.RSA_PUB if suite.auth == "rsa"
                       else CryptoOpKind.ECDSA_VERIFY)
        ok = yield CryptoCall(
            CryptoOp(verify_kind, curve=cert.curve,
                     rsa_bits=len(cert.public_bytes) * 8 - 32
                     if suite.auth == "rsa" else None),
            compute=lambda: provider.verify(
                suite.auth, cert.public_bytes, signed, ske.signature,
                curve=cert.curve),
            label="ske-verify")
        if not ok:
            raise TlsAlert("decrypt_error: bad ServerKeyExchange signature")
        server_point = ske.public

    shd = yield NeedMessage((ServerHelloDone,))
    if not isinstance(shd, ServerHelloDone):
        raise TlsAlert("unexpected_message: expected ServerHelloDone")
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
        curve = negotiated_curve
        share = yield CryptoCall(
            CryptoOp(CryptoOpKind.ECDH_KEYGEN, curve=curve),
            compute=lambda: provider.ecdh_keygen(curve, config.rng),
            label="cke-keygen")
        point = server_point
        try:
            premaster = yield CryptoCall(
                CryptoOp(CryptoOpKind.ECDH_COMPUTE, curve=curve),
                compute=lambda: provider.ecdh_shared(share, point),
                label="ecdh-compute")
        except EcError as exc:
            # A signed share that is no valid point of the curve
            # (RFC 8422 5.4).
            raise TlsAlert(f"illegal_parameter: {exc}") from exc
        cke = ClientKeyExchange(public=share.public_bytes)
    transcript.append(cke)
    yield SendMessage(cke)

    master_secret = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=48),
        compute=lambda: derive_master_secret(
            provider, premaster, client_random, sh.server_random),
        label="master-secret")
    key_block = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=suite.key_block_len),
        compute=lambda: derive_key_block(
            provider, master_secret, client_random, sh.server_random, suite),
        label="key-expansion")
    client_keys, server_keys = split_key_block(key_block, suite)

    yield SendMessage(ChangeCipherSpec())
    th = transcript_hash(transcript)
    verify_data = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=12),
        compute=lambda: finished_verify_data(
            provider, master_secret, b"client finished", th),
        label="client-finished")
    client_fin = Finished(verify_data=verify_data)
    transcript.append(client_fin)
    yield SendMessage(client_fin, encrypted=True, flush=True)

    # -- server's final flight -------------------------------------------------
    ticket = None
    msg = yield NeedMessage((NewSessionTicket, ChangeCipherSpec))
    if isinstance(msg, NewSessionTicket):
        ticket = msg.ticket
        msg = yield NeedMessage((ChangeCipherSpec,))
    if not isinstance(msg, ChangeCipherSpec):
        raise TlsAlert("unexpected_message: expected ChangeCipherSpec")
    server_fin = yield NeedMessage((Finished,))
    if not isinstance(server_fin, Finished):
        raise TlsAlert("unexpected_message: expected Finished")
    th2 = transcript_hash(transcript)
    expected = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=12),
        compute=lambda: finished_verify_data(
            provider, master_secret, b"server finished", th2),
        label="server-finished-verify")
    if server_fin.verify_data != expected:
        raise TlsAlert("decrypt_error: server Finished verify failed")

    return HandshakeResult(
        suite=suite, master_secret=master_secret,
        client_write_keys=client_keys, server_write_keys=server_keys,
        session_id=sh.session_id, session_ticket=ticket, resumed=False,
        negotiated_curve=negotiated_curve)


def _abbreviated_client(config: TlsClientConfig, suite, client_random: bytes,
                        sh: ServerHello, transcript: list
                        ) -> Generator[object, object, HandshakeResult]:
    provider = config.provider
    master_secret = config.session_master_secret

    key_block = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=suite.key_block_len),
        compute=lambda: derive_key_block(
            provider, master_secret, client_random, sh.server_random, suite),
        label="key-expansion")
    client_keys, server_keys = split_key_block(key_block, suite)

    ccs = yield NeedMessage((ChangeCipherSpec,))
    if not isinstance(ccs, ChangeCipherSpec):
        raise TlsAlert("unexpected_message: expected ChangeCipherSpec")
    server_fin = yield NeedMessage((Finished,))
    if not isinstance(server_fin, Finished):
        raise TlsAlert("unexpected_message: expected Finished")
    th = transcript_hash(transcript)
    expected = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=12),
        compute=lambda: finished_verify_data(
            provider, master_secret, b"server finished", th),
        label="server-finished-verify")
    if server_fin.verify_data != expected:
        raise TlsAlert("decrypt_error: server Finished verify failed")
    transcript.append(server_fin)

    yield SendMessage(ChangeCipherSpec())
    th2 = transcript_hash(transcript)
    verify_data = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=12),
        compute=lambda: finished_verify_data(
            provider, master_secret, b"client finished", th2),
        label="client-finished")
    yield SendMessage(Finished(verify_data=verify_data), encrypted=True,
                      flush=True)

    return HandshakeResult(
        suite=suite, master_secret=master_secret,
        client_write_keys=client_keys, server_write_keys=server_keys,
        session_id=sh.session_id, resumed=True)
