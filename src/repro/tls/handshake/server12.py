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

from ...crypto.ec import EcError
from ...crypto.ops import CryptoOp, CryptoOpKind
from ...crypto.rsa import RsaError
from ..actions import (CryptoCall, HandshakeResult, NeedMessage, SendMessage,
                       TlsAlert)
from ..config import TlsServerConfig
from ..constants import PREMASTER_LEN, RANDOM_LEN, ProtocolVersion
from ..keyschedule import (derive_key_block, derive_master_secret,
                           finished_verify_data, split_key_block)
from ..messages import (Certificate, ChangeCipherSpec, ClientHello, Finished,
                        NewSessionTicket, ServerHello, ServerHelloDone,
                        ClientKeyExchange, ServerKeyExchange,
                        transcript_hash)
from ..session import SessionState
from ..suites import CipherSuite

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

    ch = yield NeedMessage((ClientHello,))
    if not isinstance(ch, ClientHello):
        raise TlsAlert("unexpected_message: expected ClientHello")
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
    if cached is not None:
        return (yield from _abbreviated(config, ch, cached, server_random,
                                        transcript))

    # -- full handshake ------------------------------------------------------
    session_id = config.rng.bytes(16) \
        if config.session_cache is not None else b""
    sh = ServerHello(server_random=server_random,
                     version=ProtocolVersion.TLS12,
                     cipher_suite=suite.name, session_id=session_id)
    transcript.append(sh)
    yield SendMessage(sh)

    cred = config.credentials_for(suite)
    cert = Certificate(kind=cred.kind, public_bytes=cred.public_bytes,
                       curve=cred.curve)
    transcript.append(cert)
    yield SendMessage(cert)

    negotiated_curve = None
    server_share = None
    if suite.kx == "ecdhe":
        negotiated_curve = _select_curve(config, ch)
        curve = negotiated_curve
        server_share = yield CryptoCall(
            CryptoOp(CryptoOpKind.ECDH_KEYGEN, curve=curve),
            compute=lambda: provider.ecdh_keygen(curve, config.rng),
            label="ske-keygen")
        unsigned = ServerKeyExchange(curve=curve,
                                     public=server_share.public_bytes)
        to_sign = unsigned.signed_portion(ch.client_random, server_random)
        sign_kind = (CryptoOpKind.RSA_PRIV if cred.kind == "rsa"
                     else CryptoOpKind.ECDSA_SIGN)
        signature = yield CryptoCall(
            CryptoOp(sign_kind, rsa_bits=cred.rsa_bits, curve=cred.sig_curve),
            compute=lambda: provider.sign(cred, to_sign),
            label="ske-sign")
        ske = ServerKeyExchange(curve=curve,
                                public=server_share.public_bytes,
                                signature=signature)
        transcript.append(ske)
        yield SendMessage(ske)

    shd = ServerHelloDone()
    transcript.append(shd)
    yield SendMessage(shd, flush=True)

    # -- client's reply flight -----------------------------------------------
    cke = yield NeedMessage((ClientKeyExchange,))
    if not isinstance(cke, ClientKeyExchange):
        raise TlsAlert("unexpected_message: expected ClientKeyExchange")
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
        peer_pub = cke.public
        share = server_share
        try:
            premaster = yield CryptoCall(
                CryptoOp(CryptoOpKind.ECDH_COMPUTE, curve=negotiated_curve),
                compute=lambda: provider.ecdh_shared(share, peer_pub),
                label="ecdh-compute")
        except EcError as exc:
            # A share that is no valid point of the curve (RFC 8422).
            raise TlsAlert(f"illegal_parameter: {exc}") from exc

    master_secret = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=48),
        compute=lambda: derive_master_secret(
            provider, premaster, ch.client_random, server_random),
        label="master-secret")

    key_block = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=suite.key_block_len),
        compute=lambda: derive_key_block(
            provider, master_secret, ch.client_random, server_random, suite),
        label="key-expansion")
    client_keys, server_keys = split_key_block(key_block, suite)

    ccs_in = yield NeedMessage((ChangeCipherSpec,))
    if not isinstance(ccs_in, ChangeCipherSpec):
        raise TlsAlert("unexpected_message: expected ChangeCipherSpec")

    client_fin = yield NeedMessage((Finished,))
    if not isinstance(client_fin, Finished):
        raise TlsAlert("unexpected_message: expected Finished")
    th = transcript_hash(transcript)
    expected = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=12),
        compute=lambda: finished_verify_data(
            provider, master_secret, b"client finished", th),
        label="client-finished-verify")
    if client_fin.verify_data != expected:
        raise TlsAlert("decrypt_error: client Finished verify failed")
    transcript.append(client_fin)

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
    yield SendMessage(ChangeCipherSpec())
    th2 = transcript_hash(transcript)
    server_verify = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=12),
        compute=lambda: finished_verify_data(
            provider, master_secret, b"server finished", th2),
        label="server-finished")
    server_fin = Finished(verify_data=server_verify)
    transcript.append(server_fin)
    yield SendMessage(server_fin, encrypted=True, flush=True)

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


def _abbreviated(config: TlsServerConfig, ch: ClientHello,
                 cached: SessionState, server_random: bytes,
                 transcript: list
                 ) -> Generator[object, object, HandshakeResult]:
    """Abbreviated handshake: PRF calculations only (paper section 5.3)."""
    provider = config.provider
    suite = cached.suite
    master_secret = cached.master_secret

    sh = ServerHello(server_random=server_random,
                     version=ProtocolVersion.TLS12,
                     cipher_suite=suite.name,
                     session_id=cached.session_id, resumed=True)
    transcript.append(sh)
    yield SendMessage(sh)

    key_block = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=suite.key_block_len),
        compute=lambda: derive_key_block(
            provider, master_secret, ch.client_random, server_random, suite),
        label="key-expansion")
    client_keys, server_keys = split_key_block(key_block, suite)

    yield SendMessage(ChangeCipherSpec())
    th = transcript_hash(transcript)
    server_verify = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=12),
        compute=lambda: finished_verify_data(
            provider, master_secret, b"server finished", th),
        label="server-finished")
    server_fin = Finished(verify_data=server_verify)
    transcript.append(server_fin)
    yield SendMessage(server_fin, encrypted=True, flush=True)

    ccs_in = yield NeedMessage((ChangeCipherSpec,))
    if not isinstance(ccs_in, ChangeCipherSpec):
        raise TlsAlert("unexpected_message: expected ChangeCipherSpec")
    client_fin = yield NeedMessage((Finished,))
    if not isinstance(client_fin, Finished):
        raise TlsAlert("unexpected_message: expected Finished")
    th2 = transcript_hash(transcript)
    expected = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=12),
        compute=lambda: finished_verify_data(
            provider, master_secret, b"client finished", th2),
        label="client-finished-verify")
    if client_fin.verify_data != expected:
        raise TlsAlert("decrypt_error: client Finished verify failed")

    return HandshakeResult(
        suite=suite, master_secret=master_secret,
        client_write_keys=client_keys, server_write_keys=server_keys,
        session_id=cached.session_id, resumed=True)
