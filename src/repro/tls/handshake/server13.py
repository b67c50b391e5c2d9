"""TLS 1.3 server handshake state machine (RFC 8446, 1-RTT).

One network round trip is saved relative to TLS 1.2 but the crypto
cannot be omitted (paper section 2.1): the server still performs
1 RSA signature (CertificateVerify) + 2 ECC ops (key share generation
and ECDH), and *more* key-derivation work than TLS 1.2 — via HKDF,
which the QAT Engine cannot offload. That pins the Figure 8 result.

PSK resumption (psk_dhe_ke, an extension beyond the paper's
evaluation) skips the certificate and its RSA signature while keeping
the ECDHE pair — see :mod:`repro.tls.handshake.psk13`.
"""

from __future__ import annotations

from typing import Generator, Optional

from ...crypto.ec import EcError
from ...crypto.hmac_impl import hmac_digest
from ...crypto.ops import CryptoOp, CryptoOpKind
from ..actions import (CryptoCall, HandshakeResult, NeedMessage, SendMessage,
                       TlsAlert)
from ..config import TlsServerConfig
from ..constants import RANDOM_LEN, ProtocolVersion
from ..keyschedule import Tls13Schedule
from ..messages import (Certificate, CertificateVerify, ClientHello,
                        EncryptedExtensions, Finished, NewSessionTicket,
                        ServerHello, transcript_hash)
from ..session import SessionState
from ..suites import CipherSuite
from .psk13 import compute_binder, derive_resumption_psk, partial_ch_hash

__all__ = ["server_handshake13"]


def _select_suite13(config: TlsServerConfig, ch: ClientHello) -> CipherSuite:
    offered = set(ch.cipher_suites)
    for suite in config.suites:
        if suite.name in offered and suite.version == ProtocolVersion.TLS13:
            return suite
    raise TlsAlert("handshake_failure: no common TLS 1.3 suite")


def _hkdf_op(nbytes: int = 32) -> CryptoOp:
    return CryptoOp(CryptoOpKind.HKDF, nbytes=nbytes)


def server_handshake13(config: TlsServerConfig
                       ) -> Generator[object, object, HandshakeResult]:
    """Run one TLS 1.3 server-side handshake (full or PSK-resumed)."""
    provider = config.provider
    schedule = Tls13Schedule(provider)
    transcript = []

    ch = yield NeedMessage((ClientHello,))
    if not isinstance(ch, ClientHello):
        raise TlsAlert("unexpected_message: expected ClientHello")
    transcript.append(ch)
    suite = _select_suite13(config, ch)
    if ch.key_share is None or ch.key_share_curve is None:
        # A HelloRetryRequest round would be needed; the reproduction
        # requires clients to send a share (as modern clients do).
        raise TlsAlert("missing_extension: no key_share in ClientHello")
    curve = ch.key_share_curve
    if curve not in config.curves:
        raise TlsAlert("illegal_parameter: unsupported key-share group")

    # -- PSK offer (resumption)? ------------------------------------------------
    psk: Optional[bytes] = None
    if (ch.session_ticket and ch.psk_binder
            and config.ticket_keeper is not None):
        state = config.ticket_keeper.open(ch.session_ticket, config.clock())
        if state is not None and state.suite == suite:
            expected = yield from compute_binder(
                schedule, state.master_secret, partial_ch_hash(ch))
            if expected != ch.psk_binder:
                raise TlsAlert("decrypt_error: PSK binder verify failed")
            psk = state.master_secret
    resumed = psk is not None

    # -- (EC)DHE: two ECC ops (psk_dhe_ke keeps them on resumption) ---------------
    server_share = yield CryptoCall(
        CryptoOp(CryptoOpKind.ECDH_KEYGEN, curve=curve),
        compute=lambda: provider.ecdh_keygen(curve, config.rng),
        label="keyshare-keygen")
    peer = ch.key_share
    try:
        shared = yield CryptoCall(
            CryptoOp(CryptoOpKind.ECDH_COMPUTE, curve=curve),
            compute=lambda: provider.ecdh_shared(server_share, peer),
            label="ecdh-compute")
    except EcError as exc:
        # A share that is no valid point of the group (RFC 8446 4.2.8).
        raise TlsAlert(f"illegal_parameter: {exc}") from exc

    sh = ServerHello(server_random=config.rng.bytes(RANDOM_LEN),
                     version=ProtocolVersion.TLS13,
                     cipher_suite=suite.name,
                     resumed=resumed,
                     key_share_curve=curve,
                     key_share=server_share.public_bytes,
                     selected_psk=0 if resumed else None)
    transcript.append(sh)
    yield SendMessage(sh)

    # -- key schedule: HKDF ops (not offloadable) -----------------------------
    the_psk = psk or b""
    early = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.early_secret(the_psk),
        label="early-secret")
    hs_secret = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.handshake_secret(early, shared),
        label="handshake-secret")
    th_sh = transcript_hash(transcript)
    c_hs = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.derive_secret(
            hs_secret, b"c hs traffic", th_sh),
        label="client-hs-traffic")
    s_hs = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.derive_secret(
            hs_secret, b"s hs traffic", th_sh),
        label="server-hs-traffic")
    master = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.master_secret(hs_secret),
        label="master-secret")

    ee = EncryptedExtensions()
    transcript.append(ee)
    yield SendMessage(ee, encrypted=True)

    if not resumed:
        cred = config.credentials_for(suite)
        cert = Certificate(kind=cred.kind, public_bytes=cred.public_bytes,
                           curve=cred.curve)
        transcript.append(cert)
        yield SendMessage(cert, encrypted=True)

        # CertificateVerify: the RSA op (skipped entirely on resumption).
        to_sign = b"TLS 1.3, server CertificateVerify" + b"\x00" \
            + transcript_hash(transcript)
        sign_kind = (CryptoOpKind.RSA_PRIV if cred.kind == "rsa"
                     else CryptoOpKind.ECDSA_SIGN)
        signature = yield CryptoCall(
            CryptoOp(sign_kind, rsa_bits=cred.rsa_bits,
                     curve=cred.sig_curve),
            compute=lambda: provider.sign(cred, to_sign),
            label="certificate-verify")
        cv = CertificateVerify(signature=signature)
        transcript.append(cv)
        yield SendMessage(cv, encrypted=True)

    # -- NewSessionTicket (flow simplification: sent pre-Finished) -------------
    ticket_out: Optional[bytes] = None
    if config.issue_tickets and config.ticket_keeper is not None:
        pre_nst = transcript_hash(transcript)
        nonce = config.rng.bytes(8)
        new_psk = yield from derive_resumption_psk(schedule, master,
                                                   pre_nst, nonce)
        ticket_out = config.ticket_keeper.seal(
            SessionState(session_id=b"", suite=suite,
                         master_secret=new_psk,
                         created_at=config.clock()),
            config.clock())
        yield SendMessage(NewSessionTicket(ticket=ticket_out, nonce=nonce),
                          encrypted=True)

    s_fin_key = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.finished_key(s_hs),
        label="server-finished-key")
    th_cv = transcript_hash(transcript)
    server_fin = Finished(verify_data=hmac_digest(s_fin_key, th_cv))
    transcript.append(server_fin)
    yield SendMessage(server_fin, encrypted=True, flush=True)

    # -- client Finished --------------------------------------------------------
    client_fin = yield NeedMessage((Finished,))
    if not isinstance(client_fin, Finished):
        raise TlsAlert("unexpected_message: expected Finished")
    c_fin_key = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.finished_key(c_hs),
        label="client-finished-key")
    th_sf = transcript_hash(transcript)
    if client_fin.verify_data != hmac_digest(c_fin_key, th_sf):
        raise TlsAlert("decrypt_error: client Finished verify failed")
    transcript.append(client_fin)

    # -- application traffic secrets ----------------------------------------------
    th_full = transcript_hash(transcript)
    c_app = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.derive_secret(
            master, b"c ap traffic", th_full),
        label="client-app-traffic")
    s_app = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.derive_secret(
            master, b"s ap traffic", th_full),
        label="server-app-traffic")
    client_keys = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.traffic_keys(c_app, suite),
        label="client-app-keys")
    server_keys = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.traffic_keys(s_app, suite),
        label="server-app-keys")

    return HandshakeResult(
        suite=suite, master_secret=master,
        client_write_keys=client_keys, server_write_keys=server_keys,
        session_ticket=ticket_out, resumed=resumed,
        negotiated_curve=curve)
