"""TLS 1.3 client handshake state machine (RFC 8446, 1-RTT), with
psk_dhe_ke resumption support."""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Optional

from ...crypto.ec import EcError
from ...crypto.hmac_impl import hmac_digest
from ...crypto.ops import CryptoOp, CryptoOpKind
from ..actions import (CryptoCall, HandshakeResult, NeedMessage, SendMessage,
                       TlsAlert)
from ..config import TlsClientConfig
from ..constants import RANDOM_LEN, ProtocolVersion
from ..keyschedule import Tls13Schedule
from ..messages import (Certificate, CertificateVerify, ClientHello,
                        EncryptedExtensions, Finished, NewSessionTicket,
                        ServerHello, transcript_hash)
from .psk13 import compute_binder, derive_resumption_psk, partial_ch_hash

__all__ = ["client_handshake13"]


def _hkdf_op(nbytes: int = 32) -> CryptoOp:
    return CryptoOp(CryptoOpKind.HKDF, nbytes=nbytes)


def client_handshake13(config: TlsClientConfig
                       ) -> Generator[object, object, HandshakeResult]:
    """Run one TLS 1.3 client-side handshake; offers PSK resumption
    when ``config.session_ticket`` carries a previous connection's
    ticket (+ resumption PSK in ``session_master_secret``)."""
    provider = config.provider
    schedule = Tls13Schedule(provider)
    transcript = []
    curve = config.curves[0]

    share = yield CryptoCall(
        CryptoOp(CryptoOpKind.ECDH_KEYGEN, curve=curve),
        compute=lambda: provider.ecdh_keygen(curve, config.rng),
        label="keyshare-keygen")

    offer_psk = (config.session_ticket is not None
                 and bool(config.session_master_secret))
    ch = ClientHello(
        client_random=config.rng.bytes(RANDOM_LEN),
        versions=(ProtocolVersion.TLS13,),
        cipher_suites=tuple(s.name for s in config.suites),
        supported_curves=tuple(config.curves),
        key_share_curve=curve,
        key_share=share.public_bytes,
        session_ticket=config.session_ticket if offer_psk else None)
    if offer_psk:
        binder = yield from compute_binder(
            schedule, config.session_master_secret, partial_ch_hash(ch))
        ch = replace(ch, psk_binder=binder)
    transcript.append(ch)
    yield SendMessage(ch, flush=True)

    sh = yield NeedMessage((ServerHello,))
    if not isinstance(sh, ServerHello):
        raise TlsAlert("unexpected_message: expected ServerHello")
    transcript.append(sh)
    suite = next((s for s in config.suites if s.name == sh.cipher_suite),
                 None)
    if suite is None or suite.version != ProtocolVersion.TLS13:
        raise TlsAlert("illegal_parameter: bad suite in ServerHello")
    if sh.key_share is None or sh.key_share_curve != curve:
        raise TlsAlert("illegal_parameter: bad server key share")
    resumed = sh.selected_psk is not None
    if resumed and not offer_psk:
        raise TlsAlert("illegal_parameter: server accepted unoffered PSK")

    peer = sh.key_share
    try:
        shared = yield CryptoCall(
            CryptoOp(CryptoOpKind.ECDH_COMPUTE, curve=curve),
            compute=lambda: provider.ecdh_shared(share, peer),
            label="ecdh-compute")
    except EcError as exc:
        # A share that is no valid point of the group (RFC 8446 4.2.8).
        raise TlsAlert(f"illegal_parameter: {exc}") from exc

    the_psk = config.session_master_secret if resumed else b""
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

    ee = yield NeedMessage((EncryptedExtensions,))
    if not isinstance(ee, EncryptedExtensions):
        raise TlsAlert("unexpected_message: expected EncryptedExtensions")
    transcript.append(ee)

    if not resumed:
        cert = yield NeedMessage((Certificate,))
        if not isinstance(cert, Certificate):
            raise TlsAlert("unexpected_message: expected Certificate")
        transcript.append(cert)
        if cert.kind != suite.auth:
            raise TlsAlert("bad_certificate: key type does not match suite")

        cv = yield NeedMessage((CertificateVerify,))
        if not isinstance(cv, CertificateVerify):
            raise TlsAlert("unexpected_message: expected CertificateVerify")
        to_verify = b"TLS 1.3, server CertificateVerify" + b"\x00" \
            + transcript_hash(transcript)
        verify_kind = (CryptoOpKind.RSA_PUB if suite.auth == "rsa"
                       else CryptoOpKind.ECDSA_VERIFY)
        ok = yield CryptoCall(
            CryptoOp(verify_kind, curve=cert.curve,
                     rsa_bits=(len(cert.public_bytes) - 4) * 8
                     if suite.auth == "rsa" else None),
            compute=lambda: provider.verify(
                suite.auth, cert.public_bytes, to_verify, cv.signature,
                curve=cert.curve),
            label="certificate-verify")
        if not ok:
            raise TlsAlert("decrypt_error: bad CertificateVerify signature")
        transcript.append(cv)

    # -- optional NewSessionTicket before the server Finished -------------------
    new_ticket: Optional[bytes] = None
    new_psk: Optional[bytes] = None
    msg = yield NeedMessage((NewSessionTicket, Finished))
    if isinstance(msg, NewSessionTicket):
        pre_nst = transcript_hash(transcript)
        new_psk = yield from derive_resumption_psk(schedule, master,
                                                   pre_nst, msg.nonce)
        new_ticket = msg.ticket
        msg = yield NeedMessage((Finished,))

    server_fin = msg
    if not isinstance(server_fin, Finished):
        raise TlsAlert("unexpected_message: expected Finished")
    s_fin_key = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.finished_key(s_hs),
        label="server-finished-key")
    th_cv = transcript_hash(transcript)
    if server_fin.verify_data != hmac_digest(s_fin_key, th_cv):
        raise TlsAlert("decrypt_error: server Finished verify failed")
    transcript.append(server_fin)

    c_fin_key = yield CryptoCall(
        _hkdf_op(), compute=lambda: schedule.finished_key(c_hs),
        label="client-finished-key")
    th_sf = transcript_hash(transcript)
    client_fin = Finished(verify_data=hmac_digest(c_fin_key, th_sf))
    transcript.append(client_fin)
    yield SendMessage(client_fin, encrypted=True, flush=True)

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
        session_ticket=new_ticket, resumption_psk=new_psk,
        resumed=resumed, negotiated_curve=curve)
