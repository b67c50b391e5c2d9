"""TLS 1.3 client handshake state machine (RFC 8446, 1-RTT), with
psk_dhe_ke resumption support."""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Optional

from ..actions import HandshakeResult, SendMessage, TlsAlert
from ..config import TlsClientConfig
from ..constants import RANDOM_LEN, ProtocolVersion
from ..keyschedule import Tls13Schedule
from ..messages import (Certificate, CertificateVerify, ClientHello,
                        EncryptedExtensions, Finished, NewSessionTicket,
                        ServerHello, transcript_hash)
from .psk13 import compute_binder, derive_resumption_psk, partial_ch_hash
from .steps import (app_keys13, ecdh_compute, expect, finished_mac13,
                    handshake_secrets13, keygen, verify)

__all__ = ["client_handshake13"]


def client_handshake13(config: TlsClientConfig
                       ) -> Generator[object, object, HandshakeResult]:
    """Run one TLS 1.3 client-side handshake; offers PSK resumption
    when ``config.session_ticket`` carries a previous connection's
    ticket (+ resumption PSK in ``session_master_secret``)."""
    schedule = Tls13Schedule(config.provider)
    transcript = []
    curve = config.curves[0]

    share = yield keygen(config, curve, "keyshare-keygen")

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

    sh = yield from expect(ServerHello)
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

    shared = yield from ecdh_compute(config, share, sh.key_share, curve)
    c_hs, s_hs, master = yield from handshake_secrets13(
        schedule, config.session_master_secret if resumed else b"", shared,
        transcript)

    ee = yield from expect(EncryptedExtensions)
    transcript.append(ee)

    if not resumed:
        cert = yield from expect(Certificate)
        transcript.append(cert)
        if cert.kind != suite.auth:
            raise TlsAlert("bad_certificate: key type does not match suite")

        cv = yield from expect(CertificateVerify)
        to_verify = b"TLS 1.3, server CertificateVerify" + b"\x00" \
            + transcript_hash(transcript)
        yield from verify(config, suite, cert, to_verify, cv.signature,
                          "CertificateVerify", "certificate-verify")
        transcript.append(cv)

    # -- optional NewSessionTicket before the server Finished -------------------
    new_ticket: Optional[bytes] = None
    new_psk: Optional[bytes] = None
    msg = yield from expect(NewSessionTicket, Finished)
    if isinstance(msg, NewSessionTicket):
        pre_nst = transcript_hash(transcript)
        new_psk = yield from derive_resumption_psk(schedule, master,
                                                   pre_nst, msg.nonce)
        new_ticket = msg.ticket
        msg = yield from expect(Finished)
    if msg.verify_data != (
            yield from finished_mac13(schedule, "server", s_hs, transcript)):
        raise TlsAlert("decrypt_error: server Finished verify failed")
    transcript.append(msg)

    client_fin = Finished(verify_data=(
        yield from finished_mac13(schedule, "client", c_hs, transcript)))
    transcript.append(client_fin)
    yield SendMessage(client_fin, encrypted=True, flush=True)

    client_keys, server_keys = yield from app_keys13(schedule, suite, master,
                                                     transcript)

    return HandshakeResult(
        suite=suite, master_secret=master,
        client_write_keys=client_keys, server_write_keys=server_keys,
        session_ticket=new_ticket, resumption_psk=new_psk,
        resumed=resumed, negotiated_curve=curve)
