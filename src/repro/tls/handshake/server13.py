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

from ..actions import HandshakeResult, SendMessage, TlsAlert
from ..config import TlsServerConfig
from ..constants import RANDOM_LEN, ProtocolVersion
from ..keyschedule import Tls13Schedule
from ..messages import (Certificate, CertificateVerify, ClientHello,
                        EncryptedExtensions, Finished, NewSessionTicket,
                        ServerHello, transcript_hash)
from ..session import SessionState
from ..suites import CipherSuite
from .psk13 import compute_binder, derive_resumption_psk, partial_ch_hash
from .steps import (app_keys13, ecdh_compute, expect, finished_mac13,
                    handshake_secrets13, keygen, sign)

__all__ = ["server_handshake13"]


def _select_suite13(config: TlsServerConfig, ch: ClientHello) -> CipherSuite:
    offered = set(ch.cipher_suites)
    for suite in config.suites:
        if suite.name in offered and suite.version == ProtocolVersion.TLS13:
            return suite
    raise TlsAlert("handshake_failure: no common TLS 1.3 suite")


def server_handshake13(config: TlsServerConfig
                       ) -> Generator[object, object, HandshakeResult]:
    """Run one TLS 1.3 server-side handshake (full or PSK-resumed)."""
    schedule = Tls13Schedule(config.provider)
    transcript = []

    ch = yield from expect(ClientHello)
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
    server_share = yield keygen(config, curve, "keyshare-keygen")
    shared = yield from ecdh_compute(config, server_share, ch.key_share,
                                     curve)

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
    c_hs, s_hs, master = yield from handshake_secrets13(
        schedule, psk or b"", shared, transcript)

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
        cv = CertificateVerify(
            signature=(yield sign(config, cred, to_sign,
                                  "certificate-verify")))
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

    server_fin = Finished(verify_data=(
        yield from finished_mac13(schedule, "server", s_hs, transcript)))
    transcript.append(server_fin)
    yield SendMessage(server_fin, encrypted=True, flush=True)

    # -- client Finished --------------------------------------------------------
    client_fin = yield from expect(Finished)
    if client_fin.verify_data != (
            yield from finished_mac13(schedule, "client", c_hs, transcript)):
        raise TlsAlert("decrypt_error: client Finished verify failed")
    transcript.append(client_fin)

    # -- application traffic secrets ----------------------------------------------
    client_keys, server_keys = yield from app_keys13(schedule, suite, master,
                                                     transcript)

    return HandshakeResult(
        suite=suite, master_secret=master,
        client_write_keys=client_keys, server_write_keys=server_keys,
        session_ticket=ticket_out, resumed=resumed,
        negotiated_curve=curve)
