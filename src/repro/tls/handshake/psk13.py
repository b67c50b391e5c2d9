"""TLS 1.3 PSK resumption helpers (RFC 8446 sections 4.2.11 / 4.6.1).

The resumption PSK is derived from the resumption master secret and a
per-ticket nonce; the client proves possession with a *binder* over a
partial ClientHello transcript. Resumption here always uses psk_dhe_ke
(fresh ECDHE alongside the PSK), preserving forward secrecy — and the
two ECC offload ops.

Flow simplification vs the RFC (documented in DESIGN.md): the
NewSessionTicket is delivered inside the server's handshake flight
(immediately before its Finished) rather than post-handshake, so the
resumption master secret is derived from the transcript at that point
on both sides.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator

from ...crypto.hmac_impl import hmac_digest
from ..actions import CryptoCall
from ..keyschedule import Tls13Schedule
from ..messages import ClientHello, transcript_hash
from .steps import hkdf_op

__all__ = ["compute_binder", "derive_resumption_psk", "partial_ch_hash"]


def partial_ch_hash(ch: ClientHello) -> bytes:
    """Hash of the ClientHello with the binder zeroed (the RFC's
    truncated-ClientHello transcript)."""
    return transcript_hash([replace(ch, psk_binder=None)])


def compute_binder(schedule: Tls13Schedule, psk: bytes, ch_hash: bytes
                   ) -> Generator[object, object, bytes]:
    """Derive the PSK binder (three HKDF steps + one HMAC).

    Every HKDF step here and in :func:`derive_resumption_psk` is
    ``hkdf_op(0)``: nbytes=0 marks the lightweight (no transcript
    digest) steps for the cost model."""
    early = yield CryptoCall(
        hkdf_op(0), compute=lambda: schedule.early_secret(psk),
        label="psk-early-secret")
    binder_key = yield CryptoCall(
        hkdf_op(0), compute=lambda: schedule.derive_secret(
            early, b"res binder", b""),
        label="psk-binder-key")
    finished_key = yield CryptoCall(
        hkdf_op(0), compute=lambda: schedule.finished_key(binder_key),
        label="psk-binder-finished-key")
    return hmac_digest(finished_key, ch_hash)


def derive_resumption_psk(schedule: Tls13Schedule, master: bytes,
                          pre_nst_hash: bytes, ticket_nonce: bytes
                          ) -> Generator[object, object, bytes]:
    """resumption_master_secret -> per-ticket PSK (two HKDF steps)."""
    res_master = yield CryptoCall(
        hkdf_op(0), compute=lambda: schedule.derive_secret(
            master, b"res master", pre_nst_hash),
        label="resumption-master")
    psk = yield CryptoCall(
        hkdf_op(0), compute=lambda: schedule.provider.hkdf_expand_label(
            res_master, b"resumption", ticket_nonce, 32),
        label="resumption-psk")
    return psk
