"""Stateless session tickets (RFC 5077).

Instead of a server-side cache, the session state is sealed under a
server ticket-encryption key (STEK) and handed to the client; any
server holding the key can resume the session without shared state —
how large deployments (the paper's CDN adopters) actually run
resumption. Lifetime limits still apply: the issue timestamp is sealed
inside the ticket.
"""

from __future__ import annotations

from typing import Optional

from ..crypto.gcm import AesGcm, GcmAuthError
from .session import SESSION_LIFETIME, SessionState
from .suites import get_suite

__all__ = ["TicketKeeper"]

_MAGIC = b"STK1"


class TicketKeeper:
    """Seals and opens session tickets under a rotating STEK."""

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("STEK must be 16 bytes")
        self._gcm = AesGcm(key)
        self._seq = 0
        self.issued = 0
        self.accepted = 0
        self.rejected = 0

    def seal(self, state: SessionState, now: float) -> bytes:
        """Encrypt session state into an opaque ticket."""
        self._seq += 1
        nonce = self._seq.to_bytes(12, "big")
        suite_name = state.suite.name.encode()
        body = (_MAGIC
                + int(now * 1e6).to_bytes(8, "big")
                + bytes([len(suite_name)]) + suite_name
                + bytes([len(state.session_id)]) + state.session_id
                + state.master_secret)
        self.issued += 1
        return nonce + self._gcm.seal(nonce, body)

    def open(self, ticket: bytes, now: float) -> Optional[SessionState]:
        """Decrypt and validate a ticket; None if invalid/expired."""
        if len(ticket) < 12 + 16 + len(_MAGIC):
            self.rejected += 1
            return None
        nonce, sealed = ticket[:12], ticket[12:]
        try:
            body = self._gcm.open(nonce, sealed)
        except GcmAuthError:
            self.rejected += 1
            return None
        if body[:4] != _MAGIC:
            self.rejected += 1
            return None
        issued_at = int.from_bytes(body[4:12], "big") / 1e6
        if now - issued_at > SESSION_LIFETIME:
            self.rejected += 1
            return None
        off = 12
        slen = body[off]
        suite_name = body[off + 1:off + 1 + slen].decode()
        off += 1 + slen
        idlen = body[off]
        session_id = body[off + 1:off + 1 + idlen]
        off += 1 + idlen
        master_secret = body[off:]
        try:
            suite = get_suite(suite_name)
        except ValueError:
            self.rejected += 1
            return None
        self.accepted += 1
        return SessionState(session_id=session_id, suite=suite,
                            master_secret=master_secret,
                            created_at=issued_at)
