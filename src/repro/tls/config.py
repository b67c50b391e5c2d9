"""TLS endpoint configuration objects."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..crypto.provider import CryptoProvider, ServerCredentials
from ..sim.rng import Stream
from .session import SessionCache
from .suites import CipherSuite
from .ticket import TicketKeeper

__all__ = ["TlsServerConfig", "TlsClientConfig"]


@dataclass
class TlsServerConfig:
    """Server-side TLS parameters.

    ``credentials_rsa`` / ``credentials_ecdsa`` must match the auth
    algorithms of the enabled suites. ``curves`` is the server's
    preference list for ECDHE and ECDSA.
    """

    provider: CryptoProvider
    suites: Tuple[CipherSuite, ...]
    rng: Stream
    credentials_rsa: Optional[ServerCredentials] = None
    credentials_ecdsa: Optional[ServerCredentials] = None
    curves: Tuple[str, ...] = ("P-256",)
    session_cache: Optional[SessionCache] = None
    issue_tickets: bool = False
    #: Stateless-ticket support (RFC 5077); used when issue_tickets.
    ticket_keeper: Optional[TicketKeeper] = None
    #: Simulated-time source for ticket lifetimes.
    clock: Callable[[], float] = lambda: 0.0

    def credentials_for(self, suite: CipherSuite) -> ServerCredentials:
        cred = (self.credentials_rsa if suite.auth == "rsa"
                else self.credentials_ecdsa)
        if cred is None:
            raise ValueError(f"no {suite.auth} credentials configured "
                             f"for suite {suite.name}")
        return cred


@dataclass
class TlsClientConfig:
    """Client-side TLS parameters."""

    provider: CryptoProvider
    suites: Tuple[CipherSuite, ...]
    rng: Stream
    curves: Tuple[str, ...] = ("P-256",)
    # Resumption state from a previous connection, if any.
    session_id: bytes = b""
    session_ticket: Optional[bytes] = None
    session_master_secret: bytes = b""
    session_suite: Optional[CipherSuite] = None
