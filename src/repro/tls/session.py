"""Session resumption state (session IDs and session tickets).

Resumption lets later connections skip the asymmetric-key operations
(paper section 2.1). The cache enforces a lifetime, mirroring how
service providers restrict ticket lifetime to bound the forward-
secrecy exposure.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .suites import CipherSuite

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = ["SessionState", "SessionCache", "SESSION_LIFETIME",
           "SESSION_CACHE_CAPACITY"]

#: How long (seconds) a cached session or a ticket stays resumable.
SESSION_LIFETIME = 3600.0
#: Sessions the server-side cache holds before it LRU-evicts.
SESSION_CACHE_CAPACITY = 100_000


@dataclass(frozen=True)
class SessionState:
    """What the server needs to resume a session."""

    session_id: bytes
    suite: CipherSuite
    master_secret: bytes
    created_at: float


class SessionCache:
    """Server-side session store with LRU eviction and expiry."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._store: "OrderedDict[bytes, SessionState]" = OrderedDict()
        self.hits = 0
        #: Lookup found nothing at all vs. found an entry already past
        #: its lifetime. ``misses`` stays the sum of both.
        self.cold_misses = 0
        self.expiry_misses = 0

    @property
    def misses(self) -> int:
        return self.cold_misses + self.expiry_misses

    def _expired(self, state: SessionState) -> bool:
        return self.sim.now - state.created_at > SESSION_LIFETIME

    def _sweep_expired(self) -> None:
        """Drop every dead entry. Without this, a cache full of
        expired sessions LRU-evicts *live* ones first: expired entries
        were only ever purged on lookup, never by ``put``."""
        dead = [sid for sid, state in self._store.items()
                if self._expired(state)]
        for sid in dead:
            del self._store[sid]

    def put(self, state: SessionState) -> None:
        self._store[state.session_id] = state
        self._store.move_to_end(state.session_id)
        if len(self._store) > SESSION_CACHE_CAPACITY:
            self._sweep_expired()
        while len(self._store) > SESSION_CACHE_CAPACITY:
            self._store.popitem(last=False)

    def get(self, session_id: bytes) -> Optional[SessionState]:
        state = self._store.get(session_id)
        if state is None:
            self.cold_misses += 1
            return None
        if self._expired(state):
            del self._store[session_id]
            self.expiry_misses += 1
            return None
        self.hits += 1
        self._store.move_to_end(session_id)
        return state

    def invalidate(self, session_id: bytes) -> None:
        self._store.pop(session_id, None)

    def __len__(self) -> int:
        return len(self._store)
