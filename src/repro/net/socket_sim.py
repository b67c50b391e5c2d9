"""Simulated non-blocking sockets.

Sockets exchange discrete, ordered messages (each message models the
TCP segments carrying one TLS record or application chunk); framing is
preserved by construction. ``send`` is fire-and-forget onto the link;
``recv`` is non-blocking and returns ``None`` when it would block —
exactly the semantics the event-driven architecture needs (paper
section 2.2).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from .link import Link
from .pollable import Pollable

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = ["SimSocket", "socket_pair", "SocketClosed"]


class SocketClosed(ConnectionError):
    """Raised when sending on a closed socket."""


class SimSocket(Pollable):
    """One end of a bidirectional connection."""

    def __init__(self, sim: "Simulator", out_link: Link,
                 label: str = "") -> None:
        super().__init__(sim)
        self.out_link = out_link
        self.label = label
        self.peer: Optional["SimSocket"] = None
        self._inbox: Deque[Any] = deque()
        self._closed = False
        self._peer_closed = False

    # -- sending -----------------------------------------------------------

    def send(self, message: Any, nbytes: Optional[int] = None) -> int:
        """Queue ``message`` for delivery to the peer.

        ``nbytes`` is the wire size; defaults to ``len(message)``.
        """
        if self.sim.debtor is not None:
            raise self.sim.unsettled(f"send on {self.label}")
        if self._closed:
            raise SocketClosed(f"send on closed socket {self.label}")
        if self.peer is None:
            raise SocketClosed("socket is not connected")
        size = len(message) if nbytes is None else nbytes
        delivery = self.out_link.transfer(size)
        peer = self.peer
        delivery.callbacks.append(
            lambda _ev: peer._deliver(message))
        return size

    def _deliver(self, message: Any) -> None:
        if self._closed:
            return  # arriving after local close: dropped
        self._inbox.append(message)
        self._mark_readable()

    # -- receiving ------------------------------------------------------------

    def recv(self) -> Optional[Any]:
        """Non-blocking receive: the next message, or None when empty.

        After the peer has closed and the inbox drained, returns the
        empty bytes object (EOF), mirroring BSD sockets.
        """
        if self.sim.debtor is not None:
            raise self.sim.unsettled(f"recv on {self.label}")
        if self._inbox:
            msg = self._inbox.popleft()
            if not self._inbox and not self._peer_closed:
                self._clear_readable()
            return msg
        if self._peer_closed:
            return b""
        return None

    @property
    def pending(self) -> int:
        return len(self._inbox)

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Close this end; the peer sees EOF after the link latency."""
        if self._closed:
            return
        if self.sim.debtor is not None:
            raise self.sim.unsettled(f"close of {self.label}")
        self._closed = True
        self._clear_readable()
        peer = self.peer
        if peer is not None:
            fin = self.out_link.transfer(40)  # FIN+ACK sized
            fin.callbacks.append(lambda _ev: peer._on_peer_close())
            if peer._closed:
                # Both ends closed: drop the a <-> b cycle so the pair
                # is freed now, not by the cyclic GC. The FIN's
                # callback holds the peer until it is delivered.
                self.peer = peer.peer = None

    def _on_peer_close(self) -> None:
        self._peer_closed = True
        self._mark_readable()  # wake readers so they observe EOF

    @property
    def closed(self) -> bool:
        return self._closed


def socket_pair(sim: "Simulator", a_to_b: Link, b_to_a: Link,
                label: str = "conn") -> tuple:
    """Create a connected socket pair over the given links."""
    a = SimSocket(sim, a_to_b, label=f"{label}-a")
    b = SimSocket(sim, b_to_a, label=f"{label}-b")
    a.peer, b.peer = b, a
    return a, b
