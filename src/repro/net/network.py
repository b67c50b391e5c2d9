"""Network topology: machines, back-to-back NIC links, TCP setup.

The paper's testbed connects two client servers to the tested server
back-to-back via 40 GbE NICs; each machine pair here gets a dedicated
link pair with that latency/bandwidth.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Generator, Optional, Tuple

from .link import Link
from .pollable import Pollable
from .socket_sim import SimSocket, socket_pair

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = ["Network", "Listener", "TCP_HANDSHAKE_BYTES"]

#: Wire size of SYN / SYN-ACK segments.
TCP_HANDSHAKE_BYTES = 60

#: One-way latency and bandwidth (bits/s) of each back-to-back 40 GbE
#: NIC link.
NIC_LATENCY = 12.5e-6
NIC_BANDWIDTH = 40e9


class Listener(Pollable):
    """A listening socket with an accept queue."""

    def __init__(self, sim: "Simulator", addr: str) -> None:
        super().__init__(sim)
        self.addr = addr
        self._backlog: Deque[SimSocket] = deque()
        self.accepted = 0

    def _enqueue(self, server_sock: SimSocket) -> None:
        self._backlog.append(server_sock)
        self._mark_readable()

    def accept(self) -> Optional[SimSocket]:
        """Non-blocking accept; None when the backlog is empty."""
        if self.sim.debtor is not None:
            raise self.sim.unsettled("accept")
        if not self._backlog:
            return None
        sock = self._backlog.popleft()
        if not self._backlog:
            self._clear_readable()
        self.accepted += 1
        return sock

    @property
    def backlog(self) -> int:
        return len(self._backlog)


class Network:
    """Machines and the links between them."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._links: Dict[Tuple[str, str], Link] = {}
        self._listeners: Dict[str, Listener] = {}

    # -- links ------------------------------------------------------------

    def link(self, src: str, dst: str) -> Link:
        """The unidirectional link from machine ``src`` to ``dst``
        (created on first use — back-to-back NIC pair per machine pair)."""
        key = (src, dst)
        lnk = self._links.get(key)
        if lnk is None:
            lnk = Link(self.sim, NIC_LATENCY, NIC_BANDWIDTH)
            self._links[key] = lnk
        return lnk

    # -- TCP ------------------------------------------------------------------

    def bind(self, addr: str) -> Listener:
        if addr in self._listeners:
            raise ValueError(f"address {addr!r} already bound")
        listener = Listener(self.sim, addr)
        self._listeners[addr] = listener
        return listener

    def lookup(self, addr: str) -> Listener:
        try:
            return self._listeners[addr]
        except KeyError:
            raise ConnectionRefusedError(f"nothing bound at {addr!r}") \
                from None

    def connect(self, client_machine: str, addr: str,
                server_machine: str = "server",
                label: str = "") -> Generator:
        """TCP connection setup from a client process.

        Use as ``sock = yield from net.connect("client0", "https")``.
        Costs one RTT (SYN / SYN-ACK); the server side lands in the
        listener's accept queue when the SYN arrives.
        """
        listener = self.lookup(addr)
        c2s = self.link(client_machine, server_machine)
        s2c = self.link(server_machine, client_machine)
        csock, ssock = socket_pair(self.sim, c2s, s2c,
                                   label=label or f"{client_machine}->{addr}")
        # SYN reaches the server: connection becomes acceptable there.
        syn = c2s.transfer(TCP_HANDSHAKE_BYTES)
        syn.callbacks.append(lambda _ev: listener._enqueue(ssock))
        # SYN-ACK back to the client completes the client side.
        yield syn
        yield s2c.transfer(TCP_HANDSHAKE_BYTES)
        return csock
