"""Unidirectional network links with latency and shared bandwidth.

A link is a FIFO byte pipe: each transfer occupies the wire for
``bytes / bandwidth`` and arrives ``latency`` later. Queueing delay
emerges naturally when offered load approaches the wire rate — this is
what caps Figure 10 near the 40 GbE line rate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = ["Link"]


class Link:
    """One direction of a network path."""

    def __init__(self, sim: "Simulator", latency: float = 12.5e-6,
                 bandwidth_bps: float = 40e9) -> None:
        if latency < 0 or bandwidth_bps <= 0:
            raise ValueError("invalid link parameters")
        self.sim = sim
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self._wire_free_at = 0.0

    def transfer(self, nbytes: int) -> Event:
        """Schedule a transfer; the returned event fires at delivery.

        Models store-and-forward: serialization on the wire (FIFO,
        shared across all flows) plus propagation latency.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        now = self.sim.now
        tx_time = (nbytes * 8) / self.bandwidth_bps
        start = max(now, self._wire_free_at)
        self._wire_free_at = start + tx_time
        delivery_delay = (start - now) + tx_time + self.latency
        return self.sim.timeout(delivery_delay)
