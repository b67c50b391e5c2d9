"""Network-attached accelerator backend.

The second production backend proving the offload seam: batches are
marshalled into RPCs and shipped over a :class:`repro.net.link.Link`
pair to a :class:`RemoteCryptoService` — a simulated crypto appliance
with its own processor pool and service-time model (related work:
network-attached HSM / PQC accelerators behind a uniform driver
interface).

Queue model::

    worker core --submit_batch--> [tx link] --> service queue
                                                (FIFO, N processors,
                                                 qat-derived service
                                                 times)
    completions <-- [rx link] <---------------- per-op replies

Admission is a credit *window*: at most ``REMOTE_WINDOW`` ops
outstanding per backend; beyond that, per-op submission fails exactly like a full QAT
ring (the engine's retry/failover machinery applies unchanged).

Batching amortizes the dominant per-RPC cost: one syscall +
serialization per batch (``RPC_SUBMIT_CPU_COST``) plus a small per-op
marshalling term, and one link transfer per batch (the RPC header is
paid once). Everything is event-driven — link delivery and service
completion are sim events — so runs replay bit-for-bit from the seed.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from ..qat.service_times import qat_service_time
from ..sim.resources import Resource
from ..tls.actions import CryptoCall
from .backend import Completion, LaneStats, OffloadBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..net.link import Link
    from ..sim.kernel import Simulator

__all__ = ["RemoteAcceleratorBackend", "RemoteCryptoService",
           "RPC_SUBMIT_CPU_COST", "RPC_PER_OP_CPU_COST",
           "REMOTE_LINK_LATENCY", "REMOTE_LINK_BANDWIDTH"]

#: CPU cost of issuing one RPC (syscall + header serialization),
#: paid once per batch.
RPC_SUBMIT_CPU_COST = 2.6e-6
#: CPU cost of marshalling each op into the RPC payload.
RPC_PER_OP_CPU_COST = 0.3e-6
#: CPU cost of one completion-queue check.
RPC_POLL_CPU_COST = 0.5e-6
#: CPU cost per completion drained.
RPC_POLL_PER_RESPONSE_CPU_COST = 0.3e-6

#: One-way latency and bandwidth (bits/s) of each direction of the
#: server<->appliance link pair a deployment wires up.
REMOTE_LINK_LATENCY = 20e-6
REMOTE_LINK_BANDWIDTH = 25e9

#: Crypto processors in the appliance, shared by all workers.
REMOTE_PROCESSORS = 8
#: Credit window: ops one worker's backend may have outstanding.
REMOTE_WINDOW = 256

#: Wire sizes of the RPC framing and payloads.
RPC_REQUEST_HEADER_BYTES = 96
RPC_REQUEST_OP_BYTES = 320
RPC_RESPONSE_BYTES = 288


class _RemoteRequest:
    """One op in flight to/inside/back from the remote service."""

    __slots__ = ("op", "compute", "arrived_at", "serviced_at")

    def __init__(self, op, compute: Callable[[], Any]) -> None:
        self.op = op
        self.compute = compute
        # Lifecycle stamps for request tracing: RPC arrival at the
        # service and service completion.
        self.arrived_at: Optional[float] = None
        self.serviced_at: Optional[float] = None


class RemoteCryptoService:
    """The appliance side: a FIFO pool of crypto processors.

    Shared by all workers of a server (one appliance per deployment);
    per-op service times reuse the QAT calibration.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.processors = Resource(sim, REMOTE_PROCESSORS,
                                   name="accel0-proc")

    def submit(self, request: _RemoteRequest,
               reply: Callable[[_RemoteRequest, Any,
                                Optional[BaseException]], None]) -> None:
        """Accept one op; ``reply`` fires when it finishes service."""
        self.sim.process(self._serve(request, reply),
                         name="accel0-serve")

    def _serve(self, request, reply):
        processors = self.processors
        if not processors.try_acquire():
            yield processors.request()
        yield self.sim.timeout(qat_service_time(request.op))
        try:
            result, error = request.compute(), None
        except Exception as exc:
            result, error = None, exc
        self.processors.release()
        reply(request, result, error)


class RemoteAcceleratorBackend(OffloadBackend):
    """Per-worker RPC channel to a shared :class:`RemoteCryptoService`.

    Single-lane: one connection per worker. The engine's circuit
    breaker on that lane covers service outages/timeouts the same way
    it covers a sick QAT instance.
    """

    name = "remote"

    def __init__(self, sim: "Simulator", service: RemoteCryptoService,
                 tx_link: "Link", rx_link: "Link") -> None:
        self.sim = sim
        self.service = service
        self.tx_link = tx_link
        self.rx_link = rx_link
        self.outstanding = 0
        self.stats = LaneStats()
        self._completions: Deque[Completion] = deque()

    @property
    def lanes(self) -> int:
        return 1

    def submit_batch(self, calls: List[CryptoCall], lane: int
                     ) -> List[Any]:
        tokens: List[Any] = []
        accepted: List[_RemoteRequest] = []
        for call in calls:
            if self.outstanding >= REMOTE_WINDOW:
                # Credit window exhausted: the remote analog of a full
                # request ring.
                self.stats.submit_failures += 1
                tokens.append(None)
                continue
            request = _RemoteRequest(call.op, call.compute)
            self.outstanding += 1
            self.stats.submitted += 1
            tokens.append(request)
            accepted.append(request)
        if accepted:
            nbytes = (RPC_REQUEST_HEADER_BYTES
                      + RPC_REQUEST_OP_BYTES * len(accepted))
            delivery = self.tx_link.transfer(nbytes)
            batch = tuple(accepted)
            delivery.callbacks.append(lambda _ev: self._arrive(batch))
        return tokens

    def _arrive(self, batch) -> None:
        now = self.sim.now
        for request in batch:
            request.arrived_at = now
            self.service.submit(request, self._serviced)

    def _serviced(self, request, result, error) -> None:
        request.serviced_at = self.sim.now
        delivery = self.rx_link.transfer(RPC_RESPONSE_BYTES)
        delivery.callbacks.append(
            lambda _ev: self._land(request, result, error))

    def _land(self, request, result, error) -> None:
        self.outstanding -= 1
        self._completions.append(Completion(
            token=request, result=result, error=error,
            transport_error=False,
            device_marks={
                "dequeued": request.arrived_at,
                "serviced": request.serviced_at,
                "landed": self.sim.now,
            }))

    def poll_completions(self, max_responses: Optional[int] = None
                         ) -> List[Completion]:
        out: List[Completion] = []
        while self._completions and (max_responses is None
                                     or len(out) < max_responses):
            out.append(self._completions.popleft())
        return out

    def submit_cpu_cost(self, n_ops: int) -> float:
        return RPC_SUBMIT_CPU_COST + RPC_PER_OP_CPU_COST * n_ops

    def poll_cpu_cost(self, n_responses: int) -> float:
        return (RPC_POLL_CPU_COST
                + RPC_POLL_PER_RESPONSE_CPU_COST * n_responses)

    def capacity_hint(self, lane: int, category: Any) -> int:
        # One window shared by all op categories.
        return max(0, REMOTE_WINDOW - self.outstanding)

    def lane_stats(self, lane: int) -> LaneStats:
        return self.stats
