"""Hardware-assisted request/response ring pairs.

Software writes requests onto a request ring and reads responses back
from a response ring (paper section 2.3, Figure 2). Request rings have
finite capacity: a full ring fails the submission, which QTLS handles
with pause-and-retry (paper section 3.2 "a special case is the failure
of crypto submission").

Ring-full is signalled by ``try_submit`` returning False, never by an
exception: the offload engine above reports the failed submit and the
SSL layer pauses the job in WANT_RETRY.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional

from .request import QatRequest

if TYPE_CHECKING:  # pragma: no cover
    from .endpoint import QatEndpoint

__all__ = ["RingPair", "DEFAULT_RING_CAPACITY"]

DEFAULT_RING_CAPACITY = 64


class RingPair:
    """One request ring + one response ring.

    The response ring is unbounded: the device always has room to land
    completions (real QAT sizes response rings to match outstanding
    request capacity). Every queued request is also counted in the
    owning endpoint's ``queued_requests``, which its arbiter reads.
    """

    def __init__(self, endpoint: "QatEndpoint", name: str,
                 capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.name = name
        self.capacity = capacity
        self._requests: Deque[QatRequest] = deque()
        self._responses: Deque[QatRequest] = deque()
        # Occupancy counts in-flight work: a slot frees only when the
        # response has been produced AND retrieved, mirroring how the
        # hardware credits ring slots back to software.
        self._occupied = 0
        #: Optional hardware-interrupt hook: invoked when a response
        #: lands (None = pure polling, the QTLS default).
        self.response_callback = None

    # -- software side -----------------------------------------------------

    def try_submit(self, request: QatRequest) -> bool:
        """Write a request; False when the ring is full."""
        if self._occupied >= self.capacity:
            return False
        self._occupied += 1
        request.request_id = next(self.sim.request_ids)
        self._requests.append(request)
        self.endpoint.queued_requests += 1
        return True

    def poll_responses(self, max_responses: Optional[int] = None
                       ) -> List[QatRequest]:
        """Read landed responses (the instance's polling primitive)."""
        out: List[QatRequest] = []
        while self._responses and (max_responses is None
                                   or len(out) < max_responses):
            self._occupied -= 1
            out.append(self._responses.popleft())
        return out

    # -- hardware side ---------------------------------------------------

    def take_request(self) -> Optional[QatRequest]:
        """Device pulls the next request, if any."""
        if self._requests:
            self.endpoint.queued_requests -= 1
            return self._requests.popleft()
        return None

    def land_response(self, request: QatRequest) -> None:
        request.completed_at = self.sim.now
        self._responses.append(request)
        if self.response_callback is not None:
            self.response_callback(self)

    def drop_response(self, request: QatRequest) -> None:
        """A completion whose response write was lost (fault injection):
        nothing lands, but the hardware still credits the slot back."""
        self._occupied -= 1

    def reset(self) -> int:
        """Device-level recovery: wipe queued requests and unretrieved
        responses, crediting their slots. Requests already inside the
        hardware pipeline keep their slots and complete (or are
        dropped) through the normal paths. Returns entries dropped."""
        dropped = len(self._requests) + len(self._responses)
        self._occupied -= dropped
        self.endpoint.queued_requests -= len(self._requests)
        self._requests.clear()
        self._responses.clear()
        return dropped

    # -- introspection -----------------------------------------------------

    @property
    def pending_requests(self) -> int:
        return len(self._requests)

    @property
    def in_flight(self) -> int:
        """Submitted but not yet retrieved."""
        return self._occupied
