"""The QAT request record: one per offloaded op, ring write to delivery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..crypto.ops import CryptoOp
from .faults import QatHardwareError

__all__ = ["QatRequest"]


@dataclass(eq=False)  # identity semantics: hashable in-flight table key
class QatRequest:
    """A crypto request written to a request ring, and its response.

    ``compute`` is the deferred functional computation (a zero-argument
    callable returning the crypto result); the device model executes it
    when the simulated calculation completes, so results exist exactly
    when the simulation says they do, and sets ``result``/``error`` on
    this same object, which the QAT backend hands back as its completion.
    """

    op: CryptoOp
    compute: Callable[[], Any]
    #: Numbered from the simulator's id stream when a ring accepts it.
    request_id: int = 0
    #: When the hardware scheduler pulled this request off its ring.
    dequeued_at: Optional[float] = None
    #: When the computation engine finished the calculation.
    serviced_at: Optional[float] = None
    result: Any = None
    error: Optional[BaseException] = None
    #: When the response landed on its response ring.
    completed_at: Optional[float] = None

    @property
    def token(self) -> "QatRequest":
        """The in-flight identity the engine keys on: the request."""
        return self

    @property
    def transport_error(self) -> bool:
        """A device fault, not the crypto, failed the response."""
        return isinstance(self.error, QatHardwareError)

    @property
    def device_marks(self) -> Dict[str, Optional[float]]:
        """Device checkpoint stamps for request-lifecycle tracing."""
        return {"dequeued": self.dequeued_at, "serviced": self.serviced_at,
                "landed": self.completed_at}
