"""QAT request/response records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..crypto.ops import CryptoOp

__all__ = ["QatRequest", "QatResponse"]


@dataclass(eq=False)  # identity semantics: hashable in-flight table key
class QatRequest:
    """A crypto request written to a request ring.

    ``compute`` is the deferred functional computation (a zero-argument
    callable returning the crypto result); the device model executes it
    when the simulated calculation completes, so results exist exactly
    when the simulation says they do.
    """

    op: CryptoOp
    compute: Callable[[], Any]
    #: Numbered from the simulator's id stream when a ring accepts it.
    request_id: int = 0
    #: When the hardware scheduler pulled this request off its ring.
    dequeued_at: Optional[float] = None
    #: When the computation engine finished the calculation.
    serviced_at: Optional[float] = None


@dataclass
class QatResponse:
    """A completion landed on a response ring."""

    request: QatRequest
    result: Any = None
    error: Optional[BaseException] = None
    completed_at: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None
