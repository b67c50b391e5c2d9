"""The software engine: AES-NI-class CPU crypto (the SW baseline).

The SSL layer hands each :class:`~repro.tls.actions.CryptoCall` to an
engine: this one runs every op on the worker's CPU core, while
:class:`~repro.offload.engine.AsyncOffloadEngine` offloads offloadable
ops to an accelerator backend, blocking or asynchronously.
"""

from __future__ import annotations

from typing import Generator

from ..core.costmodel import CostModel
from ..cpu.core import Core
from ..tls.actions import CryptoCall

__all__ = ["SoftwareEngine"]


class SoftwareEngine:
    """Executes every crypto op on the owning worker's core."""

    #: No pause/resume: the SSL layer must run it in sync mode.
    supports_async = False

    def __init__(self, core: Core, cost_model: CostModel) -> None:
        self.core = core
        self.cost_model = cost_model
        #: Accumulated CPU seconds spent inside software crypto.
        self.software_crypto_time = 0.0

    def execute_blocking(self, call: CryptoCall, owner: object
                         ) -> Generator:
        """Run the op to completion before returning its result:
        ``result = yield from engine.execute_blocking(...)``, like every
        engine. The CPU charge stays owed to the caller (see
        :mod:`repro.cpu.core`), so this never yields."""
        cost = self.cost_model.software_cost(call.op)
        self.core.consume(cost, owner=owner)
        self.software_crypto_time += cost
        return call.compute()
        yield  # pragma: no cover - unreachable; makes this a generator

    def offloads(self, call: CryptoCall) -> bool:
        return False
