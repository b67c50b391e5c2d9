"""SSL context: per-worker factory/configuration for SSL connections."""

from __future__ import annotations

from typing import Callable, Generator, Optional, Union

import numpy as np

from ..core.costmodel import CostModel
from ..cpu.core import Core
from ..offload.engine import AsyncOffloadEngine
from ..offload.software import SoftwareEngine
from ..tls.config import TlsServerConfig
from ..tls.constants import ProtocolVersion
from ..tls.handshake import server_handshake12, server_handshake13

__all__ = ["SslContext", "AsyncMode"]

#: How crypto pause/resume is implemented (paper section 4.1):
#: "sync" (no pauses), "fiber" (OpenSSL 1.1.0 ASYNC_JOB) or "stack"
#: (the intrusive state-flag variant).
AsyncMode = str


class SslContext:
    """The SSL_CTX equivalent: shared server TLS state + engine."""

    def __init__(self, tls_config: TlsServerConfig,
                 engine: Union[AsyncOffloadEngine, SoftwareEngine],
                 core: Core, cost_model: CostModel,
                 async_mode: AsyncMode = "sync",
                 version: ProtocolVersion = ProtocolVersion.TLS12,
                 record_rng: Optional[np.random.Generator] = None) -> None:
        if async_mode not in ("sync", "fiber", "stack"):
            raise ValueError(f"unknown async mode {async_mode!r}")
        if async_mode != "sync" and not engine.supports_async:
            raise ValueError(
                f"engine {type(engine).__name__} cannot run async mode")
        self.tls_config = tls_config
        self.engine = engine
        self.core = core
        self.cost_model = cost_model
        self.async_mode = async_mode
        self.version = version
        self.record_rng = record_rng if record_rng is not None \
            else tls_config.rng

    def handshake_factory(self) -> Callable[[], Generator]:
        if self.version == ProtocolVersion.TLS13:
            return lambda: server_handshake13(self.tls_config)
        return lambda: server_handshake12(self.tls_config)

    @property
    def provider(self):
        return self.tls_config.provider
