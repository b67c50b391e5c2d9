"""The five evaluation configurations of the paper (section 5.1).

==========  =========  ==========  ============  ==============
Name        Offload    Async       Polling       Notification
==========  =========  ==========  ============  ==============
SW          none       —           —             —
QAT+S       straight   —           busy-wait     —
QAT+A       async      fiber       timer 10 us   FD-based
QAT+AH      async      fiber       heuristic     FD-based
QTLS        async      fiber       heuristic     kernel-bypass
==========  =========  ==========  ============  ==============
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..server.config import ServerConfig

__all__ = ["CONFIG_NAMES", "make_server_config"]

CONFIG_NAMES: Tuple[str, ...] = ("SW", "QAT+S", "QAT+A", "QAT+AH", "QTLS")


def make_server_config(name: str, workers: int,
                       suites: Tuple[str, ...] = ("TLS-RSA",),
                       curves: Tuple[str, ...] = ("P-256",),
                       tls_version: str = "1.2",
                       rsa_bits: int = 2048,
                       **overrides) -> "ServerConfig":
    """Build the ServerConfig for one of the five paper configurations."""
    # Imported here: repro.core is a low-level package (cost model)
    # that repro.server depends on; the configuration presets are glue
    # above both, so the import must not run at core-import time.
    from ..server.config import ServerConfig, SslEngineConfig
    base = dict(worker_processes=workers, suites=suites, curves=curves,
                tls_version=tls_version, rsa_bits=rsa_bits)
    if name == "SW":
        engine = SslEngineConfig(use_engine="")
        notify = "fd"
    elif name == "QAT+S":
        engine = SslEngineConfig(qat_offload_mode="sync")
        notify = "fd"
    elif name == "QAT+A":
        engine = SslEngineConfig(qat_offload_mode="async",
                                 qat_poll_mode="timer")
        notify = "fd"
    elif name == "QAT+AH":
        engine = SslEngineConfig(qat_offload_mode="async",
                                 qat_poll_mode="heuristic")
        notify = "fd"
    elif name == "QTLS":
        engine = SslEngineConfig(qat_offload_mode="async",
                                 qat_poll_mode="heuristic")
        notify = "queue"
    else:
        raise ValueError(f"unknown configuration {name!r}; "
                         f"expected one of {CONFIG_NAMES}")
    cfg = ServerConfig(ssl_engine=engine, async_notify_mode=notify, **base)
    if overrides:
        engine_overrides = {k: v for k, v in overrides.items()
                            if hasattr(SslEngineConfig, k) or
                            k in SslEngineConfig.__dataclass_fields__}
        server_overrides = {k: v for k, v in overrides.items()
                            if k in ServerConfig.__dataclass_fields__}
        unknown = set(overrides) - set(engine_overrides) - set(server_overrides)
        if unknown:
            raise ValueError(f"unknown overrides: {sorted(unknown)}")
        if engine_overrides:
            cfg.ssl_engine = replace(cfg.ssl_engine, **engine_overrides)
        if server_overrides:
            cfg = replace(cfg, **server_overrides)
    cfg.validate()
    return cfg
