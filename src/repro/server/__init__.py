"""Event-driven TLS server (the paper's async-mode Nginx equivalent)."""

from .conf_text import ConfError, parse_conf, server_config_from_text
from .config import ServerConfig, SslEngineConfig
from .connection import ConnState, ServerConnection
from .http import HttpRequest, encode_request, parse_request
from .master import TlsServer
from .polling.heuristic import HeuristicPoller
from .polling.timer_thread import TimerPollingThread
from .stub_status import StubStatus
from .worker import Worker, WorkerMetrics

__all__ = [
    "ServerConfig", "SslEngineConfig", "TlsServer", "Worker",
    "WorkerMetrics", "ServerConnection", "ConnState", "StubStatus",
    "HeuristicPoller", "TimerPollingThread", "HttpRequest",
    "encode_request", "parse_request", "parse_conf",
    "server_config_from_text", "ConfError",
]
