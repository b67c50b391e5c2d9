"""QTLS core: cost model, configurations, metrics."""

from .configurations import CONFIG_NAMES, make_server_config
from .costmodel import CostModel
from .metrics import ClientMetrics

__all__ = ["CostModel", "ClientMetrics",
           "CONFIG_NAMES", "make_server_config"]
