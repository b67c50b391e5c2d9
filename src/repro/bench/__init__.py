"""Benchmark harness reproducing every table and figure of the paper."""

from .reporting import ExperimentResult, format_table
from .runner import CLIENTS_PER_WORKER, Testbed, Windows

__all__ = ["Testbed", "Windows", "CLIENTS_PER_WORKER", "ExperimentResult",
           "format_table"]
