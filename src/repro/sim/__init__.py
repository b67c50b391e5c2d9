"""Deterministic discrete-event simulation kernel.

This is the substrate for the QTLS reproduction: the CPU, QAT card,
network and server models are all processes and resources scheduled by
:class:`Simulator`.

Quick example::

    from repro.sim import Simulator

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.5)
        return "done"

    proc = sim.process(worker(sim))
    sim.run(until=proc)
    assert sim.now == 1.5 and proc.value == "done"
"""

from .events import (AllOf, AnyOf, Condition, Event, EventCancelled, Timeout,
                     UNSET)
from .kernel import Simulator, StopSimulation
from .process import Interrupt, Process
from .resources import Resource, Store
from .rng import RngRegistry

__all__ = [
    "Simulator", "StopSimulation", "Event", "Timeout", "Condition", "AnyOf",
    "AllOf", "EventCancelled", "UNSET", "Process", "Interrupt", "Resource",
    "Store", "RngRegistry",
]
