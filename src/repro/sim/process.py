"""Generator-based simulation processes.

A process wraps a Python generator that yields :class:`~repro.sim.events.Event`
instances. Yielding an event suspends the process until the event is
processed; the event's value becomes the result of the ``yield``
expression (or its exception is thrown into the generator).

A :class:`Process` is itself an event that triggers when the generator
returns, with the generator's return value as the event value — so
processes can wait on each other simply by yielding them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running simulation process (also its own completion event)."""

    __slots__ = ("_gen", "_waiting_on", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: Generator,
                 name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(gen).__name__} "
                "(did you forget to call the generator function?)")
        super().__init__(sim, name=name or getattr(gen, "__name__", ""))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        # One bound method, appended at every wait.
        self._resume_cb = self._resume
        # Kick off the process at the current simulated instant.
        boot = Event(sim)
        boot._value = None
        sim._schedule(boot, 0.0)
        boot.callbacks.append(self._resume_cb)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on remains pending; the process
        may re-wait on it or abandon it.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has already terminated")
        if self._waiting_on is not None and not self._waiting_on.processed:
            # Detach so a later trigger does not double-resume us.
            try:
                assert self._waiting_on.callbacks is not None
                self._waiting_on.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._waiting_on = None
        kick = Event(self.sim, name=f"{self.name}-interrupt")
        kick._exc = Interrupt(cause)
        kick._value = None
        kick.defuse()
        self.sim._schedule(kick, 0.0)
        kick.callbacks.append(self._resume_cb)

    # -- kernel callback ---------------------------------------------------

    def _end(self, value: Any = None,
             exc: Optional[BaseException] = None) -> None:
        """The process is over: trigger its completion event. Dropping
        the bound resume first ends the process <-> method cycle, so a
        finished process is freed without the cyclic GC."""
        self._resume_cb = None
        if exc is None:
            self.succeed(value)
        else:
            self.fail(exc)

    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        sim = self.sim
        sim.active_process = self
        thrown = trigger._exc
        try:
            if thrown is not None:
                trigger._defused = True
                nxt = self._gen.throw(thrown)
            else:
                nxt = self._gen.send(trigger._value)
        except StopIteration as stop:
            if sim.debtor is not None:
                self._end(exc=sim.unsettled("return"))
                return
            self._end(stop.value)
            return
        except BaseException as exc:
            # The process died. Its chain forfeits the CPU time it owes
            # (a dead process consumes no core time), so whoever reaps
            # it may act at once. Fail our completion event; if nobody
            # is watching, Simulator.step() re-raises (undefused
            # failure).
            if sim.debtor is not None:
                sim.debtor.forfeit()
            self._end(exc=exc)
            return

        if sim.debtor is not None:
            # Waiting with CPU time owed would let other processes see
            # this one's effects before its core time has elapsed.
            self._gen.close()
            self._end(exc=sim.unsettled(f"yielding {nxt!r}"))
            return
        if not isinstance(nxt, Event):
            err = RuntimeError(
                f"process {self.name!r} yielded {nxt!r}; processes must "
                "yield Event instances")
            self._gen.close()
            self._end(exc=err)
            return
        if nxt.sim is not self.sim:
            self._gen.close()
            self._end(exc=RuntimeError(
                "yielded event belongs to another simulator"))
            return

        callbacks = nxt.callbacks
        if callbacks is None:
            # Already processed: reschedule ourselves immediately with
            # its value.
            kick = Event(sim)
            kick._value = nxt._value
            kick._exc = nxt._exc
            if kick._exc is not None:
                kick.defuse()
            sim._schedule(kick, 0.0)
            kick.callbacks.append(self._resume_cb)
        else:
            self._waiting_on = nxt
            callbacks.append(self._resume_cb)
