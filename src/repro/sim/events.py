"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes (see :mod:`repro.sim.process`) suspend themselves by yielding an
event and are resumed when the event is *processed* by the kernel.

Lifecycle::

    pending --(succeed/fail)--> triggered --(kernel step)--> processed

Events may be cancelled while pending; a cancelled event's callbacks
are dropped and never run (the kernel pops it without processing it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator

__all__ = [
    "Event",
    "Timeout",
    "AnyOf",
    "EventCancelled",
    "UNSET",
]


class EventCancelled(RuntimeError):
    """Raised when waiting on an event that was cancelled."""


class _Unset:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<UNSET>"


#: Sentinel for "no value yet".
UNSET = _Unset()


class Event:
    """A one-shot simulation event.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Optional label used in traces and ``repr``.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_exc", "_cancelled",
                 "_defused")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = UNSET
        self._exc: Optional[BaseException] = None
        self._cancelled = False
        # A failed event whose exception was delivered somewhere.  An
        # undefused failure is re-raised by Simulator.run() so errors in
        # detached processes cannot pass silently.
        self._defused = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not UNSET or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once the kernel has run the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exc is None

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def value(self) -> Any:
        """The event's value; raises if the event failed or is pending."""
        if self._exc is not None:
            raise self._exc
        if self._value is UNSET:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not UNSET or self._exc is not None:
            raise RuntimeError(f"{self!r} already triggered")
        if self._cancelled:
            raise RuntimeError(f"{self!r} was cancelled")
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not UNSET or self._exc is not None:
            raise RuntimeError(f"{self!r} already triggered")
        self._exc = exc
        self._value = None
        self.sim._schedule(self, delay)
        return self

    def cancel(self) -> None:
        """Cancel a pending event; its callbacks will never run, so
        they are dropped now (freeing any cycle through them)."""
        if self.processed:
            raise RuntimeError(f"cannot cancel processed event {self!r}")
        self._cancelled = True
        self.callbacks.clear()

    def defuse(self) -> None:
        """Mark a failed event's exception as handled."""
        self._defused = True

    def __repr__(self) -> str:
        state = ("processed" if self.processed else
                 "cancelled" if self._cancelled else
                 "triggered" if self.triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = "") -> None:
        # Event.__init__'s slots, set here: a Timeout is the kernel's
        # most common event, so it skips the extra call.
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._exc = None
        self._cancelled = False
        self._defused = False
        self.delay = delay
        sim._schedule(self, delay)  # raises on a negative delay


class AnyOf(Event):
    """Fires when any one of the child events fires (at once when there
    are none); fails with the first child failure.

    The value is a dict mapping each *triggered* child event to its
    value at the time the condition fired.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: List[Event] = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("events from different simulators")
            if ev.processed:
                self._on_child(ev)
            else:
                assert ev.callbacks is not None
                ev.callbacks.append(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            assert ev.exception is not None
            ev.defuse()
            self.fail(ev.exception)
            return
        self.succeed({e: e._value for e in self.events if e.ok})
