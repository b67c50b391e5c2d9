"""Deterministic fault injection for the QAT model.

Production offload stacks treat the accelerator as a remote, failable
service: requests can be rejected, responses can be lost or corrupted,
latency can spike, and whole endpoints can drop out and come back. The
paper's only robustness mechanism is the failover timer of the
heuristic polling scheme (section 3.4); everything else in the stack
assumes a healthy card. A :class:`FaultPlan` lets experiments inject
those failures *deterministically* — every stochastic decision draws
from one seeded :mod:`repro.sim.rng` stream, so a run with the same
master seed and the same plan reproduces the identical fault event
trace bit-for-bit.

Injection points (installed via :meth:`QatDevice.install_fault_plan`):

- ``submit_rejected`` — consulted by :meth:`CryptoInstance.try_submit`;
  models endpoint outages (the endpoint stops accepting work) and
  ring-full storms (the card reports full rings regardless of actual
  occupancy).
- ``latency_multiplier`` / ``corrupt`` / ``response_lost`` — consulted
  at service start (:meth:`QatEndpoint._start_engine`), completion
  (:meth:`QatEndpoint._engine_done`) and response landing
  (:meth:`QatEndpoint._land`); model latency spikes, bad status
  codes, and lost completions (the response never reaches the response
  ring; the hardware credits the slot back, the op must be recovered
  by the engine's deadline machinery).
- ``resets`` — scheduled on the simulator when the plan is installed;
  a reset wipes an endpoint's queued requests and unretrieved
  responses, as a device-level recovery action would.
- ``worker_crashes`` — not a device fault at all: ``(worker_id, time)``
  pairs the server's supervision layer (:mod:`repro.server.lifecycle`)
  arms to kill a worker *process* mid-pass, exercising crash respawn
  and lease-epoch reclamation. Listed here so the whole failure
  schedule of a run lives in one replayable plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..crypto.ops import CryptoOp
from ..sim.rng import Stream

__all__ = ["FaultPlan", "OutageWindow", "QatHardwareError"]


class QatHardwareError(RuntimeError):
    """A response carrying a bad status code (firmware-level failure,
    as opposed to a functional crypto error raised by ``compute``)."""


@dataclass(frozen=True)
class OutageWindow:
    """One endpoint (or the whole card, ``endpoint_id=None``) is down
    during ``[start, end)``: submissions are rejected and in-flight
    completions are lost."""

    endpoint_id: Optional[int]
    start: float
    end: float

    def covers(self, endpoint_id: int, now: float) -> bool:
        return ((self.endpoint_id is None
                 or self.endpoint_id == endpoint_id)
                and self.start <= now < self.end)


def _normalize_outages(outages: Iterable) -> Tuple[OutageWindow, ...]:
    out = []
    for o in outages:
        if isinstance(o, OutageWindow):
            out.append(o)
        else:
            ep, start, end = o
            out.append(OutageWindow(ep, start, end))
    return tuple(out)


def _in_window(window: Optional[Tuple[float, float]], now: float) -> bool:
    return window is None or window[0] <= now < window[1]


class FaultPlan:
    """A replayable schedule of accelerator misbehaviour.

    ``rng`` must come from the experiment's :class:`RngRegistry` (e.g.
    ``rng.stream("faults")``); all randomized decisions draw from it in
    simulation order, so identical (seed, plan) pairs produce identical
    traces. Rate parameters are probabilities per opportunity; window
    parameters are ``(start, end)`` in simulated seconds and default to
    the whole run.
    """

    def __init__(self, rng: Stream, *,
                 response_loss: float = 0.0,
                 response_loss_window: Optional[Tuple[float, float]] = None,
                 corruption: float = 0.0,
                 corruption_window: Optional[Tuple[float, float]] = None,
                 latency_spike_rate: float = 0.0,
                 latency_spike_factor: float = 25.0,
                 latency_spike_window: Optional[Tuple[float, float]] = None,
                 ring_full_windows: Sequence[Tuple[float, float]] = (),
                 outages: Iterable = (),
                 resets: Sequence[Tuple[int, float]] = (),
                 worker_crashes: Sequence[Tuple[int, float]] = ()) -> None:
        for rate in (response_loss, corruption, latency_spike_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate {rate} outside [0, 1]")
        if latency_spike_factor < 1.0:
            raise ValueError("latency spike factor must be >= 1")
        self.rng = rng
        self.response_loss = response_loss
        self.response_loss_window = response_loss_window
        self.corruption = corruption
        self.corruption_window = corruption_window
        self.latency_spike_rate = latency_spike_rate
        self.latency_spike_factor = latency_spike_factor
        self.latency_spike_window = latency_spike_window
        self.ring_full_windows = tuple(ring_full_windows)
        self.outages = _normalize_outages(outages)
        self.resets = tuple(resets)
        for worker_id, when in worker_crashes:
            if worker_id < 0 or when < 0:
                raise ValueError(
                    f"bad worker crash ({worker_id}, {when})")
        self.worker_crashes = tuple(worker_crashes)
        #: The replayable event trace: (time, kind, detail) tuples.
        self.events: List[Tuple[float, str, str]] = []
        self.responses_lost = 0
        self.responses_corrupted = 0
        self.latency_spikes = 0
        self.submits_rejected = 0
        self.resets_fired = 0
        self.workers_crashed = 0

    # -- injection queries (called by the QAT model) -----------------------

    def outage_active(self, endpoint_id: int, now: float) -> bool:
        return any(o.covers(endpoint_id, now) for o in self.outages)

    def submit_rejected(self, endpoint_id: int,
                        now: float) -> Optional[str]:
        """Reason the submission is refused, or None to accept."""
        if self.outage_active(endpoint_id, now):
            self.submits_rejected += 1
            self._record(now, "submit_rejected", f"ep{endpoint_id} outage")
            return "outage"
        for start, end in self.ring_full_windows:
            if start <= now < end:
                self.submits_rejected += 1
                self._record(now, "submit_rejected",
                             f"ep{endpoint_id} ring-full storm")
                return "ring_full"
        return None

    def latency_multiplier(self, endpoint_id: int, op: CryptoOp,
                           now: float) -> float:
        if (self.latency_spike_rate <= 0.0
                or not _in_window(self.latency_spike_window, now)):
            return 1.0
        if self.rng.random() < self.latency_spike_rate:
            self.latency_spikes += 1
            self._record(now, "latency_spike",
                         f"ep{endpoint_id} {op.kind.label} "
                         f"x{self.latency_spike_factor:g}")
            return self.latency_spike_factor
        return 1.0

    def corrupt(self, endpoint_id: int, op: CryptoOp,
                now: float) -> Optional[QatHardwareError]:
        """Bad status code to stamp on the response, or None."""
        if (self.corruption <= 0.0
                or not _in_window(self.corruption_window, now)):
            return None
        if self.rng.random() < self.corruption:
            self.responses_corrupted += 1
            self._record(now, "response_corrupted",
                         f"ep{endpoint_id} {op.kind.label}")
            return QatHardwareError(
                f"injected bad status (ep{endpoint_id}, {op.kind.label})")
        return None

    def response_lost(self, endpoint_id: int, op: CryptoOp,
                      now: float) -> bool:
        if self.outage_active(endpoint_id, now):
            self.responses_lost += 1
            self._record(now, "response_lost",
                         f"ep{endpoint_id} {op.kind.label} (outage)")
            return True
        if (self.response_loss > 0.0
                and _in_window(self.response_loss_window, now)
                and self.rng.random() < self.response_loss):
            self.responses_lost += 1
            self._record(now, "response_lost",
                         f"ep{endpoint_id} {op.kind.label}")
            return True
        return False

    def on_reset(self, endpoint_id: int, dropped: int, now: float) -> None:
        self.resets_fired += 1
        self._record(now, "endpoint_reset",
                     f"ep{endpoint_id} dropped {dropped} entries")

    def on_worker_crash(self, worker_id: int, now: float) -> None:
        """Fired by the supervision layer when a scheduled worker
        crash actually kills a worker process."""
        self.workers_crashed += 1
        self._record(now, "worker_crash", f"worker{worker_id} killed")

    # -- observability -----------------------------------------------------

    def _record(self, now: float, kind: str, detail: str) -> None:
        self.events.append((now, kind, detail))

    def counters(self) -> dict:
        return dict(responses_lost=self.responses_lost,
                    responses_corrupted=self.responses_corrupted,
                    latency_spikes=self.latency_spikes,
                    submits_rejected=self.submits_rejected,
                    resets_fired=self.resets_fired,
                    workers_crashed=self.workers_crashed)

    def trace(self) -> List[Tuple[float, str, str]]:
        return list(self.events)
