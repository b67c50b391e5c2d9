"""Typed failures of the offload-backend layer.

This module is intentionally dependency-free so that low-level device
code (e.g. :mod:`repro.qat.rings`) can re-export the canonical
exception types without creating an import cycle with the engine.
"""

from __future__ import annotations

__all__ = ["SubmitError", "RingFull"]


class SubmitError(RuntimeError):
    """A submission could not be accepted by the offload backend."""


class RingFull(SubmitError):
    """Submission failed because the hardware request ring (or the
    backend's equivalent admission window) is full.

    This is the single canonical ring-full exception type: the device
    model (``repro.qat.rings``) re-exports it for backward
    compatibility.
    """
