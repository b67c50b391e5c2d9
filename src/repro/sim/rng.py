"""Named deterministic random streams.

All stochastic behaviour in the simulation draws from a
:class:`RngRegistry` keyed by stream name, so that (a) two runs with the
same master seed are bit-identical and (b) adding a new consumer of
randomness does not perturb existing streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngRegistry", "random_bytes"]


def random_bytes(rng: np.random.Generator, n: int) -> bytes:
    """``rng.bytes(n)``, drawn at word speed where that is exact.

    ``Generator.bytes`` draws ``ceil(n/4)`` 32-bit words, each the low
    then the high half of a 64-bit PCG64 output, written little-endian.
    With no half-word buffered and an even word count, those are whole
    64-bit outputs in order, so ``random_raw`` yields the same bytes
    and leaves the stream where ``bytes`` would (no half-word
    buffered). Any other case takes ``bytes`` itself.
    """
    bitgen = rng.bit_generator
    if ((n + 3) >> 2) & 1 == 0 and type(bitgen) is np.random.PCG64 \
            and not bitgen.state["has_uint32"]:
        raw = bitgen.random_raw((n + 7) >> 3)
        return raw.astype("<u8", copy=False).tobytes()[:n]
    return rng.bytes(n)


class RngRegistry:
    """Factory for independent, reproducible random generators."""

    def __init__(self, master_seed: int = 0) -> None:
        if master_seed < 0:
            raise ValueError("seed must be non-negative")
        self.master_seed = master_seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream's seed is derived from ``(master_seed, name)`` via
        SHA-256, so the mapping is stable across processes and Python
        versions (unlike ``hash()``).
        """
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.master_seed}:{name}".encode()).digest()
            seed = int.from_bytes(digest[:8], "big")
            gen = np.random.default_rng(seed)
            self._streams[name] = gen
        return gen

    def spawn(self, suffix: str) -> "RngRegistry":
        """Derive a child registry (e.g. per-experiment-point)."""
        digest = hashlib.sha256(
            f"{self.master_seed}/{suffix}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))
