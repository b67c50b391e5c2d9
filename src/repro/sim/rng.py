"""Named deterministic random streams.

All stochastic behaviour in the simulation draws from a
:class:`RngRegistry` keyed by stream name, so that (a) two runs with the
same master seed are bit-identical and (b) adding a new consumer of
randomness does not perturb existing streams.

A stream is a :class:`Stream`: numpy's ``default_rng`` (SeedSequence,
then PCG64 with the XSL-RR output, then Lemire's bounded integers)
written out in plain Python, so every draw equals the one
``numpy.random.default_rng(seed)`` makes for the same call and the
simulator runs without numpy. DESIGN §11 lists the algorithms.
"""

from __future__ import annotations

import hashlib
import math
import operator
from bisect import bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

__all__ = ["RngRegistry", "Stream"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: SeedSequence hash constants (numpy.random.bit_generator).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
#: ``choice`` accepts probabilities summing to 1 within sqrt(eps).
_P_ATOL = math.sqrt(2.0 ** -52)


def _seed_sequence_state(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    seed >>= 32
    while seed:
        entropy.append(seed & _M32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for value in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(value))

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ (value >> 16))
    return [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)]


class Stream:
    """One PCG64 random stream, draw for draw ``default_rng(seed)``.

    The methods are the scalar forms of the ``numpy.random.Generator``
    methods the simulator calls (``choice`` takes ``p`` only).
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        s_hi, s_lo, i_hi, i_lo = _seed_sequence_state(operator.index(seed))
        # pcg64_set_seed: srandom with initstate = s, initseq = i.
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # One step from state 0 leaves ``inc``; add initstate, step.
        state = self._inc + (s_hi << 64 | s_lo)
        self._state = (state * _PCG_MULT + self._inc) & _M128
        #: The high half of the last 64-bit output, when ``_next32``
        #: has handed out only its low half (numpy's ``has_uint32``).
        self._half: Optional[int] = None

    @property
    def state(self) -> Tuple[int, int, Optional[int]]:
        """``(lcg state, increment, buffered half-word or None)``; set
        it back to rewind the stream."""
        return self._state, self._inc, self._half

    @state.setter
    def state(self, value: Tuple[int, int, Optional[int]]) -> None:
        self._state, self._inc, self._half = value

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = ((s >> 64) ^ s) & _M64  # XSL-RR
        rot = s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        v = self._next64()
        self._half = v >> 32
        return v & _M32

    def random(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def bytes(self, n: int) -> bytes:
        """``ceil(n/4)`` 32-bit words, little-endian, cut to ``n``.
        ``bytes(0)`` draws one word, as numpy's does."""
        words = (n + 3) >> 2 or 1
        parts = []
        if self._half is not None:
            parts.append(self._half.to_bytes(4, "little"))
            self._half = None
            words -= 1
        next64 = self._next64
        for _ in range(words >> 1):
            parts.append(next64().to_bytes(8, "little"))
        if words & 1:
            parts.append(self._next32().to_bytes(4, "little"))
        out = b"".join(parts)
        return out if len(out) == n else out[:n]

    def integers(self, low: int, high: Optional[int] = None) -> int:
        """An int in [low, high), or in [0, low) without ``high``."""
        if high is None:
            low, high = 0, low
        if low < _INT64_MIN or high - 1 > _INT64_MAX:
            raise ValueError("bounds out of range for int64")
        rng = high - 1 - low
        if rng < 0:
            raise ValueError("low >= high")
        if rng == 0:
            return low
        if rng == _M32:
            return low + self._next32()
        if rng == _M64:
            return low + self._next64()
        # Lemire: multiply, reject the biased low products.
        bits, mask, draw = ((32, _M32, self._next32) if rng < _M32
                            else (64, _M64, self._next64))
        excl = rng + 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (mask - rng) % excl
            while m & mask < threshold:
                m = draw() * excl
        return low + (m >> bits)

    def _interval(self, top: int) -> int:
        """An int in [0, top] by masked rejection (``random_interval``)."""
        mask = (1 << top.bit_length()) - 1
        draw = self._next32 if top <= _M32 else self._next64
        while True:
            value = draw() & mask
            if value <= top:
                return value

    def permutation(self, n: int) -> List[int]:
        """``range(n)`` shuffled top-down by Fisher-Yates."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            out[i], out[j] = out[j], out[i]
        return out

    def choice(self, n: int, p: Sequence[float]) -> int:
        """An index in [0, n) drawn with probabilities ``p``."""
        if len(p) != n or min(p) < 0 or abs(math.fsum(p) - 1.0) > _P_ATOL:
            raise ValueError("p must be n probabilities summing to 1")
        cdf = list(accumulate(float(x) for x in p))
        total = cdf[-1]
        return bisect_right([c / total for c in cdf], self.random())


class RngRegistry:
    """Factory for independent, reproducible random streams."""

    def __init__(self, master_seed: int = 0) -> None:
        if master_seed < 0:
            raise ValueError("seed must be non-negative")
        self.master_seed = master_seed
        self._streams: dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it on first use.

        The stream's seed is derived from ``(master_seed, name)`` via
        SHA-256, so the mapping is stable across processes and Python
        versions (unlike ``hash()``).
        """
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.master_seed}:{name}".encode()).digest()
            gen = Stream(int.from_bytes(digest[:8], "big"))
            self._streams[name] = gen
        return gen

    def spawn(self, suffix: str) -> "RngRegistry":
        """Derive a child registry (e.g. per-experiment-point)."""
        digest = hashlib.sha256(
            f"{self.master_seed}/{suffix}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))
