"""Unit tests for deterministic RNG streams.

``repro.sim.rng.Stream`` must return exactly what
``numpy.random.default_rng(seed)`` returns for every call the simulator
makes. numpy is the reference here and only here: the simulator itself
never imports it.
"""

import hashlib

import numpy as np
import pytest

from repro.sim import RngRegistry
from repro.sim.rng import Stream


def draws(stream, n):
    return [stream.random() for _ in range(n)]


def test_same_seed_same_stream():
    a = draws(RngRegistry(42).stream("x"), 8)
    b = draws(RngRegistry(42).stream("x"), 8)
    assert a == b


def test_different_names_independent():
    reg = RngRegistry(42)
    a = draws(reg.stream("x"), 8)
    b = draws(reg.stream("y"), 8)
    assert a != b


def test_different_seeds_differ():
    a = draws(RngRegistry(1).stream("x"), 8)
    b = draws(RngRegistry(2).stream("x"), 8)
    assert a != b


def test_stream_is_cached():
    reg = RngRegistry(0)
    assert reg.stream("s") is reg.stream("s")


def test_spawn_derives_stable_child():
    a = draws(RngRegistry(7).spawn("pt1").stream("z"), 4)
    b = draws(RngRegistry(7).spawn("pt1").stream("z"), 4)
    c = draws(RngRegistry(7).spawn("pt2").stream("z"), 4)
    assert a == b
    assert a != c


def test_adding_stream_does_not_perturb_existing():
    reg1 = RngRegistry(5)
    _ = draws(reg1.stream("used"), 4)
    after = draws(reg1.stream("used"), 4)

    reg2 = RngRegistry(5)
    _ = draws(reg2.stream("used"), 4)
    _ = draws(reg2.stream("new-consumer"), 4)
    after2 = draws(reg2.stream("used"), 4)
    assert after == after2


# -- equivalence with numpy's default_rng --------------------------------------

def _sha_seed(text):
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


SEEDS = ([0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
         + [_sha_seed(f"7:{name}") for name in
            ("worker-0", "client-3", "faults", "mix", "stek", "x")])
BYTE_SIZES = (0, 1, 3, 4, 5, 8, 12, 16, 20, 32, 36, 48, 205)
#: ``integers`` bounds: one argument, two arguments, around 2**32
#: (Lemire on 32-bit draws, whole 32-bit draws, Lemire on 64-bit draws)
#: and at the int64 edges.
INT_BOUNDS = ((1,), (2,), (5,), (100,), (2**31,), (2**32 - 1,), (2**32,),
              (2**32 + 1,), (2**40,), (1 << 62,), (1 << 63,), (2, 100),
              (2, 1 << 62), (-5, 2**33), (2**40, 2**40 + 2**32),
              (-(1 << 63), 1 << 63))
WEIGHTS = (3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0)


def same_state(stream, gen):
    ref = gen.bit_generator.state
    state, inc, half = stream.state
    return ((state, inc) == (ref["state"]["state"], ref["state"]["inc"])
            and (half is not None) == bool(ref["has_uint32"])
            and (half is None or half == ref["uinteger"]))


def draw_pair(pick, ours, ref):
    """One call of kind ``pick`` on both generators, results as plain
    Python values."""
    kind, arg = pick
    if kind == "random":
        return ours.random(), ref.random()
    if kind == "bytes":
        return ours.bytes(arg), ref.bytes(arg)
    if kind == "integers":
        return ours.integers(*arg), int(ref.integers(*arg))
    if kind == "uniform":
        return ours.uniform(0.04, 0.08), float(ref.uniform(0.04, 0.08))
    if kind == "permutation":
        return ours.permutation(arg), ref.permutation(arg).tolist()
    p = [w / sum(WEIGHTS[:arg]) for w in WEIGHTS[:arg]]
    return ours.choice(arg, p=p), int(ref.choice(arg, p=p))


PICKS = ([("random", None), ("uniform", None)]
         + [("bytes", n) for n in BYTE_SIZES]
         + [("integers", b) for b in INT_BOUNDS]
         + [("permutation", n) for n in range(13)]
         + [("choice", n) for n in range(1, len(WEIGHTS) + 1)])
#: A 32-bit draw leaves a half-word buffered; the byte draws right
#: after it start from that half, at odd and even word counts.
HALF_WORD_PREFIX = [("integers", (100,)), ("bytes", 16),
                    ("integers", (5,)), ("bytes", 12), ("bytes", 5),
                    ("integers", (2**32,)), ("bytes", 0), ("random", None)]


@pytest.mark.parametrize("seed", SEEDS)
def test_seeding_matches_default_rng(seed):
    assert same_state(Stream(seed), np.random.default_rng(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_default_rng_draw_for_draw(seed):
    ours, ref = Stream(seed), np.random.default_rng(seed)
    order = Stream(seed ^ 0x5EED)
    script = HALF_WORD_PREFIX + [PICKS[order.integers(len(PICKS))]
                                 for _ in range(400)]
    snapshot = None
    for step, pick in enumerate(script):
        got, want = draw_pair(pick, ours, ref)
        assert got == want, (step, pick)
        if step == 150:
            snapshot = ours.state, ref.bit_generator.state
    assert same_state(ours, ref)
    # Rewind both mid-stream (as a stack-async replay does) and redraw.
    ours.state, ref.bit_generator.state = snapshot
    for step, pick in enumerate(script[151:200]):
        got, want = draw_pair(pick, ours, ref)
        assert got == want, ("replay", step, pick)
    assert same_state(ours, ref)


def test_registry_streams_are_default_rng_of_the_derived_seed():
    reg = RngRegistry(7)
    for name in ("worker-0", "client-3"):
        ref = np.random.default_rng(_sha_seed(f"7:{name}"))
        assert reg.stream(name).bytes(32) == ref.bytes(32)
        assert draws(reg.stream(name), 3) == [ref.random() for _ in range(3)]


def test_negative_seed_raises_like_numpy():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Stream(-1)
