"""Unit tests for deterministic RNG streams."""

import ast
from pathlib import Path

import numpy as np

import repro
from repro.sim import RngRegistry
from repro.sim.rng import random_bytes


def test_same_seed_same_stream():
    a = RngRegistry(42).stream("x").random(8)
    b = RngRegistry(42).stream("x").random(8)
    assert (a == b).all()


def test_different_names_independent():
    reg = RngRegistry(42)
    a = reg.stream("x").random(8)
    b = reg.stream("y").random(8)
    assert not (a == b).all()


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x").random(8)
    b = RngRegistry(2).stream("x").random(8)
    assert not (a == b).all()


def test_stream_is_cached():
    reg = RngRegistry(0)
    assert reg.stream("s") is reg.stream("s")


def test_spawn_derives_stable_child():
    a = RngRegistry(7).spawn("pt1").stream("z").random(4)
    b = RngRegistry(7).spawn("pt1").stream("z").random(4)
    c = RngRegistry(7).spawn("pt2").stream("z").random(4)
    assert (a == b).all()
    assert not (a == c).all()


def test_adding_stream_does_not_perturb_existing():
    reg1 = RngRegistry(5)
    _ = reg1.stream("used").random(4)
    after = reg1.stream("used").random(4)

    reg2 = RngRegistry(5)
    _ = reg2.stream("used").random(4)
    _ = reg2.stream("new-consumer").random(4)
    after2 = reg2.stream("used").random(4)
    assert (after == after2).all()


# -- random_bytes: rng.bytes at word speed ------------------------------------

BYTE_SIZES = (1, 4, 8, 12, 16, 32, 36, 48, 52, 205)


def test_random_bytes_equals_generator_bytes_draw_for_draw():
    """Interleaved sizes (even and odd word counts), float and bounded
    integer draws (which can leave a half-word buffered) and a state
    snapshot/restore, as a stack-async replay does: every draw and the
    stream after it match ``Generator.bytes``."""
    fast, ref = np.random.default_rng(2019), np.random.default_rng(2019)
    order = np.random.default_rng(5)
    snapshot = None
    for step in range(3000):
        pick = int(order.integers(0, len(BYTE_SIZES) + 4))
        if pick < len(BYTE_SIZES):
            n = BYTE_SIZES[pick]
            assert random_bytes(fast, n) == ref.bytes(n), (step, n)
        elif pick == len(BYTE_SIZES):
            assert fast.random() == ref.random()
        elif pick == len(BYTE_SIZES) + 1:
            assert fast.integers(0, 100) == ref.integers(0, 100)
        elif snapshot is None:
            snapshot = (fast.bit_generator.state, ref.bit_generator.state)
        else:
            fast.bit_generator.state, ref.bit_generator.state = snapshot
            snapshot = None
    assert fast.random() == ref.random()
    assert fast.integers(0, 2**32, size=7).tolist() \
        == ref.integers(0, 2**32, size=7).tolist()


def test_random_bytes_other_bit_generators_use_bytes():
    fast = np.random.Generator(np.random.MT19937(3))
    ref = np.random.Generator(np.random.MT19937(3))
    for n in BYTE_SIZES:
        assert random_bytes(fast, n) == ref.bytes(n)


def test_no_byte_draw_bypasses_random_bytes():
    """Every byte draw in ``src/repro`` goes through ``random_bytes``,
    the one place that calls ``Generator.bytes``."""
    root = Path(repro.__file__).parent
    helper = root / "sim" / "rng.py"
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == helper:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "bytes"):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
