"""Tests for links and simulated sockets."""

import gc
import weakref

import pytest

from repro.net import Link, SimSocket, SocketClosed, socket_pair
from repro.sim import Simulator


def make_pair(sim, latency=10e-6, bw=40e9):
    return socket_pair(sim, Link(sim, latency, bw), Link(sim, latency, bw))


def test_link_latency_and_serialization():
    sim = Simulator()
    link = Link(sim, latency=1e-3, bandwidth_bps=8e6)  # 1 MB/s
    ev = link.transfer(1000)  # 1ms tx + 1ms latency
    sim.run(until=ev)
    assert sim.now == pytest.approx(2e-3)


def test_link_fifo_queueing():
    sim = Simulator()
    link = Link(sim, latency=0.0, bandwidth_bps=8e6)
    e1 = link.transfer(1000)  # occupies wire 1ms
    e2 = link.transfer(1000)  # queued behind
    done = []
    e1.callbacks.append(lambda ev: done.append(("a", sim.now)))
    e2.callbacks.append(lambda ev: done.append(("b", sim.now)))
    sim.run()
    assert done[0] == ("a", pytest.approx(1e-3))
    assert done[1] == ("b", pytest.approx(2e-3))


def test_link_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, latency=-1)
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=0)
    link = Link(sim)
    with pytest.raises(ValueError):
        link.transfer(-5)


def test_socket_send_recv_after_latency():
    sim = Simulator()
    a, b = make_pair(sim, latency=1e-3)
    a.send(b"hello")
    assert b.recv() is None  # nothing yet
    sim.run()
    assert b.recv() == b"hello"
    assert b.recv() is None


def test_socket_message_order_preserved():
    sim = Simulator()
    a, b = make_pair(sim)
    for i in range(5):
        a.send(f"m{i}".encode())
    sim.run()
    got = [b.recv() for _ in range(5)]
    assert got == [f"m{i}".encode() for i in range(5)]


def test_socket_readable_flag_tracks_inbox():
    sim = Simulator()
    a, b = make_pair(sim)
    assert not b.readable
    a.send(b"x")
    sim.run()
    assert b.readable
    b.recv()
    assert not b.readable


def test_socket_explicit_wire_size():
    sim = Simulator()
    a, b = make_pair(sim)
    assert a.send({"type": "handshake"}, nbytes=512) == 512
    sim.run()
    assert b.recv() == {"type": "handshake"}
    # Delivery serialized 512 bytes, not the object's len().
    assert sim.now == pytest.approx(10e-6 + 512 * 8 / 40e9)


def test_send_on_closed_raises():
    sim = Simulator()
    a, b = make_pair(sim)
    a.close()
    with pytest.raises(SocketClosed):
        a.send(b"x")


def test_peer_close_gives_eof_after_drain():
    sim = Simulator()
    a, b = make_pair(sim)
    a.send(b"last")
    a.close()
    sim.run()
    assert b.recv() == b"last"
    assert b.recv() == b""  # EOF
    assert b.readable  # EOF keeps it readable


def test_delivery_after_close_dropped():
    sim = Simulator()
    a, b = make_pair(sim, latency=1e-3)
    a.send(b"in flight")
    b.close()
    sim.run()
    assert b.pending == 0


def test_pair_closed_at_both_ends_is_freed_without_the_cyclic_gc():
    """The second close drops the a <-> b peer cycle, so reference
    counting alone frees the pair."""
    gc.disable()
    try:
        sim = Simulator()
        a, b = make_pair(sim)
        a.send(b"x")
        sim.run()
        assert b.recv() == b"x"
        a.close()
        b.close()
        sim.run()  # deliver both FINs
        assert a.peer is None and b.peer is None
        refs = [weakref.ref(a), weakref.ref(b)]
        del a, b
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_unconnected_socket_send_raises():
    sim = Simulator()
    s = SimSocket(sim, Link(sim))
    with pytest.raises(SocketClosed):
        s.send(b"x")


def test_distinct_fds():
    sim = Simulator()
    a, b = make_pair(sim)
    c, d = make_pair(sim)
    assert len({a.fd, b.fd, c.fd, d.fd}) == 4
