"""Tests for TCP connection setup and the machine topology."""

import pytest

from repro.net import Network, TCP_HANDSHAKE_BYTES
from repro.net.network import NIC_BANDWIDTH, NIC_LATENCY
from repro.sim import Simulator

#: One SYN (or SYN-ACK) crossing a NIC link.
SYN_DELAY = NIC_LATENCY + TCP_HANDSHAKE_BYTES * 8 / NIC_BANDWIDTH


def test_connect_takes_one_rtt():
    sim = Simulator()
    net = Network(sim)
    net.bind("https")
    result = {}

    def client(sim):
        sock = yield from net.connect("client0", "https")
        result["at"] = sim.now
        result["sock"] = sock

    sim.process(client(sim))
    sim.run()
    assert result["at"] == pytest.approx(2 * SYN_DELAY)


def test_listener_receives_connection_at_syn_arrival():
    sim = Simulator()
    net = Network(sim)
    listener = net.bind("https")

    def client(sim):
        yield from net.connect("client0", "https")

    sim.process(client(sim))
    sim.run(until=1.5 * NIC_LATENCY)
    assert listener.readable
    ssock = listener.accept()
    assert ssock is not None
    assert listener.accept() is None
    assert not listener.readable


def test_connected_pair_exchanges_data():
    sim = Simulator()
    net = Network(sim)
    listener = net.bind("https")
    result = {}

    def client(sim):
        sock = yield from net.connect("client0", "https")
        sock.send(b"ping")
        while True:
            msg = sock.recv()
            if msg is not None:
                result["reply"] = msg
                return
            yield sim.timeout(0.05e-3)

    def server(sim):
        while not listener.readable:
            yield sim.timeout(0.05e-3)
        sock = listener.accept()
        while True:
            msg = sock.recv()
            if msg is not None:
                sock.send(b"pong:" + msg)
                return
            yield sim.timeout(0.05e-3)

    sim.process(client(sim))
    sim.process(server(sim))
    sim.run()
    assert result["reply"] == b"pong:ping"


def test_connect_unbound_addr_refused():
    sim = Simulator()
    net = Network(sim)
    with pytest.raises(ConnectionRefusedError):
        net.lookup("nowhere")


def test_double_bind_rejected():
    sim = Simulator()
    net = Network(sim)
    net.bind("x")
    with pytest.raises(ValueError):
        net.bind("x")


def test_links_are_per_machine_pair():
    sim = Simulator()
    net = Network(sim)
    l1 = net.link("client0", "server")
    l2 = net.link("client1", "server")
    l3 = net.link("client0", "server")
    assert l1 is l3
    assert l1 is not l2


def test_connection_count_and_handshake_bytes():
    sim = Simulator()
    net = Network(sim)
    listener = net.bind("https")
    done = []

    def client(sim):
        yield from net.connect("client0", "https")
        done.append(sim.now)

    sim.process(client(sim))
    sim.run()
    assert listener.backlog == 1
    # SYN and SYN-ACK each serialize TCP_HANDSHAKE_BYTES on the wire.
    assert done == [pytest.approx(2 * SYN_DELAY)]
