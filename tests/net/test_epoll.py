"""Tests for the epoll model and notification FDs."""

import pytest

from repro.cpu import Core
from repro.cpu.core import KERNEL_SWITCH_COST
from repro.net import Epoll, Link, NotifyFd, socket_pair, wait_readable
from repro.net.epoll_sim import EPOLL_PER_EVENT_COST, EPOLL_WAIT_BASE_COST
from repro.sim import Simulator, Timeout
from repro.sim.rng import Stream


def make_env():
    sim = Simulator()
    core = Core(sim, 0)
    ep = Epoll(sim)
    return sim, core, ep


def test_wait_returns_ready_immediately():
    sim, core, ep = make_env()
    a, b = socket_pair(sim, Link(sim, 0.0), Link(sim, 0.0))
    ep.register(b)
    a.send(b"x")
    sim.run()  # deliver

    result = {}

    def loop(sim):
        ready = yield from ep.wait(core)
        yield from core.settle()
        result["ready"] = ready

    sim.process(loop(sim))
    sim.run()
    assert result["ready"] == [b]


def test_wait_blocks_until_data():
    sim, core, ep = make_env()
    a, b = socket_pair(sim, Link(sim, latency=1e-3), Link(sim, 1e-3))
    ep.register(b)
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core)
        yield from core.settle()
        result["at"] = sim.now
        result["ready"] = ready

    sim.process(loop(sim))
    sim.call_at(sim.now + 5e-3, lambda: a.send(b"later"))
    sim.run()
    assert result["ready"] == [b]
    assert result["at"] >= 6e-3  # 5ms + 1ms link latency


def test_wait_timeout_returns_empty():
    sim, core, ep = make_env()
    a, b = socket_pair(sim, Link(sim), Link(sim))
    ep.register(b)
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core, timeout=2e-3)
        yield from core.settle()
        result["ready"] = ready
        result["at"] = sim.now

    sim.process(loop(sim))
    sim.run()
    assert result["ready"] == []
    assert result["at"] == pytest.approx(2e-3, rel=0.01)


def test_expired_wait_in_an_empty_calendar_returns_at_now_plus_timeout():
    sim, core, ep = make_env()
    nfd = NotifyFd(sim)
    ep.register(nfd)
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core, timeout=2e-3)
        result["ready"] = ready
        result["at"] = sim.now
        yield from core.settle()

    sim.process(loop(sim))
    pushed = []
    schedule = sim._schedule

    def recording(event, delay=0.0, **kw):
        pushed.append(event)
        schedule(event, delay, **kw)

    sim._schedule = recording
    sim.run()
    settled = KERNEL_SWITCH_COST + EPOLL_WAIT_BASE_COST
    assert result == {"ready": [], "at": settled + 2e-3}
    # Neither the settle nor the expired wait pushed an event: only
    # the process's exit was scheduled.
    assert len(pushed) == 1
    assert ep._waiter is None


def test_wait_with_a_timeout_still_wakes_on_an_earlier_notification():
    sim, core, ep = make_env()
    nfd = NotifyFd(sim)
    ep.register(nfd)
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core, timeout=2e-3)
        yield from core.settle()
        result["ready"] = ready
        result["at"] = sim.now

    sim.process(loop(sim))
    sim.call_at(1e-3, nfd.write_event)
    sim.run()
    assert result["ready"] == [nfd]
    assert result["at"] == 1e-3 + EPOLL_PER_EVENT_COST


def test_a_wait_its_fd_wakes_cancels_its_timer():
    sim, core, ep = make_env()
    nfd = NotifyFd(sim)
    ep.register(nfd)
    timers, fired = [], []
    schedule = sim._schedule

    def recording(event, delay=0.0, **kw):
        if isinstance(event, Timeout) and delay == 2e-3:
            timers.append(event)
            event.callbacks.append(fired.append)
        schedule(event, delay, **kw)

    sim._schedule = recording

    def loop(sim):
        ready = yield from ep.wait(core, timeout=2e-3)
        yield from core.settle()
        assert ready == [nfd]

    proc = sim.process(loop(sim))
    sim.call_at(1e-3, nfd.write_event)
    sim.run()
    assert proc.ok
    (timer,) = timers
    assert timer.cancelled and not timer.processed
    assert sim._heap == [] and fired == []  # popped, never run


def test_wait_charges_kernel_crossing():
    sim, core, ep = make_env()
    a, b = socket_pair(sim, Link(sim, 0.0), Link(sim, 0.0))
    ep.register(b)
    a.send(b"x")
    sim.run()

    def loop(sim):
        yield from ep.wait(core)
        yield from core.settle()

    sim.process(loop(sim))
    sim.run()
    assert core.stats.kernel_crossings == 1
    assert core.stats.busy_time > 0


def test_unregister_stops_watching():
    sim, core, ep = make_env()
    a, b = socket_pair(sim, Link(sim, 0.0), Link(sim, 0.0))
    ep.register(b)
    ep.unregister(b)
    a.send(b"x")
    sim.run()
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core, timeout=1e-3)
        yield from core.settle()
        result["ready"] = ready

    sim.process(loop(sim))
    sim.run()
    assert result["ready"] == []


def test_multiple_ready_fds_reported_together():
    sim, core, ep = make_env()
    pairs = [socket_pair(sim, Link(sim, 0.0), Link(sim, 0.0))
             for _ in range(3)]
    for a, b in pairs:
        ep.register(b)
        a.send(b"x")
    sim.run()
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core)
        yield from core.settle()
        result["ready"] = set(r.fd for r in ready)

    sim.process(loop(sim))
    sim.run()
    assert result["ready"] == {b.fd for _, b in pairs}


def test_notify_fd_wakes_epoll():
    sim, core, ep = make_env()
    nfd = NotifyFd(sim)
    ep.register(nfd)
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core)
        yield from core.settle()
        result["ready"] = ready
        nfd.read_events()
        result["readable_after_read"] = nfd.readable

    sim.process(loop(sim))
    sim.call_at(sim.now + 1e-3, nfd.write_event)
    sim.call_at(sim.now + 1e-3, nfd.write_event)
    sim.run()
    # Two writes in one instant wake the loop once; one read clears both.
    assert result["ready"] == [nfd]
    assert result["readable_after_read"] is False
    assert not nfd.readable


def test_ready_list_matches_registration_order_scan():
    """The ready set hands out exactly what a scan of every watched fd
    in registration order would, under random register / unregister /
    readiness changes on two epolls sharing fds and one-shot waiters
    (a re-registered fd goes last, an already-registered one keeps its
    place)."""
    sim = Simulator()
    epolls = [Epoll(sim), Epoll(sim)]
    fds = [NotifyFd(sim) for _ in range(8)]
    rng = Stream(27)
    for _ in range(4000):
        ep = epolls[int(rng.integers(0, 2))]
        fd = fds[int(rng.integers(0, len(fds)))]
        action = int(rng.integers(0, 5))
        if action == 0:
            ep.register(fd)
        elif action == 1:
            ep.unregister(fd)
        elif action == 2:
            fd.write_event()
        elif action == 3:
            fd.read_events()
            assert not fd.readable
        else:
            wait_readable(sim, fd)
        for ep in epolls:
            assert ep._ready_list() == [p for p in ep._watched
                                        if p.readable]
