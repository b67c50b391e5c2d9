"""Pollables: per-world fd numbering and the one-shot readable waiter."""

from repro.net import wait_readable
from repro.net.epoll_sim import NotifyFd
from repro.sim import Simulator


def test_fd_numbers_are_per_world():
    fds = []
    for _ in range(2):
        sim = Simulator()
        fds.append([NotifyFd(sim).fd for _ in range(3)])
    assert fds == [[3, 4, 5], [3, 4, 5]]


def test_wait_readable_fires_once_and_unregisters():
    sim = Simulator()
    fd = NotifyFd(sim)
    fired = []
    ev = wait_readable(sim, fd)
    ev.callbacks.append(lambda e: fired.append(sim.now))
    assert len(fd._watchers) == 1
    fd.write_event()
    fd.write_event()
    assert fd._watchers == {}
    sim.run()
    assert fired == [0.0]
    assert ev.processed and ev.ok


def test_wait_readable_on_readable_pollable_registers_nothing():
    sim = Simulator()
    fd = NotifyFd(sim)
    fd.write_event()
    ev = wait_readable(sim, fd)
    assert ev.triggered
    assert fd._watchers == {}


def test_mark_readable_notifies_watchers_in_registration_order():
    sim = Simulator()
    fd = NotifyFd(sim)
    order = []
    for i in range(3):
        wait_readable(sim, fd).callbacks.append(
            lambda e, i=i: order.append(i))
    fd.write_event()
    sim.run()
    assert order == [0, 1, 2]
