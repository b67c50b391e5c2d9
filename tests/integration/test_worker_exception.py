"""A worker that dies by an exception stays inside the world.

The handler's chain owes CPU time when it raises: the dying process
forfeits that debt and releases its core (DESIGN §14), so the
supervisor's teardown can close the dead worker's sockets and respawn
it, and the world runs on to its horizon."""

import pytest

from repro.bench.runner import Testbed
from repro.ssl.connection import SslConnection
from repro.testing.invariants import check_all

HORIZON = 30e-3


def failing_handshake(monkeypatch, fail_at):
    """Make the ``fail_at``-th ``do_handshake`` call charge 1 us to the
    core and raise, as a bug inside the handler would."""
    original = SslConnection.do_handshake
    calls = {"n": 0}

    def do_handshake(self, owner):
        calls["n"] += 1
        if calls["n"] == fail_at:
            self.ctx.core.consume(1e-6, owner=owner)
            raise RuntimeError("injected handshake bug")
        return (yield from original(self, owner))

    monkeypatch.setattr(SslConnection, "do_handshake", do_handshake)


@pytest.mark.parametrize("config", ["SW", "QAT+S", "QAT+A", "QAT+AH",
                                    "QTLS"])
def test_worker_raising_with_debt_is_respawned(monkeypatch, config):
    failing_handshake(monkeypatch, fail_at=5)
    bed = Testbed(config, workers=2, seed=7)
    bed.add_s_time_fleet(n_clients=20)
    bed.sim.run(until=HORIZON)
    assert bed.sim.now == HORIZON
    sup = bed.server.supervisor
    assert (sup.crashes, sup.respawns) == (1, 1)
    assert "injected handshake bug" in sup.events[0][2]
    assert check_all(bed) == []
