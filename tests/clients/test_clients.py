"""Client fleet tests: s_time loops, ab modes, session resumption."""

from dataclasses import replace

import pytest

from repro.bench.runner import Testbed


def make_bed(config="SW", **kw):
    return Testbed(config, workers=1, suites=("ECDHE-RSA",), seed=5, **kw)


def test_s_time_closed_loop_counts():
    bed = make_bed()
    bed.add_s_time_fleet(n_clients=5)
    bed.sim.run(until=0.1)
    assert len(bed.metrics.handshakes) > 10
    assert bed.metrics.errors == 0


def test_s_time_reuse_produces_abbreviated():
    bed = make_bed()
    bed.add_s_time_fleet(n_clients=5, reuse=True)
    bed.sim.run(until=0.1)
    resumed = [h for h in bed.metrics.handshakes if h[2]]
    full = [h for h in bed.metrics.handshakes if not h[2]]
    assert len(full) == 5  # one full handshake per client, then resume
    assert len(resumed) > len(full)


def test_s_time_mix_ratio():
    bed = make_bed()
    bed.add_s_time_fleet(n_clients=10, full_ratio=0.5)
    bed.sim.run(until=0.3)
    resumed = sum(1 for h in bed.metrics.handshakes if h[2])
    total = len(bed.metrics.handshakes)
    assert 0.3 < resumed / total < 0.7


def test_s_time_validation():
    bed = make_bed()
    with pytest.raises(ValueError):
        bed.add_s_time_fleet(n_clients=0)
    with pytest.raises(ValueError):
        bed.add_s_time_fleet(n_clients=1, full_ratio=1.5)


def test_s_time_stagger_spreads_starts():
    bed = make_bed()
    bed.add_s_time_fleet(n_clients=20)
    bed.sim.run(until=0.12)
    first_completions = sorted(h[0] for h in bed.metrics.handshakes)[:20]
    # Starts staggered over 40ms: first completions are spread out.
    assert first_completions[-1] - first_completions[0] > 0.01


def test_ab_keepalive_amortizes_handshakes():
    bed = make_bed()
    bed.add_ab_fleet(n_clients=4, file_size=8192)
    bed.sim.run(until=0.2)
    assert len(bed.metrics.requests) > 4 * 5
    # keepalive: only one handshake per client connection
    assert len(bed.metrics.handshakes) == 0  # keepalive mode records none
    assert bed.server.metrics_snapshot()["handshakes_full"] == 4


def test_ab_transfer_payload_accounting():
    bed = make_bed()
    bed.add_ab_fleet(n_clients=2, file_size=100_000)
    bed.sim.run(until=0.2)
    sizes = {t[1] for t in bed.metrics.transfers}
    assert sizes == {100_000}


def test_ab_full_handshake_mode_latency():
    bed = make_bed()
    bed.add_ab_fleet(n_clients=2, file_size=64, keepalive=False)
    bed.sim.run(until=0.2)
    assert len(bed.metrics.handshakes) == len(bed.metrics.requests) > 5
    lat = bed.metrics.mean_latency(0.05, 0.2)
    assert lat > 0.001  # includes a software ECDHE-RSA handshake


def test_ab_validation():
    bed = make_bed()
    with pytest.raises(ValueError):
        bed.add_ab_fleet(n_clients=0, file_size=10)
    with pytest.raises(ValueError):
        bed.add_ab_fleet(n_clients=1, file_size=-1)


def test_client_session_default_machines():
    bed = make_bed()
    bed.add_s_time_fleet(n_clients=4)
    bed.sim.run(until=0.05)
    # s_time clients alternate over the testbed's two client machines.
    assert sorted(src for src, dst in bed.net._links
                  if dst == "server") == ["client0", "client1"]


def test_s_time_drops_a_session_that_ended_in_a_fatal_alert():
    bed = Testbed("SW", workers=1, suites=("TLS1.3-ECDHE-RSA",),
                  tls_version="1.3", seed=5, session_tickets=True)
    bed.add_s_time_fleet(n_clients=1, reuse=True)
    bed.sim.run(until=0.06)
    assert bed.metrics.errors == 0
    assert any(resumed for _t, _latency, resumed in bed.metrics.handshakes)
    # From now on the server derives a wrong PSK from every ticket, so
    # each resumption ends in its decrypt_error alert.
    keeper = bed.server.ticket_keeper
    opened = keeper.open
    keeper.open = lambda ticket, now: replace(opened(ticket, now),
                                              master_secret=bytes(48))
    t_break = bed.sim.now
    bed.sim.run(until=0.1)
    assert bed.metrics.errors > 0
    # After the alert the client stops offering that
    # session and falls back to a full handshake.
    assert any(t > t_break and not resumed
               for t, _latency, resumed in bed.metrics.handshakes)
