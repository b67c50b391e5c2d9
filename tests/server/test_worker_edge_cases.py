"""Worker edge cases: event disorder during TLS-ASYNC, teardown with
responses in flight, malformed requests, per-job FD mode."""

from repro.bench.runner import Testbed
from repro.clients.tls_session import ClientTlsSession
from repro.server.connection import ConnState
from repro.sim.rng import Stream
from repro.tls.actions import SendMessage
from repro.tls.messages import Finished


def run_bed(config="QTLS", until=0.08, n_clients=10, **kw):
    bed = Testbed(config, workers=1, suites=("TLS-RSA",), seed=9, **kw)
    bed.add_s_time_fleet(n_clients=n_clients)
    bed.sim.run(until=until)
    return bed


def test_connections_fully_drain_on_close():
    bed = run_bed()
    worker = bed.server.workers[0]
    st = worker.stub_status
    assert st.total_closed > 0
    assert st.tls_alive == len(worker.conns)
    # Epoll only watches live sockets + the listener + live notify fds
    # (+ the worker's own wake fd when one is armed).
    watched = len(worker.epoll._watched)
    wake = 1 if worker.wake_fd is not None else 0
    assert watched <= 1 + wake + len(worker.conns) + len(worker.fd_conns)


def test_saved_read_handler_used_under_load():
    """Client flights regularly arrive while a connection is paused in
    TLS-ASYNC; the worker must save and restore those read events
    (section 4.2) rather than processing them mid-job."""
    bed = run_bed(n_clients=40, until=0.12)
    assert bed.metrics.errors == 0
    assert bed.server.metrics_snapshot()["alerts"] == 0
    assert len(bed.metrics.handshakes) > 100


def test_no_connection_left_in_async_at_quiesce():
    bed = Testbed("QTLS", workers=1, suites=("TLS-RSA",), seed=9)
    bed.add_s_time_fleet(n_clients=5)
    bed.sim.run(until=0.05)
    # Let in-flight work drain: no new arrivals after we stop observing
    # (clients keep running, so just assert no connection is stuck by
    # checking that async jobs have bounded age).
    worker = bed.server.workers[0]
    stuck = [c for c in worker.conns.values()
             if c.state is ConnState.TLS_ASYNC]
    # Some may legitimately be in-flight, but with 5 clients at most 5.
    assert len(stuck) <= 5


def test_teardown_with_response_in_flight_is_safe():
    """Kill connections aggressively: responses for aborted jobs must
    be dispatched without crashing or corrupting counters."""
    bed = Testbed("QTLS", workers=1, suites=("TLS-RSA",), seed=9)
    bed.add_s_time_fleet(n_clients=8)

    killed = {"n": 0}

    def killer(sim):
        worker = bed.server.workers[0]
        for _ in range(40):
            yield sim.timeout(1e-3)
            for conn in list(worker.conns.values())[:2]:
                if conn.in_async:
                    # Peer vanishes mid-offload.
                    conn.sock.peer.close()
                    killed["n"] += 1

    bed.sim.process(killer(bed.sim))
    bed.sim.run(until=0.08)
    assert killed["n"] > 0
    worker = bed.server.workers[0]
    assert worker.engine.inflight.total >= 0  # no underflow crash
    # The system keeps making progress afterwards.
    assert len(bed.metrics.handshakes) > 10


def test_per_job_fd_mode_works():
    bed = Testbed("QAT+AH", workers=1, suites=("TLS-RSA",), seed=9,
                  share_notify_fd=False)
    bed.add_s_time_fleet(n_clients=10)
    bed.sim.run(until=0.06)
    assert bed.metrics.errors == 0
    assert len(bed.metrics.handshakes) > 20


def test_malformed_http_request_closes_connection():
    bed = Testbed("SW", workers=1, suites=("TLS-RSA",), seed=9)

    done = {}

    def evil_client(sim):
        from repro.clients.tls_session import ClientTlsSession
        sock = yield from bed.net.connect("client0",
                                          bed.server.addresses()[0])
        session = ClientTlsSession(sim, sock,
                                   bed._client_config_factory()(0),
                                   bed.cost_model)
        yield from session.handshake()
        # Send garbage instead of an HTTP request.
        yield from session.send_request(b"\xff\xfe NOT HTTP \x00")
        # Server should close on us.
        while True:
            msg = sock.recv()
            if msg == b"":
                done["closed_by_server"] = True
                return
            yield sim.timeout(1e-3)

    bed.sim.process(evil_client(bed.sim))
    bed.sim.run(until=0.1)
    assert done.get("closed_by_server")
    assert bed.server.metrics_snapshot()["alerts"] == 1


def test_pipelined_requests_served_in_order():
    """Two requests in flight on one keepalive connection."""
    bed = Testbed("SW", workers=1, suites=("TLS-RSA",), seed=9)
    got = []

    def client(sim):
        from repro.clients.tls_session import ClientTlsSession
        from repro.server.http import RESPONSE_HEADER_SIZE, encode_request
        sock = yield from bed.net.connect("client0",
                                          bed.server.addresses()[0])
        session = ClientTlsSession(sim, sock,
                                   bed._client_config_factory()(0),
                                   bed.cost_model)
        yield from session.handshake()
        yield from session.send_request(encode_request(100))
        yield from session.send_request(encode_request(200))
        got.append((yield from session.receive_payload(
            RESPONSE_HEADER_SIZE + 100)))
        got.append((yield from session.receive_payload(
            RESPONSE_HEADER_SIZE + 200)))

    bed.sim.process(client(bed.sim))
    bed.sim.run(until=0.1)
    assert len(got) == 2
    assert bed.server.metrics_snapshot()["requests_served"] == 2


def test_failover_timer_rescues_unpolled_responses():
    """Force a state where the heuristic never fires (huge thresholds,
    timeliness defeated by an extra idle-active connection) and check
    the failover poll still retrieves responses."""
    bed = Testbed("QTLS", workers=1, suites=("TLS-RSA",), seed=9,
                  qat_heuristic_poll_asym_threshold=10_000,
                  qat_heuristic_poll_sym_threshold=10_000,
                  qat_failover_timer=2e-3)
    bed.add_s_time_fleet(n_clients=1)
    bed.sim.run(until=0.2)
    # Progress happens even though the efficiency constraint is
    # unreachable (timeliness + failover drive retrieval).
    assert len(bed.metrics.handshakes) > 5


def test_fatal_alert_sent_before_close():
    """A client offering no common suite receives a fatal alert on the
    wire, not just a silent FIN (RFC 5246 section 7.2)."""
    from repro.tls.config import TlsClientConfig
    from repro.tls.suites import get_suite

    bed = Testbed("SW", workers=1, suites=("TLS-RSA",), seed=9)
    seen = {}

    def bad_client(sim):
        from repro.clients.tls_session import ClientTlsSession
        from repro.tls.actions import TlsAlert
        cfg = TlsClientConfig(
            provider=bed.provider, suites=(get_suite("ECDHE-ECDSA"),),
            rng=Stream(0))
        sock = yield from bed.net.connect("client0",
                                          bed.server.addresses()[0])
        session = ClientTlsSession(sim, sock, cfg, bed.cost_model)
        try:
            yield from session.handshake()
        except TlsAlert as e:
            seen["alert"] = str(e)

    bed.sim.process(bad_client(bed.sim))
    bed.sim.run(until=0.05)
    assert "received fatal alert: handshake_failure" in seen.get("alert", "")


def test_interrupt_plus_queue_single_quiet_client_no_stall():
    """Liveness: with interrupt retrieval + kernel-bypass queue, a
    dispatched handler must wake a worker blocked in epoll even when
    no socket events arrive (single quiet client)."""
    bed = Testbed("QTLS", workers=1, suites=("TLS-RSA",), seed=9,
                  qat_notify_mode="interrupt")
    bed.add_s_time_fleet(n_clients=1)
    bed.sim.run(until=0.1)
    # One client in a closed loop: steady progress requires every
    # async resume to be delivered promptly.
    assert len(bed.metrics.handshakes) > 30
    assert bed.server.workers[0].wake_fd is not None


def test_timer_plus_queue_single_quiet_client_no_stall():
    bed = Testbed("QAT+A", workers=1, suites=("TLS-RSA",), seed=9,
                  async_notify_mode="queue")
    bed.add_s_time_fleet(n_clients=1)
    bed.sim.run(until=0.1)
    assert len(bed.metrics.handshakes) > 30


class _ForgedFinished(ClientTlsSession):
    """Sends a client Finished whose verify data is wrong."""

    def _flush(self, outbuf):
        outbuf[:] = [SendMessage(Finished(verify_data=bytes(12)),
                                 sm.encrypted, sm.flush)
                     if isinstance(sm.message, Finished) else sm
                     for sm in outbuf]
        return (yield from super()._flush(outbuf))


def test_fatal_alert_on_a_resumed_connection_invalidates_the_session():
    # RFC 5246 7.2.2: a session whose connection ended in a fatal
    # alert must not be resumed.
    bed = Testbed("SW", workers=1, suites=("TLS-RSA",), seed=9)
    addr = bed.server.addresses()[0]
    full_cfg = bed._client_config_factory()(0)
    resumed = []

    def connect(session_cls, cfg):
        sock = yield from bed.net.connect("client0", addr)
        session = session_cls(bed.sim, sock, cfg, bed.cost_model)
        result = yield from session.handshake()
        resumed.append(result.resumed)
        yield bed.sim.timeout(1e-3)  # let the server judge the flight
        sock.close()
        return session

    def client(sim):
        first = yield from connect(ClientTlsSession, full_cfg)
        offer = first.resumption_config(full_cfg.rng)
        yield from connect(_ForgedFinished, offer)
        yield from connect(ClientTlsSession, offer)

    bed.sim.process(client(bed.sim))
    bed.sim.run(until=0.05)
    assert bed.server.metrics_snapshot()["alerts"] == 1
    # The forged flight resumed (the client cannot tell); the next
    # offer of that session gets a full handshake.
    assert resumed == [False, True, False]
