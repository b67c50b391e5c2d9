"""Two worlds built in one process number their simulated fds and QAT
requests alike: the id streams live on the simulator, not in module
globals."""

from repro.bench.runner import Testbed


def recorded(ids, kind, log):
    """Pass ``ids`` through, logging each draw as ``(kind, id)``."""
    for i in ids:
        log.append((kind, i))
        yield i


def id_draws(bed, until=0.03):
    """The fd and QAT request ids a run draws, in draw order."""
    draws = []
    sim = bed.sim
    sim.fd_ids = recorded(sim.fd_ids, "fd", draws)
    sim.request_ids = recorded(sim.request_ids, "request", draws)
    sim.run(until=until)
    return draws


def build():
    bed = Testbed("QTLS", workers=1, suites=("TLS-RSA",), seed=9)
    bed.add_s_time_fleet(n_clients=4)
    return bed


def test_two_worlds_see_the_same_fd_and_request_id_sequences():
    first = id_draws(build())
    second = id_draws(build())
    assert {kind for kind, _ in first} == {"fd", "request"}
    assert second == first
