"""Two worlds built in one process number their simulated fds and QAT
requests alike: the id streams live on the simulator, not in module
globals."""

from repro.bench.runner import Testbed


def scheduled_names(bed, until=0.03):
    """Names of the fd-wait and QAT-execution events a run schedules."""
    names = []
    schedule = bed.sim._schedule

    def recording(event, delay=0.0, **kw):
        if event.name.startswith(("readable-fd", "qat-exec-")):
            names.append(event.name)
        schedule(event, delay, **kw)

    bed.sim._schedule = recording
    bed.sim.run(until=until)
    return names


def build():
    bed = Testbed("QTLS", workers=1, suites=("TLS-RSA",), seed=9)
    bed.add_s_time_fleet(n_clients=4)
    return bed


def test_two_worlds_see_the_same_fd_and_request_id_sequences():
    first = scheduled_names(build())
    second = scheduled_names(build())
    assert any(n.startswith("readable-fd") for n in first)
    assert any(n.startswith("qat-exec-") for n in first)
    assert second == first
