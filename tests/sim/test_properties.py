"""Property-based tests on the simulation kernel's core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator


@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=40))
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        t = sim.timeout(d)
        t.callbacks.append(lambda ev, d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.lists(st.floats(min_value=0.001, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=20))
def test_sequential_process_time_is_sum(delays):
    sim = Simulator()

    def proc(sim):
        for d in delays:
            yield sim.timeout(d)

    sim.process(proc(sim))
    sim.run()
    assert abs(sim.now - sum(delays)) < 1e-9 * max(1, len(delays))


@given(st.integers(1, 8), st.integers(1, 30))
@settings(max_examples=30)
def test_resource_never_exceeds_capacity(capacity, n_users):
    sim = Simulator()
    res = Resource(sim, capacity)
    peak = [0]

    def user(sim, hold):
        req = res.request()
        yield req
        peak[0] = max(peak[0], res.in_use)
        assert res.in_use <= capacity
        yield sim.timeout(hold)
        res.release()

    for i in range(n_users):
        sim.process(user(sim, 0.5 + (i % 3) * 0.25))
    sim.run()
    assert peak[0] <= capacity
    assert res.in_use == 0


@given(st.integers(0, 2**31), st.integers(1, 20))
@settings(max_examples=20)
def test_simulation_determinism(seed, n):
    """Two identical runs produce identical event traces."""

    def run_once():
        sim = Simulator()
        trace = []

        def worker(sim, k):
            for _ in range(3):
                yield sim.timeout(((seed >> (k % 16)) % 7 + 1) * 0.1 + k)
                trace.append((k, round(sim.now, 9)))

        for k in range(n):
            sim.process(worker(sim, k))
        sim.run()
        return trace

    assert run_once() == run_once()
