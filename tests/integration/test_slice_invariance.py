"""Cutting a run into ``run(until=...)`` slices does not move the world.

The perf benchmark runs every episode as twelve slices. Each slice's
stop sentinel sits in the calendar at its horizon, and a process that
would skip the calendar (``Simulator.advance_to``) must not jump over
it: with 1, 12 or 37 slices the finished world's fingerprint is the
same. The worlds are the benchmark's hs-qtls and mixed-faults
workloads at their smoke window."""

import random

import pytest

from repro.bench.experiments.faults import FAULT_OVERRIDES
from repro.bench.runner import Testbed
from repro.testing.scenario import fingerprint

SEED = 7


def hs_qtls():
    bed = Testbed("QTLS", workers=2, suites=("TLS-RSA",), seed=SEED)
    bed.add_s_time_fleet(n_clients=200)
    return bed, 0.061


def mixed_faults():
    end = 0.085
    bed = Testbed(
        "QTLS", workers=1, suites=("TLS-RSA",), seed=SEED,
        fault_plan=dict(response_loss=0.12,
                        response_loss_window=(0.385 * end, 0.46 * end),
                        outages=((0, 0.23 * end, 0.27 * end),
                                 (1, 0.615 * end, 0.655 * end))),
        offload_sched_policy="weighted-fair", offload_admission_limit=8,
        qat_batch_size=4, **FAULT_OVERRIDES)
    bed.add_ab_fleet(48, 128 * 1024, keepalive=True,
                     stagger=random.Random(SEED).uniform(0.01, 0.03))
    bed.add_s_time_fleet(n_clients=32)
    return bed, end


@pytest.mark.parametrize("build", [hs_qtls, mixed_faults],
                         ids=["hs-qtls", "mixed-faults"])
def test_slicing_a_run_keeps_its_fingerprint(build):
    prints = []
    for slices in (1, 12, 37):
        bed, end = build()
        for k in range(1, slices + 1):
            bed.sim.run(until=end * k / slices)
        prints.append(fingerprint(bed))
    assert bed.metrics.handshakes
    assert prints[1] == prints[0]
    assert prints[2] == prints[0]
