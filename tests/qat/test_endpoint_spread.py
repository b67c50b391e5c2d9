"""Regression: the device allocates instances round-robin over its
endpoints, so the pool's consecutive-chunk (static) partition lands
each worker's instances on *distinct* endpoints — the paper's "one
process can be assigned with multiple QAT instances from different
endpoints" deployment (section 2.3). A change to either the allocation
cursor or the chunking silently collapses a worker onto one endpoint
and halves its usable computation engines."""

from repro.bench.runner import Testbed
from repro.offload.pool import InstancePool, StaticPolicy
from repro.qat.device import dh8970
from repro.sim.kernel import Simulator


def endpoint_ids(instances, lanes):
    return [instances[lane].endpoint.endpoint_id for lane in lanes]


def test_round_robin_allocation_interleaves_endpoints():
    sim = Simulator()
    dev = dh8970(sim)  # three endpoints, as on the card
    instances = dev.allocate_instances(6)
    assert [inst.endpoint.endpoint_id for inst in instances] \
        == [0, 1, 2, 0, 1, 2]


def test_consecutive_chunks_span_distinct_endpoints():
    sim = Simulator()
    dev = dh8970(sim)
    workers, per_worker = 3, 2
    instances = dev.allocate_instances(workers * per_worker)
    pool = InstancePool(sim, instances, workers, StaticPolicy())
    for w in range(workers):
        eps = endpoint_ids(instances, pool.leases[w])
        assert len(set(eps)) == per_worker, (
            f"worker {w} instances collapsed onto endpoints {eps}")


def test_server_pool_spreads_each_workers_instances():
    bed = Testbed("QTLS", workers=2, qat_instances_per_worker=2)
    pool = bed.server.instance_pool
    for w in range(2):
        eps = endpoint_ids(pool.instances, pool.leases[w])
        assert len(set(eps)) == 2
