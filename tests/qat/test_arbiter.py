"""The endpoint's ring arbiter: a queued-request count lets it skip the
scan when every ring is empty, and otherwise it must pick rings in the
order a full round-robin scan from the same cursor would."""

from repro.crypto.ops import CryptoOp, CryptoOpKind
from repro.qat.endpoint import QatEndpoint
from repro.qat.request import QatRequest
from repro.sim import Simulator
from repro.sim.rng import Stream


class ScanArbiter:
    """The reference: rebuild every instance's ring list, then scan it
    round-robin from the cursor."""

    def __init__(self) -> None:
        self.cursor = 0

    def pick(self, endpoint):
        rings = [ring for inst in endpoint.instances
                 for ring in inst.rings.values()]
        n = len(rings)
        for i in range(n):
            ring = rings[(self.cursor + i) % n]
            if ring.pending_requests:
                self.cursor = (self.cursor + i + 1) % n
                return ring
        return None


def test_ring_picks_match_a_full_scan():
    sim = Simulator()
    endpoint = QatEndpoint(sim, 0, ring_capacity=3)
    reference = ScanArbiter()
    op = CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048)
    rng = Stream(27)
    picks = 0
    for _ in range(5000):
        action = int(rng.integers(0, 20))
        rings = [ring for inst in endpoint.instances
                 for ring in inst.rings.values()]
        if action == 0 and len(endpoint.instances) < 6 or not rings:
            endpoint.create_instance()
        elif action < 9:
            ring = rings[int(rng.integers(0, len(rings)))]
            ring.try_submit(QatRequest(op, compute=lambda: None))
        elif action < 18:
            ring = endpoint._next_nonempty_ring()
            assert ring is reference.pick(endpoint)
            if ring is not None:
                # The engine's completion credits the slot back.
                ring.drop_response(ring.take_request())
                picks += 1
        elif action == 18:
            rings[int(rng.integers(0, len(rings)))].reset()
        else:
            endpoint.reset()
        assert endpoint.queued_requests == sum(
            ring.pending_requests for ring in rings)
    assert picks > 1000
