"""TLS 1.3 AEAD record layer tests."""

import pytest

from repro.crypto.provider import ModeledCryptoProvider, RealCryptoProvider
from repro.sim.rng import Stream
from repro.tls import TlsAlert
from repro.tls.actions import DirectionKeys
from repro.tls.constants import ProtocolVersion
from repro.tls.loopback import run_record_exchange
from repro.tls.record import RecordLayer

PROVIDERS = [RealCryptoProvider(), ModeledCryptoProvider()]
IDS = ["real", "modeled"]


def make_layers(provider):
    ck = DirectionKeys(mac_key=b"", enc_key=b"\x02" * 16, iv=b"\x03" * 12)
    sk = DirectionKeys(mac_key=b"", enc_key=b"\x05" * 16, iv=b"\x06" * 12)
    sender = RecordLayer(provider, write_keys=ck, read_keys=sk,
                         rng=Stream(0),
                         version=ProtocolVersion.TLS13)
    receiver = RecordLayer(provider, write_keys=sk, read_keys=ck,
                           rng=Stream(1),
                           version=ProtocolVersion.TLS13)
    return sender, receiver


@pytest.fixture(params=PROVIDERS, ids=IDS)
def provider(request):
    return request.param


def test_aead_flag_follows_version(provider):
    sender, _ = make_layers(provider)
    assert sender.aead
    ck = DirectionKeys(mac_key=b"\x01" * 20, enc_key=b"\x02" * 16,
                       iv=b"\x03" * 16)
    legacy = RecordLayer(provider, write_keys=ck, read_keys=ck,
                         rng=Stream(0))
    assert not legacy.aead


def test_aead_roundtrip(provider):
    sender, receiver = make_layers(provider)
    data = bytes(range(200))
    records = run_record_exchange(sender.protect(data))
    out = run_record_exchange(receiver.unprotect(records[0]))
    assert out == data


def test_aead_fragmentation(provider):
    sender, receiver = make_layers(provider)
    data = b"q" * 40_000
    records = run_record_exchange(sender.protect(data))
    assert len(records) == 3
    out = b"".join(run_record_exchange(receiver.unprotect(r))
                   for r in records)
    assert out == data


def test_aead_overhead_is_17_bytes(provider):
    """RFC 8446: ciphertext = inner (payload + content type) + tag."""
    sender, _ = make_layers(provider)
    (rec,) = run_record_exchange(sender.protect(b"x" * 1000))
    assert len(rec.fragment) == 1000 + 1 + 16


def test_aead_cross_provider_sizes_match():
    sizes = []
    for provider in PROVIDERS:
        sender, _ = make_layers(provider)
        recs = run_record_exchange(sender.protect(b"\x00" * 5000))
        sizes.append([r.wire_size() for r in recs])
    assert sizes[0] == sizes[1]


def test_aead_out_of_order_rejected(provider):
    sender, receiver = make_layers(provider)
    records = run_record_exchange(sender.protect(b"A" * 20_000))
    with pytest.raises(TlsAlert, match="bad_record_mac"):
        run_record_exchange(receiver.unprotect(records[1]))


def test_aead_tamper_rejected(provider):
    from repro.tls.record import TlsRecord
    sender, receiver = make_layers(provider)
    (rec,) = run_record_exchange(sender.protect(b"secret"))
    bad = TlsRecord(rec.content_type, rec.version,
                    rec.fragment[:-1] + bytes([rec.fragment[-1] ^ 1]),
                    rec.plaintext_len)
    with pytest.raises(TlsAlert, match="bad_record_mac"):
        run_record_exchange(receiver.unprotect(bad))


def test_tls13_end_to_end_uses_aead():
    """Full simulated TLS 1.3 connection exercises GCM records."""
    from repro.bench.runner import Testbed
    bed = Testbed("SW", workers=1, suites=("TLS1.3-ECDHE-RSA",),
                  tls_version="1.3", seed=3)
    bed.add_ab_fleet(n_clients=2, file_size=4096)
    bed.sim.run(until=0.1)
    assert bed.metrics.errors == 0
    assert len(bed.metrics.requests) > 3
    worker = bed.server.workers[0]
    layers = [c.ssl.record_layer for c in worker.conns.values()
              if c.ssl.record_layer is not None]
    assert layers and all(l.aead for l in layers)
