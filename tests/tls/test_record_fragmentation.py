"""Record-layer fragmentation edges: payloads of exactly
``MAX_FRAGMENT``, ``MAX_FRAGMENT + 1`` and zero-length application
data must round-trip with the expected cipher-op counts in both
TLS 1.2 (CBC + HMAC) and TLS 1.3 (AEAD)."""

import pytest

from repro.crypto.ops import CryptoOpKind as K
from repro.crypto.provider import ModeledCryptoProvider, RealCryptoProvider
from repro.sim.rng import Stream
from repro.tls import MAX_FRAGMENT
from repro.tls.actions import DirectionKeys
from repro.tls.constants import ProtocolVersion
from repro.tls.loopback import OpLog, run_record_exchange
from repro.tls.record import RecordLayer

PROVIDERS = [RealCryptoProvider(), ModeledCryptoProvider()]
PROVIDER_IDS = ["real", "modeled"]
VERSIONS = [ProtocolVersion.TLS12, ProtocolVersion.TLS13]
VERSION_IDS = ["tls12-cbc-hmac", "tls13-aead"]

# payload length -> expected fragment/cipher-op count
EDGE_CASES = [
    (0, 1),                  # empty app data still costs one record
    (MAX_FRAGMENT, 1),       # exactly one full fragment
    (MAX_FRAGMENT + 1, 2),   # one byte over spills a second record
]


def make_layers(provider, version, seed=0):
    ck = DirectionKeys(mac_key=b"\x01" * 20, enc_key=b"\x02" * 16,
                       iv=b"\x03" * 16)
    sk = DirectionKeys(mac_key=b"\x04" * 20, enc_key=b"\x05" * 16,
                       iv=b"\x06" * 16)
    sender = RecordLayer(provider, write_keys=ck, read_keys=sk,
                         rng=Stream(seed), version=version)
    receiver = RecordLayer(provider, write_keys=sk, read_keys=ck,
                           rng=Stream(seed + 1),
                           version=version)
    return sender, receiver


@pytest.fixture(params=PROVIDERS, ids=PROVIDER_IDS)
def provider(request):
    return request.param


@pytest.fixture(params=VERSIONS, ids=VERSION_IDS)
def version(request):
    return request.param


@pytest.mark.parametrize("size,expected_records", EDGE_CASES,
                         ids=["empty", "max-fragment", "max-fragment+1"])
def test_edge_payload_roundtrip_and_op_count(provider, version, size,
                                             expected_records):
    sender, receiver = make_layers(provider, version)
    data = bytes(range(256))[:1] * size  # deterministic b"\x00" * size
    oplog = OpLog()
    records = run_record_exchange(sender.protect(data), oplog)
    assert len(records) == expected_records
    assert oplog.count(K.RECORD_CIPHER) == expected_records
    # The second record of MAX_FRAGMENT+1 carries exactly one byte.
    assert [r.plaintext_len for r in records] == (
        [MAX_FRAGMENT, 1] if expected_records == 2 else [size])
    open_log = OpLog()
    out = b"".join(run_record_exchange(receiver.unprotect(r), open_log)
                   for r in records)
    assert out == data
    assert open_log.count(K.RECORD_CIPHER) == expected_records


def test_aead_flag_tracks_version(provider):
    tls12, _ = make_layers(provider, ProtocolVersion.TLS12)
    tls13, _ = make_layers(provider, ProtocolVersion.TLS13)
    assert not tls12.aead
    assert tls13.aead


def test_empty_record_wire_size_positive(provider, version):
    """A zero-length fragment still pays IV/MAC (1.2) or tag (1.3)
    overhead on the wire — it must never serialize to nothing."""
    sender, receiver = make_layers(provider, version)
    (record,) = run_record_exchange(sender.protect(b""))
    assert record.plaintext_len == 0
    assert record.wire_size() > 0
    assert run_record_exchange(receiver.unprotect(record)) == b""
