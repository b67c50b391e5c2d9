"""Record layer tests: fragmentation, protection, sequence handling."""

import pytest

from repro.crypto.ops import CryptoOpKind as K
from repro.crypto.provider import ModeledCryptoProvider, RealCryptoProvider
from repro.sim.rng import Stream
from repro.tls import MAX_FRAGMENT, TlsAlert
from repro.tls.actions import DirectionKeys
from repro.tls.constants import ProtocolVersion
from repro.tls.loopback import OpLog, run_record_exchange
from repro.tls.record import RECORD_HEADER_LEN, OpaqueFragment, RecordLayer


def make_layers(provider, seed=0, version=ProtocolVersion.TLS12):
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


PROVIDERS = [RealCryptoProvider(), ModeledCryptoProvider()]
IDS = ["real", "modeled"]


@pytest.fixture(params=PROVIDERS, ids=IDS)
def provider(request):
    return request.param


def test_fragmentation_boundaries():
    assert RecordLayer.fragments(b"") == [b""]
    assert len(RecordLayer.fragments(b"x" * MAX_FRAGMENT)) == 1
    assert len(RecordLayer.fragments(b"x" * (MAX_FRAGMENT + 1))) == 2
    frags = RecordLayer.fragments(b"x" * (128 * 1024))
    assert len(frags) == 8  # the paper's 128KB -> 8 cipher ops example
    assert all(len(f) <= MAX_FRAGMENT for f in frags)
    assert b"".join(frags) == b"x" * (128 * 1024)


def test_protect_unprotect_roundtrip(provider):
    sender, receiver = make_layers(provider)
    data = bytes(range(256)) * 4
    records = run_record_exchange(sender.protect(data))
    assert len(records) == 1
    out = run_record_exchange(receiver.unprotect(records[0]))
    assert out == data


def test_one_cipher_op_per_fragment(provider):
    sender, _ = make_layers(provider)
    oplog = OpLog()
    data = b"z" * (64 * 1024)  # 4 fragments
    records = run_record_exchange(sender.protect(data), oplog)
    assert len(records) == 4
    assert oplog.count(K.RECORD_CIPHER) == 4


def test_multi_record_stream_reassembles(provider):
    sender, receiver = make_layers(provider)
    data = Stream(7).bytes(40_000)
    records = run_record_exchange(sender.protect(data))
    out = b"".join(run_record_exchange(receiver.unprotect(r))
                   for r in records)
    assert out == data


def test_out_of_order_record_rejected(provider):
    """Sequence numbers are implicit: swapping records breaks the MAC."""
    sender, receiver = make_layers(provider)
    records = run_record_exchange(sender.protect(b"A" * 20000))
    assert len(records) == 2
    with pytest.raises(TlsAlert, match="bad_record_mac"):
        run_record_exchange(receiver.unprotect(records[1]))


def test_wire_size_accounts_overhead(provider):
    sender, _ = make_layers(provider)
    (record,) = run_record_exchange(sender.protect(b"q" * 1000))
    # IV (16) + payload + MAC (20) + padding, plus the record header.
    assert record.wire_size() > 1000 + RECORD_HEADER_LEN + 16 + 20
    assert record.wire_size() <= 1000 + RECORD_HEADER_LEN + 16 + 20 + 16


def test_cross_provider_sizes_match():
    """Wire sizes must be provider-independent (perf model invariant)."""
    for size in (0, 1, 100, 16384, 30000):
        sizes = []
        for provider in PROVIDERS:
            sender, _ = make_layers(provider)
            records = run_record_exchange(sender.protect(b"\x00" * size))
            sizes.append([r.wire_size() for r in records])
        assert sizes[0] == sizes[1], f"size={size}"


def test_tampered_record_rejected(provider):
    sender, receiver = make_layers(provider)
    (record,) = run_record_exchange(sender.protect(b"secret data"))
    from repro.tls.record import TlsRecord
    bad = TlsRecord(record.content_type, record.version,
                    record.fragment[:-1] + bytes([record.fragment[-1] ^ 1]),
                    record.plaintext_len)
    with pytest.raises(TlsAlert, match="bad_record_mac"):
        run_record_exchange(receiver.unprotect(bad))



# -- opaque records (server responses) --------------------------------------------

VERSIONS = [ProtocolVersion.TLS12, ProtocolVersion.TLS13]
VERSION_IDS = ["cbc", "aead"]
OPAQUE_SIZES = (0, 1, 16383, 16384, 16385, 40000)


def _protect_both(provider, version, size):
    """Protect ``size`` bytes with :meth:`protect` and by length with
    :meth:`protect_opaque`, each from a fresh layer on the same seed;
    returns ((records, oplog, sender) for protect, ... for opaque)."""
    out = []
    for gen in (lambda layer: layer.protect(b"\x00" * size),
                lambda layer: layer.protect_opaque(size)):
        sender, _ = make_layers(provider, version=version)
        oplog = OpLog()
        out.append((run_record_exchange(gen(sender), oplog), oplog, sender))
    return out


@pytest.mark.parametrize("size", OPAQUE_SIZES)
@pytest.mark.parametrize("version", VERSIONS, ids=VERSION_IDS)
def test_opaque_wire_sizes_match_real(version, size):
    (real, _, _), _ = _protect_both(RealCryptoProvider(), version, size)
    _, (opaque, _, _) = _protect_both(ModeledCryptoProvider(), version, size)
    assert all(isinstance(r.fragment, OpaqueFragment) for r in opaque)
    assert ([(r.wire_size(), r.plaintext_len) for r in opaque]
            == [(r.wire_size(), r.plaintext_len) for r in real])
    assert sum(r.plaintext_len for r in opaque) == size


@pytest.mark.parametrize("size", OPAQUE_SIZES)
@pytest.mark.parametrize("version", VERSIONS, ids=VERSION_IDS)
def test_opaque_calls_and_rng_match_protect(version, size):
    """Same ops, labels, sequence advance and IV draws as protect: the
    rng is the worker's shared stream, so a skipped or extra draw would
    move every later server_random, session id and ticket."""
    (_, plain_log, plain), (_, opaque_log, opaque) = _protect_both(
        ModeledCryptoProvider(), version, size)
    assert ([(op.kind, op.nbytes) for op in opaque_log.ops]
            == [(op.kind, op.nbytes) for op in plain_log.ops])
    assert all(op.kind is K.RECORD_CIPHER for op in opaque_log.ops)
    assert opaque_log.labels == plain_log.labels
    assert opaque._write_seq == plain._write_seq
    assert opaque.rng.state == plain.rng.state


@pytest.mark.parametrize("version", VERSIONS, ids=VERSION_IDS)
def test_opaque_record_fails_unprotect(provider, version):
    sender, receiver = make_layers(provider, version=version)
    (record, *_) = run_record_exchange(sender.protect_opaque(40000))
    with pytest.raises(TlsAlert, match="bad_record_mac"):
        run_record_exchange(receiver.unprotect(record))


@pytest.mark.parametrize("half_word", [False, True],
                         ids=["aligned", "half-word-buffered"])
@pytest.mark.parametrize("length", [0, 1, MAX_FRAGMENT, MAX_FRAGMENT + 1,
                                    131072 + 256])
def test_protect_opaque_leaves_the_stream_where_protect_does(length,
                                                             half_word):
    """The opaque path skips the CBC IV draws instead of making them:
    afterwards the stream is where :meth:`protect` of ``length`` real
    bytes leaves it, also when an earlier 32-bit draw left a half-word
    buffered, and the next draws agree."""
    layers = []
    for protect in (lambda layer: layer.protect(b"\x00" * length),
                    lambda layer: layer.protect_opaque(length)):
        sender, _ = make_layers(ModeledCryptoProvider())
        if half_word:
            sender.rng.integers(100)
        run_record_exchange(protect(sender))
        layers.append(sender)
    plain, opaque = (layer.rng for layer in layers)
    assert opaque.state == plain.state
    assert opaque.bytes(16) == plain.bytes(16)
    assert opaque.random() == plain.random()
