"""HTTP layer tests."""

import pytest

from repro.bench import Testbed
from repro.clients.tls_session import ClientTlsSession
from repro.server.http import (RESPONSE_HEADER_SIZE, encode_request,
                               parse_request)
from repro.tls.constants import MAX_FRAGMENT
from repro.tls.record import OpaqueFragment, TlsRecord


def test_roundtrip():
    raw = encode_request(65536, keepalive=True)
    req = parse_request(raw)
    assert req.size == 65536
    assert req.keepalive


def test_connection_close():
    req = parse_request(encode_request(100, keepalive=False))
    assert not req.keepalive


def test_zero_size():
    assert parse_request(encode_request(0)).size == 0


def test_malformed_rejected():
    for raw in (b"", b"\xff\xfe", b"POST /x HTTP/1.1\r\n\r\n",
                b"GET /file?size=-5 HTTP/1.1\r\n\r\n",
                b"GETnospace"):
        with pytest.raises(ValueError):
            parse_request(raw)


@pytest.mark.parametrize("size", [0, 40000])
def test_served_response_length(size):
    """A served response is RESPONSE_HEADER_SIZE + size bytes of
    plaintext in 16 KB records the server protected by length only."""
    bed = Testbed("SW", workers=1, suites=("TLS-RSA",), seed=9)
    records = []

    def client(sim):
        sock = yield from bed.net.connect("client0",
                                          bed.server.addresses()[0])
        session = ClientTlsSession(sim, sock,
                                   bed._client_config_factory()(0),
                                   bed.cost_model)
        yield from session.handshake()
        yield from session.send_request(encode_request(size))
        while sum(r.plaintext_len for r in records) < (
                RESPONSE_HEADER_SIZE + size):
            msg = sock.recv()
            if msg is None:
                yield sim.timeout(1e-4)
            else:
                assert isinstance(msg, TlsRecord)
                records.append(msg)

    bed.sim.process(client(bed.sim))
    bed.sim.run(until=0.1)
    total = RESPONSE_HEADER_SIZE + size
    assert [r.plaintext_len for r in records] == (
        [MAX_FRAGMENT] * (total // MAX_FRAGMENT) + [total % MAX_FRAGMENT])
    assert all(isinstance(r.fragment, OpaqueFragment) for r in records)
