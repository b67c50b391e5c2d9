"""Golden action streams of the handshake state machines.

Every action each side yields is recorded under the modeled provider:
crypto ops (kind, nbytes, curve, rsa_bits, label and a digest of the
result the driver sent back), sent messages (type, canonical encoding,
``encrypted``/``flush``), the message types each ``NeedMessage``
expects, exceptions thrown in at a pause point and the alert that ends
a failing side. The stream is what the drivers depend on: the stack
async job replays a paused handshake action by action, offloaded
computes run at device completion and the worker's RNG stream is
shared across connections, so a refactor of the state machines must
leave every variant's stream byte-identical.

Regenerate (only for an intended protocol change) with
``PYTHONPATH=src python tests/tls/test_handshake_streams.py --write``.
"""

import dataclasses
import hashlib
import json
import sys
from collections import deque
from pathlib import Path

import pytest

from repro.crypto.provider import ModeledCryptoProvider
from repro.sim import Simulator
from repro.sim.rng import Stream
from repro.tls import (ECDHE_ECDSA, ECDHE_RSA, TLS13_ECDHE_RSA, TLS_RSA,
                       SessionCache, SyncDriver, TlsAlert, TlsClientConfig,
                       TlsServerConfig, client_handshake12,
                       client_handshake13, server_handshake12,
                       server_handshake13)
from repro.tls.actions import CryptoCall, NeedMessage, SendMessage
from repro.tls.messages import (CertificateVerify, ClientHello,
                                ClientKeyExchange, EncryptedExtensions,
                                Finished, NewSessionTicket)
from repro.tls.ticket import TicketKeeper

GOLDEN = Path(__file__).with_name("handshake_streams.json")
PROVIDER = ModeledCryptoProvider()


def _digest(value) -> str:
    data = value if isinstance(value, bytes) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _recorded(gen, log):
    """Pass ``gen``'s actions through to the driver, logging each."""
    send, throw = None, None
    while True:
        try:
            action = gen.throw(throw) if throw is not None \
                else gen.send(send)
        except StopIteration as stop:
            log.append(["result", _digest(stop.value)])
            return stop.value
        except TlsAlert as alert:
            log.append(["alert", alert.description])
            raise
        send, throw = None, None
        if isinstance(action, CryptoCall):
            op = action.op
            entry = ["crypto", op.kind.name, op.nbytes, op.curve,
                     op.rsa_bits, action.label]
        elif isinstance(action, SendMessage):
            msg = action.message
            entry = ["send", type(msg).__name__, msg.to_bytes().hex(),
                     action.encrypted, action.flush]
        elif isinstance(action, NeedMessage):
            entry = ["need", [t.__name__ for t in action.expected]]
        else:
            raise TypeError(f"unknown action {action!r}")
        log.append(entry)
        try:
            send = yield action
        except Exception as exc:  # a failed compute, thrown back in
            log.append(["thrown", type(exc).__name__, str(exc)])
            throw = exc
            continue
        if isinstance(action, CryptoCall):
            entry.append(_digest(send))


class _Wire(deque):
    """A one-way link; ``tamper`` rewrites each message sent on it."""

    def __init__(self, tamper=None):
        super().__init__()
        self.tamper = tamper

    def append(self, msg):
        super().append(self.tamper(msg) if self.tamper else msg)


def _run(client_gen, server_gen, c2s=None, s2c=None):
    """Loopback handshake with both sides recorded; returns
    ``(streams, client result, server result)``."""
    streams = {"client": [], "server": []}
    client = SyncDriver(_recorded(client_gen, streams["client"]))
    server = SyncDriver(_recorded(server_gen, streams["server"]))
    c2s, s2c = _Wire(c2s), _Wire(s2c)
    try:
        for _ in range(50):
            client.pump(s2c, c2s)
            server.pump(c2s, s2c)
            if client.done and server.done:
                break
    except TlsAlert:
        pass
    return streams, client.result, server.result


def _replace_type(cls, make):
    return lambda msg: make(msg) if isinstance(msg, cls) else msg


def _flip(field, index):
    def tamper(msg):
        value = bytearray(getattr(msg, field))
        value[index] ^= 0xFF
        return dataclasses.replace(msg, **{field: bytes(value)})
    return tamper


# -- TLS 1.2 ------------------------------------------------------------------

def _server12(suite, curve="P-256", cache=True, keeper=True, tickets=True):
    cred = (PROVIDER.make_rsa_credentials(1024, Stream(1))
            if suite.auth == "rsa"
            else PROVIDER.make_ecdsa_credentials(curve, Stream(1)))
    return TlsServerConfig(
        provider=PROVIDER, suites=(suite,), rng=Stream(2), curves=(curve,),
        session_cache=SessionCache(Simulator()) if cache else None,
        issue_tickets=tickets,
        ticket_keeper=TicketKeeper(b"\x07" * 16) if keeper else None,
        credentials_rsa=cred if suite.auth == "rsa" else None,
        credentials_ecdsa=cred if suite.auth != "rsa" else None)


def _client(suite, seed=3, curve="P-256", **resume):
    return TlsClientConfig(provider=PROVIDER, suites=(suite,),
                           rng=Stream(seed), curves=(curve,), **resume)


def _tls12_family(suite, curve="P-256"):
    """Full handshake, then resumption by session id and by ticket."""
    scfg = _server12(suite, curve)
    full, cres, _ = _run(client_handshake12(_client(suite, curve=curve)),
                         server_handshake12(scfg))
    by_id, _, _ = _run(
        client_handshake12(_client(
            suite, 4, curve, session_id=cres.session_id,
            session_master_secret=cres.master_secret, session_suite=suite)),
        server_handshake12(scfg))
    by_ticket, _, _ = _run(
        client_handshake12(_client(
            suite, 5, curve, session_ticket=cres.session_ticket,
            session_master_secret=cres.master_secret, session_suite=suite)),
        server_handshake12(scfg))
    return {"full": full, "resume-id": by_id, "resume-ticket": by_ticket}


def _tls12(suite, c2s=None, s2c=None, **server):
    return _run(client_handshake12(_client(suite)),
                server_handshake12(_server12(suite, **server)),
                c2s, s2c)[0]


# -- TLS 1.3 ------------------------------------------------------------------

def _server13(keeper=True):
    return TlsServerConfig(
        provider=PROVIDER, suites=(TLS13_ECDHE_RSA,), rng=Stream(2),
        credentials_rsa=PROVIDER.make_rsa_credentials(1024, Stream(1)),
        issue_tickets=keeper,
        ticket_keeper=TicketKeeper(b"\x09" * 16) if keeper else None,
        clock=lambda: 50.0)


def _tls13_family():
    scfg = _server13()
    full, cres, _ = _run(client_handshake13(_client(TLS13_ECDHE_RSA)),
                         server_handshake13(scfg))
    resume = dict(session_ticket=cres.session_ticket,
                  session_master_secret=cres.resumption_psk,
                  session_suite=TLS13_ECDHE_RSA)
    psk, _, _ = _run(
        client_handshake13(_client(TLS13_ECDHE_RSA, 4, **resume)),
        server_handshake13(scfg))
    resume["session_master_secret"] = b"\x01" * 32
    bad_binder, _, _ = _run(
        client_handshake13(_client(TLS13_ECDHE_RSA, 5, **resume)),
        server_handshake13(scfg))
    return {"full-ticket": full, "psk": psk, "bad-binder": bad_binder}


def _tls13(c2s=None, s2c=None, keeper=True):
    return _run(client_handshake13(_client(TLS13_ECDHE_RSA)),
                server_handshake13(_server13(keeper)), c2s, s2c)[0]


def build_streams() -> dict:
    out = {}
    for suite, curve in ((TLS_RSA, "P-256"), (ECDHE_RSA, "P-256"),
                         (ECDHE_ECDSA, "P-256"), (ECDHE_ECDSA, "P-384")):
        for kind, streams in _tls12_family(suite, curve).items():
            out[f"tls12-{suite.name}-{curve}-{kind}"] = streams
    out["tls12-ECDHE-RSA-no-cache-no-ticket"] = _tls12(
        ECDHE_RSA, cache=False, keeper=False, tickets=False)
    out["tls12-TLS-RSA-opaque-ticket"] = _tls12(TLS_RSA, keeper=False)
    out["tls12-ECDHE-RSA-malformed-cke"] = _tls12(
        ECDHE_RSA, c2s=_replace_type(ClientKeyExchange,
                                     _flip("public", 0)))
    out["tls12-ECDHE-RSA-tampered-cke"] = _tls12(
        ECDHE_RSA, c2s=_replace_type(ClientKeyExchange,
                                     _flip("public", 12)))
    out["tls12-TLS-RSA-undecryptable-premaster"] = _tls12(
        TLS_RSA, c2s=_replace_type(ClientKeyExchange,
                                   _flip("encrypted_premaster", 1)))
    out["tls12-TLS-RSA-wrong-first-message"] = _tls12(
        TLS_RSA, c2s=_replace_type(ClientHello,
                                   lambda m: Finished(b"\x00" * 12)))
    out["tls12-TLS-RSA-finished-for-ticket"] = _tls12(
        TLS_RSA, s2c=_replace_type(NewSessionTicket,
                                   lambda m: Finished(b"\x00" * 12)))
    for kind, streams in _tls13_family().items():
        out[f"tls13-{kind}"] = streams
    out["tls13-no-ticket"] = _tls13(keeper=False)
    out["tls13-malformed-key-share"] = _tls13(
        c2s=_replace_type(ClientHello, _flip("key_share", 0)))
    out["tls13-extensions-for-ticket"] = _tls13(
        s2c=_replace_type(NewSessionTicket,
                          lambda m: EncryptedExtensions()))
    out["tls13-verify-for-client-finished"] = _tls13(
        c2s=_replace_type(Finished, lambda m: CertificateVerify(b"")))
    return out


@pytest.fixture(scope="module")
def streams():
    return build_streams()


GOLDEN_STREAMS = (json.loads(GOLDEN.read_text()) if GOLDEN.exists()
                  else {})


@pytest.mark.parametrize("variant", sorted(GOLDEN_STREAMS))
def test_action_stream_matches_golden(streams, variant):
    got = json.loads(json.dumps(streams[variant]))
    want = GOLDEN_STREAMS[variant]
    for side in ("client", "server"):
        for i, (g, w) in enumerate(zip(got[side], want[side])):
            assert g == w, f"{side} action {i} differs"
        assert len(got[side]) == len(want[side]), f"{side} length differs"


def test_golden_covers_every_variant(streams):
    assert sorted(streams) == sorted(GOLDEN_STREAMS)


def dumps(streams: dict) -> str:
    """The golden file's text: one action per line, so a regenerated
    file diffs action by action."""
    variants = []
    for name, sides in streams.items():
        body = ",\n".join(
            f"  {json.dumps(side)}: [\n"
            + ",\n".join(f"   {json.dumps(a)}" for a in actions) + "\n  ]"
            for side, actions in sides.items())
        variants.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(variants) + "\n}\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_handshake_streams.py --write")
    GOLDEN.write_text(dumps(build_streams()))
    print(f"wrote {GOLDEN}")
