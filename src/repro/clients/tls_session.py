"""Client-side TLS session driver.

Runs the sans-IO client handshake over a simulated socket. Client
machines are load generators, not the system under test: their crypto
charges simulated *time* (so Figure 11 latency is end-to-end) but no
modelled CPU core — the paper's two client servers (88 HT each) were
never the bottleneck.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..core.costmodel import CLIENT_STEP_COST, CostModel
from ..net.pollable import wait_readable
from ..net.socket_sim import SimSocket
from ..sim.rng import Stream
from ..tls.actions import (CryptoCall, HandshakeResult, NeedMessage,
                           SendMessage, TlsAlert)
from ..tls.config import TlsClientConfig
from ..tls.constants import ProtocolVersion
from ..tls.handshake import client_handshake12, client_handshake13
from ..tls.messages import Alert
from ..tls.record import RecordLayer, TlsRecord

__all__ = ["ClientTlsSession", "PeerAlert"]


class PeerAlert(TlsAlert):
    """The server ended the connection with a fatal alert."""


class ClientTlsSession:
    """One client-side TLS connection over ``sock``."""

    def __init__(self, sim, sock: SimSocket, config: TlsClientConfig,
                 cost_model: CostModel,
                 version: ProtocolVersion = ProtocolVersion.TLS12) -> None:
        self.sim = sim
        self.sock = sock
        self.config = config
        self.cm = cost_model
        self.version = version
        self.result: Optional[HandshakeResult] = None
        self.record_layer: Optional[RecordLayer] = None

    # -- handshake -----------------------------------------------------------

    def handshake(self) -> Generator:
        """Run the handshake to completion (a sim process helper)."""
        gen = (client_handshake13(self.config)
               if self.version == ProtocolVersion.TLS13
               else client_handshake12(self.config))
        self.result = yield from self._drive(gen)
        self.record_layer = RecordLayer(
            self.config.provider,
            write_keys=self.result.client_write_keys,
            read_keys=self.result.server_write_keys,
            rng=self.config.rng,
            version=self.result.suite.version)
        return self.result

    def _drive(self, gen) -> Generator:
        """Run a sans-IO generator (a handshake, or a record op that
        yields only CryptoCalls) to its return value. Each compute
        first holds its software cost; a failed compute is thrown
        back in at its pause point."""
        outbuf: List[SendMessage] = []
        send_value = None
        throw_exc = None
        while True:
            try:
                if throw_exc is not None:
                    action = gen.throw(throw_exc)
                    throw_exc = None
                else:
                    action = gen.send(send_value)
            except StopIteration as stop:
                return stop.value
            send_value = None
            if isinstance(action, CryptoCall):
                cost = self.cm.software_cost(action.op)
                if cost > 0:
                    yield from self.sim.hold(cost)
                try:
                    send_value = action.compute()
                except Exception as exc:
                    throw_exc = exc
            elif isinstance(action, SendMessage):
                outbuf.append(action)
                if action.flush:
                    yield from self._flush(outbuf)
            elif isinstance(action, NeedMessage):
                yield from self._flush(outbuf)
                send_value = yield from self._recv_message()
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown action {action!r}")

    def _flush(self, outbuf: List[SendMessage]) -> Generator:
        for sm in outbuf:
            yield from self.sim.hold(CLIENT_STEP_COST / 4)
            self.sock.send(sm.message, nbytes=sm.message.wire_size())
        outbuf.clear()
        return None

    def _recv_message(self) -> Generator:
        while True:
            msg = self.sock.recv()
            if msg is None:
                yield wait_readable(self.sim, self.sock)
                continue
            if isinstance(msg, bytes) and msg == b"":
                raise TlsAlert("connection closed during handshake")
            if isinstance(msg, Alert):
                raise PeerAlert(f"received fatal alert: {msg.description}")
            return msg

    # -- application data -------------------------------------------------------

    def send_request(self, payload: bytes) -> Generator:
        """Protect and send one request record."""
        if self.record_layer is None:
            raise RuntimeError("send_request before handshake")
        records = yield from self._drive(self.record_layer.protect(payload))
        for rec in records:
            self.sock.send(rec, nbytes=rec.wire_size())
        return records

    def receive_payload(self, expected_bytes: int) -> Generator:
        """Receive records until ``expected_bytes`` of plaintext arrived.

        Returns the total plaintext length received: the sum of each
        record's ``plaintext_len``. The client never decrypts a
        response (the server protects it by length only, see
        :meth:`RecordLayer.protect_opaque`); a small per-record client
        cost is charged.
        """
        got = 0
        while got < expected_bytes:
            msg = self.sock.recv()
            if msg is None:
                yield wait_readable(self.sim, self.sock)
                continue
            if isinstance(msg, bytes) and msg == b"":
                raise TlsAlert("connection closed mid-response")
            if isinstance(msg, Alert):
                raise PeerAlert(f"received fatal alert: {msg.description}")
            if not isinstance(msg, TlsRecord):
                raise TlsAlert(f"unexpected message {type(msg).__name__}")
            got += msg.plaintext_len
            yield from self.sim.hold(CLIENT_STEP_COST / 6)
        return got

    # -- resumption state ------------------------------------------------------------

    def resumption_config(self, rng: Stream) -> TlsClientConfig:
        """A client config that offers resumption of this session."""
        if self.result is None:
            raise RuntimeError("no completed handshake to resume")
        # TLS 1.3 resumption offers the derived PSK; TLS 1.2 offers the
        # master secret alongside the session id / ticket.
        secret = (self.result.resumption_psk
                  if self.result.resumption_psk is not None
                  else self.result.master_secret)
        return TlsClientConfig(
            provider=self.config.provider, suites=self.config.suites,
            rng=rng, curves=self.config.curves,
            session_id=self.result.session_id,
            session_ticket=self.result.session_ticket,
            session_master_secret=secret,
            session_suite=self.result.suite)
