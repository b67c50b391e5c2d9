"""The steps the handshake state machines share, each written once.

Steps that pause are ``yield from`` sub-generators; the others build
the :class:`CryptoCall` the caller yields. A step yields exactly the
actions the state machines yielded inline: the same ops, labels,
messages and flags, in the same order, with every ``rng`` draw and
``transcript_hash`` at the same point. That action stream is the
contract the drivers rely on (the stack-async job replays a paused
handshake action by action) and
``tests/tls/test_handshake_streams.py`` pins it.
"""

from __future__ import annotations

from typing import Generator, Tuple

from ...crypto.ec import EcError
from ...crypto.hmac_impl import hmac_digest
from ...crypto.ops import CryptoOp, CryptoOpKind
from ..actions import (CryptoCall, DirectionKeys, NeedMessage, SendMessage,
                       TlsAlert)
from ..keyschedule import (Tls13Schedule, derive_key_block,
                           finished_verify_data, split_key_block)
from ..messages import ChangeCipherSpec, Finished, transcript_hash
from ..suites import CipherSuite

__all__ = ["expect", "keygen", "ecdh_compute", "sign", "verify", "hkdf_op",
           "key_expansion", "send_finished12", "check_finished12",
           "handshake_secrets13", "finished_mac13", "app_keys13"]

Keys = Tuple[DirectionKeys, DirectionKeys]


def expect(*types) -> Generator[object, object, object]:
    """The next inbound message, which must be one of ``types``."""
    msg = yield NeedMessage(types)
    if not isinstance(msg, types):
        raise TlsAlert(f"unexpected_message: expected {types[-1].__name__}")
    return msg


# -- asymmetric ops -----------------------------------------------------------

def keygen(config, curve: str, label: str) -> CryptoCall:
    """An ephemeral (EC)DHE key share on ``curve``."""
    return CryptoCall(
        CryptoOp(CryptoOpKind.ECDH_KEYGEN, curve=curve),
        compute=lambda: config.provider.ecdh_keygen(curve, config.rng),
        label=label)


def ecdh_compute(config, share, peer: bytes, curve: str
                 ) -> Generator[object, object, bytes]:
    """The shared secret with the peer's public share."""
    try:
        return (yield CryptoCall(
            CryptoOp(CryptoOpKind.ECDH_COMPUTE, curve=curve),
            compute=lambda: config.provider.ecdh_shared(share, peer),
            label="ecdh-compute"))
    except EcError as exc:
        # A share that is no valid point of the curve (RFC 8422 5.4,
        # RFC 8446 4.2.8).
        raise TlsAlert(f"illegal_parameter: {exc}") from exc


def sign(config, cred, data: bytes, label: str) -> CryptoCall:
    """The server's signature over ``data`` (RSA or ECDSA)."""
    kind = (CryptoOpKind.RSA_PRIV if cred.kind == "rsa"
            else CryptoOpKind.ECDSA_SIGN)
    return CryptoCall(
        CryptoOp(kind, rsa_bits=cred.rsa_bits, curve=cred.sig_curve),
        compute=lambda: config.provider.sign(cred, data), label=label)


def verify(config, suite: CipherSuite, cert, data: bytes, signature: bytes,
           what: str, label: str) -> Generator[object, object, None]:
    """Check the server's signature on ``what`` against its certificate."""
    rsa = suite.auth == "rsa"
    ok = yield CryptoCall(
        CryptoOp(CryptoOpKind.RSA_PUB if rsa else CryptoOpKind.ECDSA_VERIFY,
                 curve=cert.curve,
                 rsa_bits=(len(cert.public_bytes) - 4) * 8 if rsa else None),
        compute=lambda: config.provider.verify(
            suite.auth, cert.public_bytes, data, signature,
            curve=cert.curve),
        label=label)
    if not ok:
        raise TlsAlert(f"decrypt_error: bad {what} signature")


# -- TLS 1.2 ------------------------------------------------------------------

def key_expansion(config, suite: CipherSuite, master_secret: bytes,
                  client_random: bytes, server_random: bytes
                  ) -> Generator[object, object, Keys]:
    """The key block PRF, split into (client, server) write keys."""
    key_block = yield CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=suite.key_block_len),
        compute=lambda: derive_key_block(
            config.provider, master_secret, client_random, server_random,
            suite),
        label="key-expansion")
    return split_key_block(key_block, suite)


def _finished_prf(config, sender: str, master_secret: bytes,
                  transcript: list, label: str) -> CryptoCall:
    th = transcript_hash(transcript)
    return CryptoCall(
        CryptoOp(CryptoOpKind.PRF, nbytes=12),
        compute=lambda: finished_verify_data(
            config.provider, master_secret, f"{sender} finished".encode(),
            th),
        label=label)


def send_finished12(config, sender: str, master_secret: bytes,
                    transcript: list) -> Generator[object, object, None]:
    """ChangeCipherSpec, then ``sender``'s Finished, ending the flight."""
    yield SendMessage(ChangeCipherSpec())
    fin = Finished(verify_data=(yield _finished_prf(
        config, sender, master_secret, transcript, f"{sender}-finished")))
    transcript.append(fin)
    yield SendMessage(fin, encrypted=True, flush=True)


def check_finished12(config, sender: str, master_secret: bytes,
                     transcript: list) -> Generator[object, object, None]:
    """Receive and verify ``sender``'s Finished (after its CCS)."""
    fin = yield from expect(Finished)
    expected = yield _finished_prf(config, sender, master_secret, transcript,
                                   f"{sender}-finished-verify")
    if fin.verify_data != expected:
        raise TlsAlert(f"decrypt_error: {sender} Finished verify failed")
    transcript.append(fin)


# -- TLS 1.3 ------------------------------------------------------------------

def hkdf_op(nbytes: int = 32) -> CryptoOp:
    """One HKDF step; never offloadable (paper Figure 8)."""
    return CryptoOp(CryptoOpKind.HKDF, nbytes=nbytes)


def handshake_secrets13(schedule: Tls13Schedule, psk: bytes, shared: bytes,
                        transcript: list
                        ) -> Generator[object, object, Tuple[bytes, ...]]:
    """early -> handshake -> (client hs traffic, server hs traffic,
    master), over the transcript through ServerHello."""
    early = yield CryptoCall(
        hkdf_op(), compute=lambda: schedule.early_secret(psk),
        label="early-secret")
    hs_secret = yield CryptoCall(
        hkdf_op(), compute=lambda: schedule.handshake_secret(early, shared),
        label="handshake-secret")
    th = transcript_hash(transcript)
    c_hs = yield CryptoCall(
        hkdf_op(), compute=lambda: schedule.derive_secret(
            hs_secret, b"c hs traffic", th),
        label="client-hs-traffic")
    s_hs = yield CryptoCall(
        hkdf_op(), compute=lambda: schedule.derive_secret(
            hs_secret, b"s hs traffic", th),
        label="server-hs-traffic")
    master = yield CryptoCall(
        hkdf_op(), compute=lambda: schedule.master_secret(hs_secret),
        label="master-secret")
    return c_hs, s_hs, master


def finished_mac13(schedule: Tls13Schedule, sender: str, hs_traffic: bytes,
                   transcript: list) -> Generator[object, object, bytes]:
    """``sender``'s Finished MAC over the transcript so far."""
    key = yield CryptoCall(
        hkdf_op(), compute=lambda: schedule.finished_key(hs_traffic),
        label=f"{sender}-finished-key")
    return hmac_digest(key, transcript_hash(transcript))


def app_keys13(schedule: Tls13Schedule, suite: CipherSuite, master: bytes,
               transcript: list) -> Generator[object, object, Keys]:
    """(client, server) application write keys over the full
    transcript."""
    th = transcript_hash(transcript)
    c_app = yield CryptoCall(
        hkdf_op(), compute=lambda: schedule.derive_secret(
            master, b"c ap traffic", th),
        label="client-app-traffic")
    s_app = yield CryptoCall(
        hkdf_op(), compute=lambda: schedule.derive_secret(
            master, b"s ap traffic", th),
        label="server-app-traffic")
    client_keys = yield CryptoCall(
        hkdf_op(), compute=lambda: schedule.traffic_keys(c_app, suite),
        label="client-app-keys")
    server_keys = yield CryptoCall(
        hkdf_op(), compute=lambda: schedule.traffic_keys(s_app, suite),
        label="server-app-keys")
    return client_keys, server_keys
