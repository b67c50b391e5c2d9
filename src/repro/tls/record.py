"""TLS record layer: fragmentation + record protection.

Application data larger than 16 KB is fragmented (paper section 2.1);
each fragment is protected by one chained cipher operation
(AES128-CBC + HMAC-SHA1) — the per-record op the paper's Figure 10
counts ("one 128 KB file incurs eight cipher operations").

Like the handshake state machines, the record layer is sans-IO: it
yields :class:`~repro.tls.actions.CryptoCall` actions so the cipher
work can be offloaded asynchronously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

import numpy as np

from ..crypto.ops import CryptoOp, CryptoOpKind
from ..crypto.provider import CryptoProvider
from .actions import CryptoCall, DirectionKeys, TlsAlert
from .constants import MAX_FRAGMENT, ContentType, ProtocolVersion

__all__ = ["TlsRecord", "RecordLayer", "RECORD_HEADER_LEN"]

RECORD_HEADER_LEN = 5


@dataclass(frozen=True)
class TlsRecord:
    """One protected record as it travels on the wire."""

    content_type: int
    version: int
    fragment: bytes          # IV || ciphertext (provider format)
    plaintext_len: int       # for accounting/tests only

    def wire_size(self) -> int:
        return RECORD_HEADER_LEN + len(self.fragment)


class RecordLayer:
    """Bidirectional record protection for one TLS connection."""

    def __init__(self, provider: CryptoProvider, write_keys: DirectionKeys,
                 read_keys: DirectionKeys, rng: np.random.Generator,
                 version: int = ProtocolVersion.TLS12) -> None:
        self.provider = provider
        self.write_keys = write_keys
        self.read_keys = read_keys
        self.rng = rng
        self.version = version
        #: TLS 1.3 protects records with AEAD (AES-128-GCM); TLS 1.2's
        #: AES128-SHA suite uses CBC + HMAC (MAC-then-encrypt).
        self.aead = version == ProtocolVersion.TLS13
        self._write_seq = 0
        self._read_seq = 0

    # -- outbound ----------------------------------------------------------

    @staticmethod
    def fragments(data: bytes) -> List[bytes]:
        """Split application data into <= 16 KB plaintext fragments."""
        if not data:
            return [b""]
        return [data[i:i + MAX_FRAGMENT]
                for i in range(0, len(data), MAX_FRAGMENT)]

    def protect(self, data: bytes,
                content_type: int = ContentType.APPLICATION_DATA
                ) -> Generator[object, object, List[TlsRecord]]:
        """Protect ``data``; one CryptoCall per 16 KB fragment."""
        records: List[TlsRecord] = []
        for frag in self.fragments(data):
            seq = self._write_seq
            self._write_seq += 1
            keys = self.write_keys
            provider = self.provider
            version = self.version
            if self.aead:
                compute = (lambda f=frag, s=seq:
                           provider.encrypt_record_aead(
                               keys.enc_key, keys.iv, s, content_type, f))
            else:
                iv = bytes(self.rng.bytes(16))
                compute = (lambda f=frag, s=seq, i2=iv:
                           provider.encrypt_record_cbc_hmac(
                               keys.enc_key, keys.mac_key, s, content_type,
                               version, f, i2))
            ciphertext = yield CryptoCall(
                CryptoOp(CryptoOpKind.RECORD_CIPHER, nbytes=len(frag)),
                compute=compute, label=f"protect-{seq}")
            records.append(TlsRecord(content_type, version, ciphertext,
                                     len(frag)))
        return records

    # -- inbound ----------------------------------------------------------------

    def unprotect(self, record: TlsRecord
                  ) -> Generator[object, object, bytes]:
        """Open one inbound record; one CryptoCall."""
        seq = self._read_seq
        self._read_seq += 1
        keys = self.read_keys
        provider = self.provider
        if self.aead:
            compute = (lambda: provider.decrypt_record_aead(
                keys.enc_key, keys.iv, seq, record.content_type,
                record.fragment))
        else:
            compute = (lambda: provider.decrypt_record_cbc_hmac(
                keys.enc_key, keys.mac_key, seq, record.content_type,
                record.version, record.fragment))
        try:
            payload = yield CryptoCall(
                CryptoOp(CryptoOpKind.RECORD_CIPHER,
                         nbytes=max(0, len(record.fragment) - 36)),
                compute=compute,
                label=f"unprotect-{seq}")
        except Exception as exc:
            raise TlsAlert(f"bad_record_mac: {exc}") from exc
        return payload
