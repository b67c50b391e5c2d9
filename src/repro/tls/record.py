"""TLS record layer: fragmentation + record protection.

Application data larger than 16 KB is fragmented (paper section 2.1);
each fragment is protected by one chained cipher operation
(AES128-CBC + HMAC-SHA1) — the per-record op the paper's Figure 10
counts ("one 128 KB file incurs eight cipher operations").

Like the handshake state machines, the record layer is sans-IO: it
yields :class:`~repro.tls.actions.CryptoCall` actions so the cipher
work can be offloaded asynchronously.

No client decrypts a response, so the server protects one by its
length (:meth:`RecordLayer.protect_opaque`); every record a peer opens
keeps real or modeled bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, List, Sequence, Tuple, Union

from ..crypto.ops import CryptoOp, CryptoOpKind
from ..crypto.provider import CryptoProvider
from ..sim.rng import Stream
from .actions import CryptoCall, DirectionKeys, TlsAlert
from .constants import MAX_FRAGMENT, ContentType, ProtocolVersion

__all__ = ["TlsRecord", "OpaqueFragment", "RecordLayer",
           "RECORD_HEADER_LEN"]

RECORD_HEADER_LEN = 5


class OpaqueFragment:
    """Bytes nobody reads, kept as their length only: a response's
    plaintext and ciphertext. A record carrying one cannot be opened."""

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def __len__(self) -> int:
        return self._n


@dataclass(frozen=True)
class TlsRecord:
    """One protected record as it travels on the wire."""

    content_type: int
    version: int
    #: IV || ciphertext (provider format), or an :class:`OpaqueFragment`
    #: of that size for a response nobody decrypts.
    fragment: Union[bytes, OpaqueFragment]
    #: Plaintext bytes this record carries: what a client counts of a
    #: response, since it never decrypts one.
    plaintext_len: int

    def wire_size(self) -> int:
        return RECORD_HEADER_LEN + len(self.fragment)


class RecordLayer:
    """Bidirectional record protection for one TLS connection."""

    def __init__(self, provider: CryptoProvider, write_keys: DirectionKeys,
                 read_keys: DirectionKeys, rng: Stream,
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

    @property
    def seq_numbers(self) -> Tuple[int, int]:
        """The (write, read) sequence numbers the next records take."""
        return self._write_seq, self._read_seq

    @seq_numbers.setter
    def seq_numbers(self, seqs: Tuple[int, int]) -> None:
        self._write_seq, self._read_seq = seqs

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
        return self._protect(self.fragments(data), content_type, self._seal)

    def protect_opaque(self, length: int
                       ) -> Generator[object, object, List[TlsRecord]]:
        """Protect ``length`` bytes of application data no peer opens.

        Yields the CryptoCalls, advances the sequence number and draws
        the CBC IVs exactly as :meth:`protect` does for that many bytes;
        each record's fragment is an :class:`OpaqueFragment` of the
        ciphertext's wire size.
        """
        frags = [OpaqueFragment(min(MAX_FRAGMENT, length - i))
                 for i in range(0, length, MAX_FRAGMENT)]
        return self._protect(frags or [OpaqueFragment(0)],
                             ContentType.APPLICATION_DATA, self._seal_opaque)

    def _protect(self, frags: Sequence, content_type: int,
                 seal: Callable) -> Generator[object, object,
                                              List[TlsRecord]]:
        records: List[TlsRecord] = []
        for frag in frags:
            seq = self._write_seq
            self._write_seq += 1
            iv = None if self.aead else self.rng.bytes(16)
            fragment = yield CryptoCall(
                CryptoOp(CryptoOpKind.RECORD_CIPHER, nbytes=len(frag)),
                compute=partial(seal, frag, seq, content_type, iv),
                label=f"protect-{seq}")
            records.append(TlsRecord(content_type, self.version, fragment,
                                     len(frag)))
        return records

    def _seal(self, frag: bytes, seq: int, content_type: int,
              iv: bytes) -> bytes:
        keys = self.write_keys
        if self.aead:
            return self.provider.encrypt_record_aead(
                keys.enc_key, keys.iv, seq, content_type, frag)
        return self.provider.encrypt_record_cbc_hmac(
            keys.enc_key, keys.mac_key, seq, content_type, self.version,
            frag, iv)

    def _seal_opaque(self, frag: OpaqueFragment, seq: int,
                     content_type: int, iv: bytes) -> OpaqueFragment:
        n = len(frag)
        if self.aead:
            # AES-128-GCM: payload || inner content type || 16-byte tag.
            return OpaqueFragment(n + 17)
        # CBC: IV || pad(payload || HMAC-SHA1), padding 1-16 bytes.
        return OpaqueFragment(16 + (n + 20) + 16 - (n + 20) % 16)

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
