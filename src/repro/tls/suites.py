"""Cipher suite registry covering the paper's evaluation matrix.

TLS 1.2: TLS-RSA, ECDHE-RSA, ECDHE-ECDSA (all with AES128-SHA records);
TLS 1.3: ECDHE-RSA. The negotiated ECDHE/ECDSA curve is a separate
parameter (Figure 7c sweeps six NIST curves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .constants import ProtocolVersion

__all__ = ["CipherSuite", "get_suite", "list_suites",
           "TLS_RSA", "ECDHE_RSA", "ECDHE_ECDSA", "TLS13_ECDHE_RSA"]


@dataclass(frozen=True)
class CipherSuite:
    """A negotiated algorithm bundle.

    ``kx``: key exchange — ``"rsa"`` (RSA-wrapped premaster) or
    ``"ecdhe"`` (ephemeral ECDH).
    ``auth``: server authentication — ``"rsa"`` or ``"ecdsa"``.
    Record protection is AES128-CBC + HMAC-SHA1 throughout (the paper's
    AES128-SHA data-transfer suite).
    """

    name: str
    version: ProtocolVersion
    kx: str
    auth: str
    mac_key_len: int = 20     # HMAC-SHA1
    enc_key_len: int = 16     # AES-128
    iv_len: int = 16

    @property
    def key_block_len(self) -> int:
        """TLS 1.2 key block: 2 MAC keys + 2 cipher keys + 2 IVs."""
        return 2 * (self.mac_key_len + self.enc_key_len + self.iv_len)


TLS_RSA = CipherSuite("TLS-RSA", ProtocolVersion.TLS12, kx="rsa", auth="rsa")
ECDHE_RSA = CipherSuite("ECDHE-RSA", ProtocolVersion.TLS12,
                        kx="ecdhe", auth="rsa")
ECDHE_ECDSA = CipherSuite("ECDHE-ECDSA", ProtocolVersion.TLS12,
                          kx="ecdhe", auth="ecdsa")
TLS13_ECDHE_RSA = CipherSuite("TLS1.3-ECDHE-RSA", ProtocolVersion.TLS13,
                              kx="ecdhe", auth="rsa")

_SUITES: Dict[str, CipherSuite] = {
    s.name: s for s in (TLS_RSA, ECDHE_RSA, ECDHE_ECDSA, TLS13_ECDHE_RSA)
}


def get_suite(name: str) -> CipherSuite:
    try:
        return _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown cipher suite {name!r}; available: {sorted(_SUITES)}"
        ) from None


def list_suites() -> Tuple[str, ...]:
    return tuple(sorted(_SUITES))
