"""Crypto operation descriptors.

Every operation the TLS stack performs is described by a
:class:`CryptoOp`; the engine layer (software or QAT) consumes these to
(a) run/offload the actual computation and (b) charge the right
simulated duration from the cost model. The three inflight counters of
the heuristic polling scheme (Rasym, Rcipher, Rprf — paper section 4.3)
are keyed by :attr:`CryptoOpKind.category`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

__all__ = ["CryptoOpKind", "OpCategory", "CryptoOp", "SCHED_CLASSES"]


class OpCategory(str, Enum):
    """Inflight-counter buckets used by the heuristic polling scheme."""

    ASYM = "asym"       # Rasym: RSA/ECC asymmetric ops
    CIPHER = "cipher"   # Rcipher: chained record ciphers
    PRF = "prf"         # Rprf: key-derivation ops

    @property
    def sched_class(self) -> str:
        """The scheduling class (admission lane) this category maps to
        in the class-aware offload scheduler."""
        return SCHED_CLASSES[self]


#: Scheduling-class names per category: the admission lanes of the
#: class-aware offload scheduler (``repro.offload.scheduler``).
#: Handshake-critical asymmetric ops, bulk record ciphers and key
#: derivation contend differently for the accelerator, so each gets
#: its own lane.
SCHED_CLASSES = {
    OpCategory.ASYM: "handshake-asym",
    OpCategory.CIPHER: "record-cipher",
    OpCategory.PRF: "prf",
}


class CryptoOpKind(Enum):
    """The operations QTLS distinguishes, with their offloadability.

    TLS 1.3's HKDF is the one kind the QAT Engine cannot offload
    (paper section 5.2, Figure 8).
    """

    RSA_PRIV = ("rsa_priv", OpCategory.ASYM, True)
    RSA_PUB = ("rsa_pub", OpCategory.ASYM, True)
    ECDSA_SIGN = ("ecdsa_sign", OpCategory.ASYM, True)
    ECDSA_VERIFY = ("ecdsa_verify", OpCategory.ASYM, True)
    ECDH_KEYGEN = ("ecdh_keygen", OpCategory.ASYM, True)
    ECDH_COMPUTE = ("ecdh_compute", OpCategory.ASYM, True)
    PRF = ("prf", OpCategory.PRF, True)
    HKDF = ("hkdf", OpCategory.PRF, False)
    RECORD_CIPHER = ("record_cipher", OpCategory.CIPHER, True)

    def __init__(self, label: str, category: OpCategory,
                 qat_offloadable: bool) -> None:
        self.label = label
        self.category = category
        self.qat_offloadable = qat_offloadable


@dataclass
class CryptoOp:
    """A single crypto operation instance.

    Parameters relevant to costing:

    - ``rsa_bits`` for RSA ops,
    - ``curve`` for EC ops,
    - ``nbytes`` (payload size) for record ciphers and KDF output.
    """

    kind: CryptoOpKind
    rsa_bits: Optional[int] = None
    curve: Optional[str] = None
    nbytes: int = 0

    @property
    def category(self) -> OpCategory:
        return self.kind.category

    @property
    def qat_offloadable(self) -> bool:
        return self.kind.qat_offloadable

    def describe(self) -> str:
        parts = [self.kind.label]
        if self.rsa_bits:
            parts.append(f"{self.rsa_bits}b")
        if self.curve:
            parts.append(self.curve)
        if self.nbytes:
            parts.append(f"{self.nbytes}B")
        return "-".join(parts)
