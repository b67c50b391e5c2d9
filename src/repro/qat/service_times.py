"""QAT computation-engine service times.

Per-operation durations on **one** QAT computation engine, calibrated
so the simulated DH8970 card (3 endpoints x 10 engines) reproduces the
paper's aggregate ceilings:

- ~100K RSA-2048 ops/s card-wide (Fig. 7a plateau: "about 100K CPS,
  achieving the upper limit of the DH8970 QAT card"),
- ~40K ECDHE-RSA full handshakes/s (Fig. 7b plateau: 1 RSA + 2 P-256
  ECC ops per handshake).

Symmetric chained-cipher throughput is charged per byte on top of a
fixed setup cost; PRF offloads are small fixed-cost ops.

These are *simulated* durations; see ``repro.core.costmodel`` for the
CPU-side (software) costs they are compared against.
"""

from __future__ import annotations

from ..crypto.ops import CryptoOp, CryptoOpKind, OpCategory

__all__ = ["qat_service_time", "qat_pipeline_latency", "PCIE_LATENCY"]

#: One-way PCIe/DMA transfer latency per request or response.
PCIE_LATENCY = 8.0e-6

#: Additional request-to-response latency beyond engine occupancy:
#: descriptor processing, firmware scheduling, DMA completion. This is
#: *pipelined* — it adds latency without consuming engine capacity —
#: so it hurts the blocking straight-offload mode (QAT+S) while the
#: asynchronous framework hides it entirely (paper section 2.4).
_PIPELINE = {OpCategory.ASYM: 300e-6, OpCategory.CIPHER: 22e-6,
             OpCategory.PRF: 14e-6}


def qat_pipeline_latency(op: CryptoOp) -> float:
    """Post-engine completion latency of ``op`` (see above)."""
    return _PIPELINE[op.category]

#: RSA private-key op service time by modulus size (seconds/engine).
_RSA_PRIV = {1024: 70e-6, 2048: 280e-6, 3072: 700e-6, 4096: 1500e-6}
_RSA_PUB = {1024: 6e-6, 2048: 14e-6, 3072: 25e-6, 4096: 40e-6}

#: EC op service times by curve. QAT's EC units handle prime and
#: binary fields in comparable time; bigger fields cost more.
_EC = {
    "P-256": 220e-6,
    "P-384": 430e-6,
    "B-283": 340e-6,
    "B-409": 620e-6,
    "K-283": 320e-6,
    "K-409": 580e-6,
}

_PRF_BASE = 4.0e-6
_PRF_PER_BYTE = 8.0e-9

_CIPHER_SETUP = 9.0e-6
#: Chained AES128-CBC-HMAC-SHA1 throughput per engine ~= 2.2 GB/s.
_CIPHER_PER_BYTE = 1.0 / 2.2e9


def qat_service_time(op: CryptoOp) -> float:
    """Service time of ``op`` on one QAT computation engine."""
    kind = op.kind
    if kind is CryptoOpKind.RSA_PRIV:
        return _lookup_rsa(_RSA_PRIV, op)
    if kind is CryptoOpKind.RSA_PUB:
        return _lookup_rsa(_RSA_PUB, op)
    if kind in (CryptoOpKind.ECDSA_SIGN, CryptoOpKind.ECDSA_VERIFY,
                CryptoOpKind.ECDH_KEYGEN, CryptoOpKind.ECDH_COMPUTE):
        try:
            return _EC[op.curve]
        except KeyError:
            raise ValueError(f"no QAT service time for curve {op.curve!r}") \
                from None
    if kind is CryptoOpKind.PRF:
        return _PRF_BASE + _PRF_PER_BYTE * op.nbytes
    if kind is CryptoOpKind.RECORD_CIPHER:
        return _CIPHER_SETUP + _CIPHER_PER_BYTE * op.nbytes
    if kind is CryptoOpKind.HKDF:
        raise ValueError("HKDF is not offloadable to QAT (paper section 5.2)")
    raise ValueError(f"unknown op kind {kind}")  # pragma: no cover


def _lookup_rsa(table: dict, op: CryptoOp) -> float:
    bits = op.rsa_bits or 2048
    try:
        return table[bits]
    except KeyError:
        raise ValueError(f"no QAT service time for RSA-{bits}") from None
