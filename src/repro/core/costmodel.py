"""CPU-side cost model (software crypto + server path costs).

All constants are simulated CPU seconds on one Broadwell-class
(E5-2699 v4, 2.2 GHz) hyper-thread, calibrated against published
OpenSSL speed numbers of that era and back-checked against the paper's
aggregate results (see EXPERIMENTS.md). The QAT-side service times
live in :mod:`repro.qat.service_times`.

Calibration anchors (8 HT workers unless noted):

- TLS-RSA(2048) full handshake, SW: ~4.3K CPS (Fig. 7a)
  => ~1.83 ms CPU/handshake = 1.55 ms RSA + 4x~25 us PRF + path costs.
- ECDHE-RSA adds ~2 P-256 ops; SW ~4K CPS (Fig. 7b).
- ECDSA P-256 sign is Montgomery-domain accelerated (2.33x faster than
  the generic path) — the Fig. 7c software anomaly.
- 100% abbreviated, SW ~ (3 PRF + path) => QTLS gains 30-40% by
  offloading PRF (Fig. 9a); hence PRF ~= 25 us on CPU (EVP/alloc
  overhead included), ~4 us + DMA on QAT.
- Secure data transfer: SW ~14 Gbps at 1 MB files with 8 workers
  (Fig. 10) => ~67 us CPU per 16 KB record, of which ~39 us is the
  chained cipher (offloadable) and the rest is network-stack tx.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..crypto.ops import CryptoOp, CryptoOpKind

__all__ = ["CostModel", "net_tx_cost"]


# -- software crypto op costs (seconds) -------------------------------------

_SW_RSA_PRIV = {1024: 380e-6, 2048: 1550e-6, 3072: 4600e-6, 4096: 10500e-6}
_SW_RSA_PUB = {1024: 16e-6, 2048: 42e-6, 3072: 75e-6, 4096: 120e-6}

# Per-curve {op: cost}. P-256 reflects the Montgomery-friendly fast
# path (Gueron-Krasnov); the generic-path figures (used when the fast
# path is disabled) are 2.33x for sign and ~2x for mults.
_SW_EC: Dict[str, Dict[str, float]] = {
    "P-256": {"sign": 35e-6, "verify": 95e-6,
              "keygen": 52e-6, "compute": 150e-6},
    "P-384": {"sign": 1000e-6, "verify": 2000e-6,
              "keygen": 1150e-6, "compute": 1300e-6},
    "B-283": {"sign": 1300e-6, "verify": 2600e-6,
              "keygen": 1400e-6, "compute": 1600e-6},
    "B-409": {"sign": 2900e-6, "verify": 5800e-6,
              "keygen": 3100e-6, "compute": 3500e-6},
    "K-283": {"sign": 1100e-6, "verify": 2200e-6,
              "keygen": 1200e-6, "compute": 1350e-6},
    "K-409": {"sign": 2500e-6, "verify": 5000e-6,
              "keygen": 2700e-6, "compute": 3000e-6},
}

#: Generic (non-Montgomery) P-256 software path, for the ablation that
#: reproduces the "2.33x faster" claim of Fig. 7c's discussion.
_SW_EC_P256_GENERIC = {"sign": 81.6e-6, "verify": 200e-6,
                       "keygen": 110e-6, "compute": 300e-6}

_EC_OP_NAME = {
    CryptoOpKind.ECDSA_SIGN: "sign",
    CryptoOpKind.ECDSA_VERIFY: "verify",
    CryptoOpKind.ECDH_KEYGEN: "keygen",
    CryptoOpKind.ECDH_COMPUTE: "compute",
}


# -- software crypto op costs on the server path -----------------------------

#: TLS 1.2 PRF op (EVP + transcript digest + allocation overhead).
PRF_COST = 25e-6
#: One HKDF schedule step (TLS 1.3; never offloaded). Includes the
#: per-step EVP/transcript-digest overhead (fig8 calibration).
HKDF_COST = 40e-6
#: Lightweight HKDF expansions with no transcript digest (PSK binder
#: keys, resumption-PSK derivation), flagged by nbytes=0.
HKDF_SMALL_COST = 8e-6
#: Chained AES128-CBC + HMAC-SHA1 record protection, software (AES-NI):
#: fixed + per-byte.
CIPHER_SETUP_COST = 6e-6
CIPHER_PER_BYTE = 2.0e-9

# -- server path costs --------------------------------------------------------

#: Accept + connection object setup + epoll registration.
ACCEPT_COST = 24e-6
#: Parse/build one handshake flight message (per message).
HANDSHAKE_MSG_COST = 10e-6
#: Extra serialization work for EC points / SKE construction.
EC_MARSHAL_COST = 40e-6
#: Dispatch one event from the event loop to its handler.
EVENT_DISPATCH_COST = 1.6e-6
#: HTTP request parse + response head build (keepalive request).
HTTP_REQUEST_COST = 36e-6
#: Network tx path per record: fixed + per byte (TCP/kernel).
NET_TX_FIXED = 4e-6
NET_TX_PER_BYTE = 1.35e-9
#: Network rx path per inbound record/message.
NET_RX_FIXED = 3e-6
#: Connection teardown.
CLOSE_COST = 9e-6

# -- async machinery ----------------------------------------------------------

#: One fiber context swap (ASYNC_start/pause/resume each swap once).
FIBER_SWAP_COST = 0.35e-6
#: Stack-async "careful skipping" per replayed step.
STACK_REPLAY_COST = 0.12e-6
#: Application-level async queue push/pop (kernel bypass; no syscall).
ASYNC_QUEUE_COST = 0.25e-6

# -- client-side costs (the s_time / ab machines) -----------------------------

#: Client-side turnaround per loop iteration.
CLIENT_STEP_COST = 12e-6


def net_tx_cost(nbytes: int) -> float:
    """Network-stack tx cost of sending ``nbytes`` in one record."""
    return NET_TX_FIXED + NET_TX_PER_BYTE * nbytes


@dataclass
class CostModel:
    """Software crypto op costs. The one setting is the P-256 fast
    path, which the Fig. 7c ablation turns off; client machines run
    the same software crypto as the server (they are not the
    bottleneck, but their latency contributes to Fig. 11)."""

    #: Disable the Montgomery-domain P-256 fast path (ablation).
    p256_montgomery: bool = True

    def software_cost(self, op: CryptoOp) -> float:
        """Software (CPU) execution time of a crypto op."""
        kind = op.kind
        if kind is CryptoOpKind.RSA_PRIV:
            return _lookup(_SW_RSA_PRIV, op.rsa_bits or 2048, "RSA")
        if kind is CryptoOpKind.RSA_PUB:
            return _lookup(_SW_RSA_PUB, op.rsa_bits or 2048, "RSA")
        if kind in _EC_OP_NAME:
            table = _SW_EC.get(op.curve or "")
            if table is None:
                raise ValueError(f"no software cost for curve {op.curve!r}")
            if op.curve == "P-256" and not self.p256_montgomery:
                table = _SW_EC_P256_GENERIC
            return table[_EC_OP_NAME[kind]]
        if kind is CryptoOpKind.PRF:
            return PRF_COST + 8e-9 * op.nbytes
        if kind is CryptoOpKind.HKDF:
            return HKDF_COST if op.nbytes else HKDF_SMALL_COST
        if kind is CryptoOpKind.RECORD_CIPHER:
            return CIPHER_SETUP_COST + CIPHER_PER_BYTE * op.nbytes
        raise ValueError(f"unknown op kind {kind}")  # pragma: no cover


def _lookup(table: Dict[int, float], bits: int, what: str) -> float:
    try:
        return table[bits]
    except KeyError:
        raise ValueError(f"no software cost for {what}-{bits}") from None
