"""Table 1: server-side crypto operations per full handshake.

Counted functionally by running real handshakes through the sans-IO
state machines and logging every CryptoCall the server executes.
"""

from __future__ import annotations

from ...crypto.ops import CryptoOpKind as K
from ...crypto.provider import ModeledCryptoProvider
from ...sim.rng import Stream
from ...tls import (ECDHE_ECDSA, ECDHE_RSA, TLS13_ECDHE_RSA, TLS_RSA, OpLog,
                    TlsClientConfig, TlsServerConfig, client_handshake12,
                    client_handshake13, run_loopback_handshake,
                    server_handshake12, server_handshake13)
from ..reporting import ExperimentResult

__all__ = ["run"]

ECC_KINDS = (K.ECDH_KEYGEN, K.ECDH_COMPUTE, K.ECDSA_SIGN)

#: (row label, suite, tls13?, expected RSA, expected ECC, expected PRF/HKDF)
PAPER_ROWS = [
    ("1.2 TLS-RSA", TLS_RSA, False, 1, 0, "4"),
    ("1.2 ECDHE-RSA", ECDHE_RSA, False, 1, 2, "4"),
    ("1.2 ECDHE-ECDSA", ECDHE_ECDSA, False, 0, 3, "4"),
    ("1.3 ECDHE-RSA", TLS13_ECDHE_RSA, True, 1, 2, "> 4"),
]


def _handshake_ops(suite, tls13: bool):
    provider = ModeledCryptoProvider()
    rng = Stream
    kw = {}
    if suite.auth == "rsa":
        kw["credentials_rsa"] = provider.make_rsa_credentials(2048, rng(1))
    else:
        kw["credentials_ecdsa"] = provider.make_ecdsa_credentials(
            "P-256", rng(1))
    scfg = TlsServerConfig(provider=provider, suites=(suite,), rng=rng(2),
                           curves=("P-256",), **kw)
    ccfg = TlsClientConfig(provider=provider, suites=(suite,), rng=rng(3),
                           curves=("P-256",))
    slog = OpLog()
    if tls13:
        run_loopback_handshake(client_handshake13(ccfg),
                               server_handshake13(scfg), server_oplog=slog)
    else:
        run_loopback_handshake(client_handshake12(ccfg),
                               server_handshake12(scfg), server_oplog=slog)
    return slog


def run(quick: bool = True, seed: int = 7) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="table1",
        title="Server-side crypto operations for full handshake",
        columns=["suite", "RSA", "ECC", "PRF/HKDF",
                 "paper_RSA", "paper_ECC", "paper_PRF/HKDF"])
    for label, suite, tls13, p_rsa, p_ecc, p_kdf in PAPER_ROWS:
        slog = _handshake_ops(suite, tls13)
        rsa = slog.count(K.RSA_PRIV)
        ecc = slog.count(*ECC_KINDS)
        kdf = slog.count(K.PRF) + slog.count(K.HKDF)
        kdf_str = str(kdf) if not tls13 else f"{kdf} (HKDF)"
        result.add_row(suite=label, RSA=rsa, ECC=ecc, **{
            "PRF/HKDF": kdf_str, "paper_RSA": p_rsa, "paper_ECC": p_ecc,
            "paper_PRF/HKDF": p_kdf})
        ok = (rsa == p_rsa and ecc == p_ecc
              and (kdf > 4 if p_kdf == "> 4" else kdf == int(p_kdf)))
        result.add_check(f"{label} op counts", f"{p_rsa}/{p_ecc}/{p_kdf}",
                         f"{rsa}/{ecc}/{kdf}", ok)
    return result
