#!/usr/bin/env python
"""Walk through a real TLS 1.2 ECDHE-RSA handshake, op by op.

Uses the *real* from-scratch crypto (RSA PKCS#1 v1.5, P-256 ECDHE,
HMAC-SHA256 PRF): the signatures verify and both sides derive
identical keys. Every crypto operation the server performs is logged —
these are exactly the operations QTLS offloads, and the counts match
the paper's Table 1.

Run:  python examples/handshake_walkthrough.py
"""

from repro.crypto.ops import CryptoOpKind as K
from repro.crypto.provider import RealCryptoProvider
from repro.sim.rng import Stream
from repro.tls import (ECDHE_RSA, OpLog, TlsClientConfig, TlsServerConfig,
                       client_handshake12, run_loopback_handshake,
                       server_handshake12)


def main() -> None:
    provider = RealCryptoProvider()
    rng = Stream

    print("generating a 1024-bit RSA server key (real keygen) ...")
    cred = provider.make_rsa_credentials(1024, rng(1))

    server_cfg = TlsServerConfig(provider=provider, suites=(ECDHE_RSA,),
                                 rng=rng(2), curves=("P-256",),
                                 credentials_rsa=cred)
    client_cfg = TlsClientConfig(provider=provider, suites=(ECDHE_RSA,),
                                 rng=rng(3), curves=("P-256",))

    slog, clog = OpLog(), OpLog()
    print("running the ECDHE-RSA handshake ...\n")
    cres, sres = run_loopback_handshake(
        client_handshake12(client_cfg), server_handshake12(server_cfg),
        client_oplog=clog, server_oplog=slog)

    print("server-side crypto operations (the offload candidates):")
    for op, label in zip(slog.ops, slog.labels):
        flag = "QAT-offloadable" if op.qat_offloadable else "CPU only"
        print(f"  {label:24s} {op.describe():24s} [{flag}]")

    print("\nTable 1 check (ECDHE-RSA row: RSA=1, ECC=2, PRF=4):")
    print(f"  RSA  = {slog.count(K.RSA_PRIV)}")
    print(f"  ECC  = {slog.count(K.ECDH_KEYGEN, K.ECDH_COMPUTE)}")
    print(f"  PRF  = {slog.count(K.PRF)}")

    assert cres.master_secret == sres.master_secret
    assert cres.client_write_keys == sres.client_write_keys
    print("\nboth sides derived identical keys:")
    print(f"  master secret = {sres.master_secret.hex()[:48]}...")
    print(f"  resumable session id = {sres.session_id.hex() or '(none)'}")
    print("\nhandshake complete — the RSA signature over the "
          "ServerKeyExchange verified with real PKCS#1 v1.5 math.")


if __name__ == "__main__":
    main()
