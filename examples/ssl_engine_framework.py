#!/usr/bin/env python
"""Customizing offload behaviour via the SSL Engine Framework.

The paper's artifact (appendix A.7) extends the Nginx conf file with an
``ssl_engine`` block. This example drives the reproduction with that
exact configuration syntax, then flips individual knobs (polling mode,
notification scheme) and shows the effect on handshake throughput.

Run:  python examples/ssl_engine_framework.py
"""

from repro.bench import Windows
from repro.core import ClientMetrics, CostModel
from repro.clients import STimeFleet
from repro.crypto.provider import ModeledCryptoProvider
from repro.net import Network
from repro.qat import dh8970
from repro.server import TlsServer, server_config_from_text
from repro.sim import RngRegistry, Simulator
from repro.tls.config import TlsClientConfig
from repro.tls.suites import get_suite

# The appendix A.7 example, almost verbatim.
CONF_TEMPLATE = """
worker_processes 2;
load_module modules/ngx_ssl_engine_qat_module.so;
ssl_ciphers TLS-RSA;
ssl_asynch_notify {notify};
ssl_engine {{
    use qat_engine;
    default_algorithm RSA,EC,DH,PKEY_CRYPTO;
    qat_engine {{
        qat_offload_mode async;
        qat_notify_mode poll;
        qat_poll_mode {poll_mode};
        qat_timer_poll_interval {interval};
        qat_heuristic_poll_asym_threshold 48;
        qat_heuristic_poll_sym_threshold 24;
    }}
}}
"""

WINDOWS = Windows(warmup=0.08, measure=0.12)


def run_conf(conf_text: str) -> float:
    sim = Simulator()
    rng = RngRegistry(3)
    net = Network(sim)
    provider = ModeledCryptoProvider()
    config = server_config_from_text(conf_text)
    server = TlsServer(sim, net, config, provider, rng,
                       qat_device=dh8970(sim))
    server.start()
    metrics = ClientMetrics()
    suites = tuple(get_suite(s) for s in config.suites)

    def client_config(cid):
        return TlsClientConfig(provider=provider, suites=suites,
                               rng=rng.stream(f"c{cid}"), curves=("P-256",))

    STimeFleet(sim, net, server.addresses(), client_config,
               CostModel(), metrics,
               n_clients=100 * config.worker_processes,
               mix_rng=rng.stream("mix")).start()
    sim.run(until=WINDOWS.end)
    return metrics.cps(WINDOWS.warmup, WINDOWS.end)


def main() -> None:
    variants = [
        ("timer thread, 10us, FD notify",
         dict(poll_mode="timer", interval="0.00001", notify="fd")),
        ("heuristic polling, FD notify",
         dict(poll_mode="heuristic", interval="0.00001", notify="fd")),
        ("heuristic + kernel-bypass (full QTLS)",
         dict(poll_mode="heuristic", interval="0.00001", notify="queue")),
    ]
    print("SSL Engine Framework knobs (TLS-RSA, 2 workers):\n")
    base = None
    for label, params in variants:
        cps = run_conf(CONF_TEMPLATE.format(**params))
        base = base or cps
        print(f"  {label:42s} {cps:10,.0f} CPS  ({cps / base:.2f}x)")
    print("\neach knob corresponds to one step of the paper's "
          "QAT+A -> QAT+AH -> QTLS ladder")


if __name__ == "__main__":
    main()
