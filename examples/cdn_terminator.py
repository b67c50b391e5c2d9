#!/usr/bin/env python
"""A CDN TLS-termination scenario (the paper's Wangsu/Alibaba use case).

A CDN edge node terminates HTTPS for many short-lived end-client
connections: a realistic mix of full and abbreviated handshakes
(session tickets restricted to an hour, so ~20% of connections pay the
full asymmetric cost) plus mid-size object transfers over keepalive
connections.

The script compares the software baseline against full QTLS on all
three axes the paper evaluates: handshake CPS, transfer throughput,
and end-client response time.

Run:  python examples/cdn_terminator.py
"""

from repro.bench import Testbed, Windows

HS_WINDOWS = Windows(warmup=0.08, measure=0.12)
XFER_WINDOWS = Windows(warmup=0.25, measure=0.15)
LAT_WINDOWS = Windows(warmup=0.1, measure=0.2)

WORKERS = 4


def handshake_mix(config: str) -> float:
    """CPS with an 80% session-resumption hit rate, ECDHE-RSA."""
    bed = Testbed(config, workers=WORKERS, suites=("ECDHE-RSA",), seed=11)
    return bed.measure_cps(HS_WINDOWS, full_ratio=0.2)


def object_transfer(config: str) -> float:
    """Gbps serving 64 KB objects over keepalive connections."""
    bed = Testbed(config, workers=WORKERS, suites=("ECDHE-RSA",), seed=11)
    return bed.measure_throughput(XFER_WINDOWS, n_clients=60 * WORKERS,
                                  file_size=64 * 1024) / 1e9


def response_time(config: str) -> float:
    """Mean ms to fetch a small object on a fresh connection, 32-way."""
    bed = Testbed(config, workers=WORKERS, suites=("ECDHE-RSA",), seed=11)
    return bed.measure_latency(LAT_WINDOWS, n_clients=32) * 1e3


def main() -> None:
    print(f"CDN edge terminator scenario ({WORKERS} workers, ECDHE-RSA, "
          "80% resumption)\n")
    rows = []
    for config in ("SW", "QTLS"):
        print(f"  measuring {config} ...")
        rows.append((config, handshake_mix(config),
                     object_transfer(config), response_time(config)))

    print(f"\n  {'config':8s} {'mixed CPS':>12s} {'64KB Gbps':>10s} "
          f"{'latency ms':>11s}")
    for config, cps, gbps, lat in rows:
        print(f"  {config:8s} {cps:12,.0f} {gbps:10.2f} {lat:11.2f}")

    (_, sw_cps, sw_gbps, sw_lat), (_, q_cps, q_gbps, q_lat) = rows
    print(f"\n  QTLS vs SW:  {q_cps / sw_cps:.1f}x CPS,  "
          f"{q_gbps / sw_gbps:.1f}x throughput,  "
          f"{(1 - q_lat / sw_lat) * 100:.0f}% lower latency")
    print("  (paper headline: up to 9x CPS, >2x throughput, "
          "~85% latency reduction)")


if __name__ == "__main__":
    main()
