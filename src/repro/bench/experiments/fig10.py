"""Figure 10: secure data transfer throughput vs requested file size.

AES128-SHA records, 8 workers, keepalive tuned so handshakes do not
interfere; 400 ab processes continuously request a fixed file.
"""

from __future__ import annotations

from ...core.configurations import CONFIG_NAMES
from ..reporting import ExperimentResult
from ..runner import Testbed, Windows

__all__ = ["run"]

# Long warm-up: every keepalive connection performs its one
# handshake (an RSA op each on the SW baseline) before the
# measurement window opens, as the paper's keepalive tuning does.
QUICK = Windows(warmup=0.25, measure=0.2)
FULL = Windows(warmup=0.4, measure=0.35)

KB = 1024


def _gbps(config, size, workers, clients, windows, seed):
    bed = Testbed(config, workers=workers, suites=("TLS-RSA",), seed=seed)
    bps = bed.measure_throughput(windows, n_clients=clients,
                                 file_size=size)
    return bps / 1e9


def run(quick: bool = True, seed: int = 7) -> ExperimentResult:
    windows = QUICK if quick else FULL
    if quick:
        sizes = [4 * KB, 128 * KB, 1024 * KB]
        configs = ("SW", "QAT+A", "QTLS")
        workers, clients = 4, 200
    else:
        sizes = [s * KB for s in (4, 16, 32, 64, 128, 256, 512, 1024)]
        configs = CONFIG_NAMES
        workers, clients = 8, 400
    result = ExperimentResult(
        exp_id="fig10",
        title=f"Secure data transfer throughput (Gbps), {workers} workers,"
              f" {clients} ab clients, AES128-SHA",
        columns=["size_kb", "config", "value"],
        notes="value = payload Gbps delivered to clients")
    gbps = {}
    for size in sizes:
        for config in configs:
            v = _gbps(config, size, workers, clients, windows, seed)
            gbps[(size, config)] = v
            result.add_row(size_kb=size // KB, config=config, value=v)

    small, big = sizes[0], sizes[-1]
    r_small = gbps[(small, "QTLS")] / gbps[(small, "SW")]
    result.add_check("4KB: QTLS only slightly higher than SW",
                     "1.0-1.5x", f"{r_small:.2f}x", 1.0 <= r_small < 1.5)
    mid = 128 * KB if (128 * KB, "QTLS") in gbps else big
    r_mid = gbps[(mid, "QTLS")] / gbps[(mid, "SW")]
    result.add_check(f"{mid // KB}KB+: QTLS more than 2x SW", "> 2x",
                     f"{r_mid:.2f}x", r_mid > 2.0)
    a_mid = gbps[(mid, "QAT+A")] / gbps[(mid, "SW")]
    result.add_check(f"{mid // KB}KB: QAT+A ~+60% over SW", "1.4-1.9x",
                     f"{a_mid:.2f}x", 1.4 < a_mid < 1.9)
    grow = gbps[(big, "QTLS")] / gbps[(small, "QTLS")]
    result.add_check("benefit grows with file size (more cipher ops)",
                     "throughput rises with size", f"{grow:.1f}x 4KB->1MB",
                     grow > 3)
    if not quick:
        result.add_check("QTLS stays under the 40 GbE line rate", "< 40",
                         f"{gbps[(big, 'QTLS')]:.1f} Gbps",
                         gbps[(big, "QTLS")] < 40)
    return result
