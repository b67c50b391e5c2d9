"""One experiment module per paper table/figure."""

from .ablations import (run_async_impl, run_fd_sharing,
                        run_instances_per_worker,
                        run_interrupt_vs_polling, run_p256_montgomery,
                        run_thresholds)
from .backends import run as run_backends
from .cycles import run as run_cycles
from .scaling import run as run_scaling
from .ext_tls13_resumption import run as run_ext_tls13_resumption
from .faults import run as run_faults
from .lifecycle import run as run_lifecycle
from .mixed import run as run_mixed
from .utilization import run as run_utilization
from .fig7 import run_fig7a, run_fig7b, run_fig7c
from .fig8 import run as run_fig8
from .fig9 import run_fig9a, run_fig9b
from .fig10 import run as run_fig10
from .fig11 import run as run_fig11
from .fig12 import run_fig12a, run_fig12b, run_fig12c
from .table1 import run as run_table1

ALL_EXPERIMENTS = {
    "table1": run_table1,
    "fig7a": run_fig7a,
    "fig7b": run_fig7b,
    "fig7c": run_fig7c,
    "fig8": run_fig8,
    "fig9a": run_fig9a,
    "fig9b": run_fig9b,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12a": run_fig12a,
    "fig12b": run_fig12b,
    "fig12c": run_fig12c,
    "ablation-thresholds": run_thresholds,
    "ablation-async-impl": run_async_impl,
    "ablation-fd-sharing": run_fd_sharing,
    "ablation-p256-montgomery": run_p256_montgomery,
    "ablation-interrupts": run_interrupt_vs_polling,
    "ablation-instances": run_instances_per_worker,
    "utilization": run_utilization,
    "cycles": run_cycles,
    "ext-tls13-resumption": run_ext_tls13_resumption,
    "faults": run_faults,
    "lifecycle": run_lifecycle,
    "mixed": run_mixed,
    "backends": run_backends,
    "scaling": run_scaling,
}

__all__ = ["ALL_EXPERIMENTS", "run_table1", "run_fig7a", "run_fig7b",
           "run_fig7c", "run_fig8", "run_fig9a", "run_fig9b", "run_fig10",
           "run_fig11", "run_fig12a", "run_fig12b", "run_fig12c"]
