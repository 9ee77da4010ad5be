"""GPU substrate: the machine Duplo is evaluated on.

A trace-driven model of a Titan V-class GPU (Table III of the paper)
running the tensor-core GEMM kernel of lowered convolutions:

* :mod:`repro.gpu.config` — machine and kernel configuration;
* :mod:`repro.gpu.isa` — warp-level instruction records;
* :mod:`repro.gpu.kernel` — the cudaTensorCoreGemm-style trace
  generator (CTA/warp/octet tiling, dual octet loads);
* :mod:`repro.gpu.scheduler` — greedy-then-oldest warp interleaving;
* :mod:`repro.gpu.cache` — the L1/L2 caches of the memory hierarchy;
* :mod:`repro.gpu.ldst` — the load path with the Duplo detection unit
  (or a WIR same-address filter) attached;
* :mod:`repro.gpu.timing` — the analytic cycle model;
* :mod:`repro.gpu.simulator` — per-layer entry points.
"""

from repro.gpu.config import GPUConfig, KernelConfig, SimulationOptions, TITAN_V
from repro.gpu.simulator import simulate_layer, LayerResult, EliminationMode
from repro.gpu.stats import LayerStats, MemoryBreakdown

__all__ = [
    "GPUConfig",
    "KernelConfig",
    "SimulationOptions",
    "TITAN_V",
    "simulate_layer",
    "LayerResult",
    "EliminationMode",
    "LayerStats",
    "MemoryBreakdown",
]
