"""Analytic cycle model: turning event counts into execution time.

DESIGN.md's documented substitution for GPGPU-sim's cycle-level
pipeline.  Per-SM execution time is modelled as the dominant resource
bottleneck plus a partial-overlap share of the remaining resources
and the TLP-exposed fraction of memory latency:

* **tensor cores** — MMA ops at 512 MACs/SM/cycle (Table III's 8
  tensor cores);
* **LDST issue/L1 bandwidth** — 32-byte fragments through a
  128 B/cycle pipe; LHB-eliminated loads retire in one issue slot
  ("as if the memory request is immediately served");
* **L2 bandwidth** — line refills against the SM's share of L2
  bandwidth;
* **DRAM bandwidth** — read + write bytes against the SM's share of
  652.8 GB/s (shared only among SMs the grid actually occupies);
* **exposed latency** — per-miss latencies divided by the in-flight
  capacity the resident warps provide (GPUs hide most, not all, of
  it — the memory-boundedness Yan et al. report for tensor-core
  GEMMs).

The overlap coefficient is the one calibration constant (EXPERIMENTS.md
records the calibration); everything else follows from Table III.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.gpu.config import GPUConfig, TITAN_V
from repro.gpu.stats import LayerStats

#: Fraction of non-dominant resource time not hidden under the
#: dominant resource (0 = perfect overlap / pure roofline, 1 = fully
#: serialised).  Calibrated against the paper's baseline-vs-Duplo
#: deltas; see EXPERIMENTS.md.
DEFAULT_OVERLAP = 0.35

#: Outstanding memory requests one warp sustains (MSHR depth share).
INFLIGHT_PER_WARP = 4.0

#: Fixed per-kernel overhead (launch + drain), cycles.
KERNEL_OVERHEAD_CYCLES = 2000.0


@dataclass(frozen=True)
class TimingModel:
    """Cycle estimator with an explicit component breakdown."""

    gpu: GPUConfig = TITAN_V
    overlap: float = DEFAULT_OVERLAP
    inflight_per_warp: float = INFLIGHT_PER_WARP
    detection_latency: int = 2

    def components(
        self, stats: LayerStats, concurrent_warps: int, busy_sms: int
    ) -> Dict[str, float]:
        """Per-resource cycle totals for one SM's share of the layer."""
        gpu = self.gpu
        compute = stats.mma_ops * gpu.mma_macs / gpu.macs_per_sm_cycle

        issued = stats.loads_total - stats.eliminated_fragments
        fragment_cycles = gpu.frag_bytes / gpu.bytes_per_ldst_cycle
        # An eliminated warp-level load still spends one issue slot
        # (renaming) per fragment tile (``tile_m`` fragments on the A
        # side) but moves no data.
        ldst = issued * fragment_cycles
        ldst += stats.eliminated_fragments * (
            gpu.eliminated_load_cycles / gpu.tile_m
        )

        l2_bytes = stats.l2_accesses * gpu.l2_line_bytes
        l2 = l2_bytes / gpu.l2_bytes_per_sm_cycle

        dram_share = gpu.dram_bytes_per_cycle / max(1, min(busy_sms, gpu.num_sms))
        dram = (stats.dram_read_bytes + stats.dram_write_bytes) / dram_share

        l2_hits = stats.l2_hits
        dram_reads = stats.l2_accesses - stats.l2_hits
        total_latency = l2_hits * gpu.l2_latency + dram_reads * (
            gpu.l2_latency + gpu.dram_latency
        )
        # A detection unit slower than the baseline 2 cycles (Section
        # IV-A's 3-cycle sensitivity case, ~0.9% in the paper) delays
        # every LHB lookup's critical path.
        total_latency += stats.lhb_lookups * max(0, self.detection_latency - 2)
        inflight = max(1.0, concurrent_warps * self.inflight_per_warp)
        exposed = total_latency / inflight

        return {
            "compute": compute,
            "ldst": ldst,
            "l2": l2,
            "dram": dram,
            "exposed_latency": exposed,
        }

    def cycles(
        self, stats: LayerStats, concurrent_warps: int, busy_sms: int
    ) -> Tuple[float, Dict[str, float]]:
        """Estimated SM cycles plus the component breakdown."""
        comps = self.components(stats, concurrent_warps, busy_sms)
        bottleneck = max(comps.values())
        residual = sum(comps.values()) - bottleneck
        total = bottleneck + self.overlap * residual + KERNEL_OVERHEAD_CYCLES
        return total, comps

    def execution_time_ms(self, cycles: float) -> float:
        """Wall-clock milliseconds at the configured core clock."""
        return cycles / self.gpu.clock_hz * 1e3
