"""Roofline analysis: why tensor-core GEMMs are memory-bound.

Section II-C cites Yan et al. [45]: "GEMM operations using tensor
cores are memory-bounded, and thus provisioning a sufficient degree
of TLP is essential".  This module quantifies that premise for any
layer: its lowered GEMM's arithmetic intensity against the machine's
compute/bandwidth balance, under both explicit-workspace and
implicit (unique-data) traffic assumptions.  Duplo's entire value
proposition — eliminating loads buys real time — holds exactly when
the explicit-GEMM point sits under the roofline's bandwidth slope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.conv.gemm import explicit_gemm_footprint, implicit_gemm_footprint
from repro.conv.layer import ConvLayerSpec
from repro.gpu.config import GPUConfig, TITAN_V


@dataclass(frozen=True)
class RooflinePoint:
    """One layer's position against the machine roofline."""

    layer: str
    arithmetic_intensity: float  # FLOPs per DRAM byte
    machine_balance: float  # FLOPs per byte at which compute == memory
    attainable_tflops: float
    peak_tflops: float

    @property
    def memory_bound(self) -> bool:
        return self.arithmetic_intensity < self.machine_balance

    @property
    def utilisation_bound(self) -> float:
        """Fraction of peak compute the memory system permits."""
        return min(1.0, self.arithmetic_intensity / self.machine_balance)


def roofline_point(
    spec: ConvLayerSpec,
    gpu: GPUConfig = TITAN_V,
    implicit: bool = False,
) -> RooflinePoint:
    """Place one layer's lowered GEMM on the machine roofline.

    ``implicit=False`` charges the explicit workspace traffic (what
    the paper's baseline kernel streams); ``implicit=True`` charges
    only the unique data (the best any deduplication could reach).
    The peak is the preset's tensor-core rate, ``macs_per_sm_cycle``
    MACs (two FLOPs each) per SM per cycle across ``num_sms`` SMs.
    """
    peak = 2 * gpu.macs_per_sm_cycle * gpu.num_sms * gpu.clock_hz / 1e12
    bw_gbps = gpu.dram_bandwidth_gbps
    balance = peak * 1e12 / (bw_gbps * 1e9)

    footprint = (
        implicit_gemm_footprint(spec) if implicit
        else explicit_gemm_footprint(spec)
    )
    intensity = spec.gemm_shape.flops / footprint.total_bytes
    attainable = min(peak, intensity * bw_gbps / 1e3)
    return RooflinePoint(
        layer=spec.qualified_name,
        arithmetic_intensity=intensity,
        machine_balance=balance,
        attainable_tflops=attainable,
        peak_tflops=peak,
    )


def roofline_table(
    specs: Sequence[ConvLayerSpec],
    gpu: GPUConfig = TITAN_V,
) -> List[dict]:
    """Explicit vs. implicit roofline rows for a layer set."""
    rows = []
    for spec in specs:
        explicit = roofline_point(spec, gpu, implicit=False)
        implicit = roofline_point(spec, gpu, implicit=True)
        rows.append(
            {
                "layer": spec.qualified_name,
                "explicit_intensity": explicit.arithmetic_intensity,
                "implicit_intensity": implicit.arithmetic_intensity,
                "machine_balance": explicit.machine_balance,
                "explicit_memory_bound": explicit.memory_bound,
                "dedup_headroom": (
                    implicit.utilisation_bound / explicit.utilisation_bound
                ),
            }
        )
    return rows
