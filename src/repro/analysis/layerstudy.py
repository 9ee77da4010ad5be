"""Layer dossier: everything the library knows about one layer.

Combines geometry, the duplicate census, roofline placement, the
simulated baseline/Duplo comparison, and energy accounting into one
structured report — the "why does Duplo help (or not) on *this*
layer" tool, exposed as ``python -m repro inspect NETWORK LAYER``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.duplication import DuplicationCensus, duplication_census
from repro.analysis.roofline import RooflinePoint, roofline_point
from repro.conv.layer import ConvLayerSpec
from repro.energy.model import DEFAULT_ENERGY, on_chip_energy_reduction
from repro.gpu.config import (
    BASELINE_KERNEL,
    GPUConfig,
    KernelConfig,
    SimulationOptions,
    TITAN_V,
)
from repro.gpu.simulator import EliminationMode, LayerResult, simulate_layer


@dataclass(frozen=True)
class LayerDossier:
    """Full characterisation of one layer under Duplo."""

    spec: ConvLayerSpec
    census: DuplicationCensus
    roofline: RooflinePoint
    baseline: LayerResult
    duplo: LayerResult
    energy_reduction: float

    @property
    def improvement(self) -> float:
        return self.duplo.speedup_over(self.baseline) - 1

    @property
    def verdict(self) -> str:
        """One-line diagnosis of where this layer's benefit comes from."""
        if self.census.duplicate_fraction < 0.3:
            return (
                "little duplication to mine: lowering barely replicates "
                "this geometry"
            )
        if not self.roofline.memory_bound:
            return (
                "duplication exists but the layer is compute-bound: "
                "eliminated traffic hides behind the tensor cores"
            )
        if self.duplo.stats.lhb_hit_rate < 0.5 * (
            self.duplo.stats.theoretical_hit_limit or 1
        ):
            return (
                "duplicates recur beyond the LHB's reach: a larger buffer "
                "or longer register lifetimes would help"
            )
        return "memory-bound with reachable duplicates: Duplo's sweet spot"

    def summary(self) -> Dict[str, float]:
        """Flat metric dict (what the CLI prints)."""
        return {
            "duplication_factor": self.spec.duplication_factor,
            "duplicate_fraction": self.census.duplicate_fraction,
            "intra_patch_share": self.census.intra_patch / self.census.total,
            "inter_patch_share": self.census.inter_patch / self.census.total,
            "arithmetic_intensity": self.roofline.arithmetic_intensity,
            "memory_bound": float(self.roofline.memory_bound),
            "lhb_hit_rate": self.duplo.stats.lhb_hit_rate,
            "theoretical_hit_limit": self.duplo.stats.theoretical_hit_limit,
            "eliminated_load_fraction": self.duplo.stats.elimination_rate,
            "dram_read_reduction": 1
            - self.duplo.stats.dram_read_bytes
            / max(self.baseline.stats.dram_read_bytes, 1),
            "improvement": self.improvement,
            "on_chip_energy_reduction": self.energy_reduction,
        }


def study_layer(
    spec: ConvLayerSpec,
    lhb_entries: Optional[int] = 1024,
    options: SimulationOptions = SimulationOptions(),
    gpu: GPUConfig = TITAN_V,
    kernel: KernelConfig = BASELINE_KERNEL,
) -> LayerDossier:
    """Build the dossier for one layer.

    The census runs on the single-image variant (duplication is
    batch-invariant; see ``tests/test_duplication.py``) to keep the
    exact enumeration cheap.  ``gpu``/``kernel`` select the machine
    model (pass an :data:`repro.gpu.config.ARCHS` preset's pair for a
    non-Volta dossier) for the simulations and the roofline; the
    census stays geometry-level.
    """
    census = duplication_census(spec.with_batch(1))
    point = roofline_point(spec, gpu)
    baseline = simulate_layer(
        spec, EliminationMode.BASELINE, gpu=gpu, kernel=kernel,
        options=options,
    )
    duplo = simulate_layer(
        spec, EliminationMode.DUPLO, lhb_entries=lhb_entries, gpu=gpu,
        kernel=kernel, options=options,
    )
    energy = on_chip_energy_reduction(
        DEFAULT_ENERGY.breakdown(baseline.stats),
        DEFAULT_ENERGY.breakdown(duplo.stats),
    )
    return LayerDossier(
        spec=spec,
        census=census,
        roofline=point,
        baseline=baseline,
        duplo=duplo,
        energy_reduction=energy,
    )
