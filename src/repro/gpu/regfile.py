"""Register file occupancy (Section II-B).

Quantifies the *dual-copy pressure* of Section II-B: each octet keeps
its own copy of shared fragments, doubling the registers a warp spends
on A/B operands, which is what Duplo's warp-register sharing gives
back.  Register-file access energy lives in
:class:`repro.energy.model.EnergyModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.config import GPUConfig, KernelConfig, TITAN_V, BASELINE_KERNEL
from repro.gpu.kernel import OCTET_DUPLICATION

#: One warp-wide register: 32 threads x 32 bits.
WARP_REGISTER_BYTES = 128


@dataclass(frozen=True)
class RegisterFileModel:
    """Occupancy arithmetic for the SM register file."""

    gpu: GPUConfig = TITAN_V
    kernel: KernelConfig = BASELINE_KERNEL

    @property
    def warp_registers_per_sm(self) -> int:
        """2048 warp-wide registers for the 256 KB Table III file."""
        return self.gpu.regfile_bytes_per_sm // WARP_REGISTER_BYTES

    def operand_registers_per_warp(self, runahead_steps: int = 1) -> int:
        """Warp registers a warp's in-flight A/B fragments occupy.

        Per k-step a warp holds its A and B tiles once per octet copy
        (the dual-load doubles the footprint, Section II-B).  The A
        side carries ``tile_m`` fragments per tile, the B side
        ``tile_n``; either way the rows held per warp equal the warp
        tile edge, at ``frag_bytes`` each.
        """
        rows = self.kernel.warp_tile_m + self.kernel.warp_tile_n
        frags = rows * OCTET_DUPLICATION
        bytes_per_step = frags * self.gpu.frag_bytes
        return runahead_steps * bytes_per_step // WARP_REGISTER_BYTES

    def duplication_overhead(self) -> float:
        """Fraction of operand registers holding octet dual copies."""
        return (OCTET_DUPLICATION - 1) / OCTET_DUPLICATION
