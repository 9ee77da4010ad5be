"""Register file occupancy and access accounting.

Two roles:

* quantify the *dual-copy pressure* of Section II-B (each octet keeps
  its own copy of shared fragments, doubling the registers a warp
  spends on A/B operands) — and how much of it Duplo's warp-register
  sharing gives back;
* supply the access counts (reads/writes per fragment) the energy
  model charges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.config import GPUConfig, KernelConfig, TITAN_V, BASELINE_KERNEL
from repro.gpu.kernel import OCTET_DUPLICATION

#: One warp-wide register: 32 threads x 32 bits.
WARP_REGISTER_BYTES = 128

#: Registers one tensor-core load fills per thread (16 halfs in eight
#: 32-bit registers across the octet pair — Section II-B).
REGS_PER_FRAGMENT = 8


@dataclass(frozen=True)
class RegisterFileModel:
    """Occupancy/access arithmetic for the SM register file."""

    gpu: GPUConfig = TITAN_V
    kernel: KernelConfig = BASELINE_KERNEL
    #: Access energies (pJ) per warp-register read/write — McPAT-class
    #: numbers for a large banked SRAM register file.
    read_energy_pj: float = 27.0
    write_energy_pj: float = 29.0

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

    def fragment_write_energy_pj(self) -> float:
        """Energy to write one loaded fragment into the register file."""
        return self.write_energy_pj * (self.gpu.frag_bytes / WARP_REGISTER_BYTES)

    def fragment_read_energy_pj(self) -> float:
        """Energy for the MMA to read one fragment back."""
        return self.read_energy_pj * (self.gpu.frag_bytes / WARP_REGISTER_BYTES)
