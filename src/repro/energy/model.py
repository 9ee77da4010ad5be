"""Event-energy and area models standing in for McPAT (Section V-H).

The paper assesses Duplo with McPAT and reports, for on-chip
components only (register file, caches, detection unit), a 34.1%
energy reduction at 0.77% of the register file's area.  We charge
McPAT/CACTI-class per-access energies to the event counts the
simulator measures:

* every load that *issues* writes its fragment into the register file
  and accesses the L1; an LHB-eliminated load spends only the LHB
  lookup and a renaming-table update — **but** the L1 is charged for
  every lookup regardless, because Duplo probes LHB and L1 in
  parallel to hide latency ("except for the L1 cache since Duplo
  simultaneously looks up both", Section V-H);
* L2 accesses and DRAM bytes are charged per event/byte; DRAM is
  off-chip and reported separately from the paper's on-chip delta.

The area model compares the LHB's SRAM bits against the 256 KB
register file, whose multi-ported cells are denser per bit of storage
but larger per bit of area; the cell-area ratio is the one calibrated
constant (EXPERIMENTS.md).  :meth:`AreaModel.tag_bits` is the one
derivation of the LHB's stored tag width, and :class:`EnergyModel`'s
``rf_write_pj``/``rf_read_pj`` are the one register-file energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.config import GPUConfig, TITAN_V
from repro.gpu.stats import LayerStats


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energies in picojoules (McPAT/CACTI-class values)."""

    #: Register-file write of one 32-byte fragment: 29 pJ per
    #: 128-byte warp register, scaled to the fragment (29 * 32 / 128).
    rf_write_pj: float = 7.25
    #: Register-file read of one fragment (MMA operand fetch):
    #: 27 pJ per warp register (27 * 32 / 128).
    rf_read_pj: float = 6.75
    #: L1 tag/directory probe — spent for *every* lookup, including
    #: LHB hits, because Duplo probes L1 and LHB in parallel ("except
    #: for the L1 cache since Duplo simultaneously looks up both").
    l1_tag_pj: float = 12.0
    #: L1 data-array access — the cancel signal on an LHB hit arrives
    #: before the data read, so eliminated loads save this part.
    l1_data_pj: float = 48.0
    #: One L2 access (4.5 MB bank access + NoC hop).
    l2_access_pj: float = 240.0
    #: One shared-memory fragment access (implicit GEMM).
    shared_access_pj: float = 20.0
    #: One LHB lookup (1024 x 53-bit direct-mapped SRAM).
    lhb_access_pj: float = 1.5
    #: ID generation (shift/mask network) per lookup.
    idgen_pj: float = 0.5
    #: Renaming-table update per eliminated load.
    rename_pj: float = 2.0
    #: DRAM access energy per byte (HBM2-class, off-chip).
    dram_pj_per_byte: float = 32.0

    def breakdown(self, stats: LayerStats) -> "EnergyBreakdown":
        """Energy for one layer run (baseline runs have zero LHB terms)."""
        issued = stats.loads_total - stats.eliminated_fragments
        l1_probes = stats.l1_accesses + stats.eliminated_fragments
        components = {
            # Operand reads happen for every fragment the MMAs consume,
            # eliminated or not — renamed registers are still read.
            "rf_read": stats.loads_total * self.rf_read_pj,
            "rf_write": issued * self.rf_write_pj,
            "l1": l1_probes * self.l1_tag_pj
            + stats.l1_accesses * self.l1_data_pj,
            "l2": stats.l2_accesses * self.l2_access_pj,
            "shared": stats.shared_accesses * self.shared_access_pj,
            "lhb": stats.lhb_lookups * (self.lhb_access_pj + self.idgen_pj),
            "rename": stats.lhb_hits * self.rename_pj,
            "dram": (stats.dram_read_bytes + stats.dram_write_bytes)
            * self.dram_pj_per_byte,
        }
        return EnergyBreakdown(picojoules=components)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-component energy of one simulated layer."""

    picojoules: Dict[str, float]

    #: Components counted as "on-chip" in the paper's 34.1% figure.
    ON_CHIP = ("rf_read", "rf_write", "l1", "l2", "shared", "lhb", "rename")

    @property
    def on_chip_pj(self) -> float:
        return sum(self.picojoules[k] for k in self.ON_CHIP)

    @property
    def total_pj(self) -> float:
        return sum(self.picojoules.values())

    def merge(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        keys = set(self.picojoules) | set(other.picojoules)
        return EnergyBreakdown(
            picojoules={
                k: self.picojoules.get(k, 0.0) + other.picojoules.get(k, 0.0)
                for k in keys
            }
        )


def on_chip_energy_reduction(
    baseline: EnergyBreakdown, duplo: EnergyBreakdown
) -> float:
    """Fractional on-chip energy saving (the paper's 34.1% metric)."""
    if baseline.on_chip_pj <= 0:
        raise ValueError("baseline on-chip energy must be positive")
    return 1.0 - duplo.on_chip_pj / baseline.on_chip_pj


@dataclass(frozen=True)
class AreaModel:
    """LHB area relative to the SM register file (Section V-H)."""

    gpu: GPUConfig = TITAN_V
    #: Tag field widths: the stored tag is the element ID above the
    #: set-index bits, plus explicit batch-ID and PID fields.
    element_id_bits: int = 32
    batch_bits: int = 10
    pid_bits: int = 10
    #: Payload: 10-bit physical register ID + valid.
    payload_bits: int = 11
    #: Area of one multi-ported register-file cell relative to one
    #: single-ported SRAM cell (calibrated to the paper's 0.77%).
    rf_cell_area_ratio: float = 3.49
    #: ID generator + control overhead on top of the raw LHB array.
    idgen_area_equiv_bits: int = 2048

    @classmethod
    def for_arch(cls, gpu: GPUConfig) -> "AreaModel":
        """Area model sized for one architecture preset.

        WIR element IDs are fragment-aligned address shifts
        (``addr >> frag_shift``), so halving the fragment below
        Volta's 32 bytes widens the element-ID space by one bit per
        halving; wider fragments never shrink it below the canonical
        32-bit field.  The register-file denominator comes from the
        preset's own ``regfile_bytes_per_sm``.
        """
        element_bits = 32 + max(0, 5 - gpu.frag_shift)
        return cls(gpu=gpu, element_id_bits=element_bits)

    def tag_bits(self, entries: Optional[int] = 1024, assoc: int = 1) -> int:
        """Stored tag width for a given LHB organisation.

        Set-index bits come free, batch and PID fields are stored
        whole.  The paper's 1024-entry direct-mapped default gives 42.
        The oracle (``entries=None``) has no physical storage, and a
        geometry :class:`~repro.core.lhb.LoadHistoryBuffer` rejects
        raises its ``ValueError``.
        """
        if entries is None or entries < 1:
            raise ValueError(
                f"LHB storage needs entries >= 1 (an oracle LHB has no "
                f"physical storage), got {entries}"
            )
        num_sets = LoadHistoryBuffer(num_entries=entries, assoc=assoc).num_sets
        index_bits = max(0, num_sets.bit_length() - 1)
        return (self.element_id_bits - index_bits) + self.batch_bits + self.pid_bits

    def lhb_bits(self, entries: int = 1024, assoc: int = 1) -> int:
        return entries * (self.tag_bits(entries, assoc) + self.payload_bits)

    def regfile_bits(self) -> int:
        return self.gpu.regfile_bytes_per_sm * 8

    def area_overhead(self, entries: int = 1024) -> float:
        """Detection-unit area as a fraction of register-file area."""
        lhb_area = self.lhb_bits(entries) + self.idgen_area_equiv_bits
        rf_area = self.regfile_bits() * self.rf_cell_area_ratio
        return lhb_area / rf_area


#: Default instances used by the analysis harness.
DEFAULT_ENERGY = EnergyModel()
DEFAULT_AREA = AreaModel()
