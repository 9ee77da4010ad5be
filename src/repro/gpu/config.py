"""Machine, kernel, and simulation configuration.

:data:`TITAN_V` transcribes Table III of the paper (the GPGPU-sim
"Titan V-like" baseline).  :class:`KernelConfig` fixes the
cudaTensorCoreGemm-style tiling the paper uses as its baseline GEMM
(Section II-C: only the C accumulator tile lives in shared memory, so
three CTAs fit per SM).  :class:`SimulationOptions` holds the
reproduction-side knobs DESIGN.md documents (representative-SM
sampling, CTA caps, ID mode).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core.idgen import IDMode


@dataclass(frozen=True)
class GPUConfig:
    """Table III baseline GPU plus derived timing constants.

    Timing constants beyond Table III (L2/DRAM bandwidth shares, LDST
    issue costs) are Titan V-class numbers used by the analytic cycle
    model; see ``repro.gpu.timing`` for how each enters.

    The WMMA fragment geometry lives here rather than on
    :class:`KernelConfig` because the replay side (``ldst``,
    ``fastpath``, ``analytic``) receives only the GPU model: a
    warp-level MMA computes a ``tile_m x tile_n x tile_k`` product, an
    A fragment is one ``tile_k``-element operand row (``tile_m`` rows
    per tile), a B fragment one ``tile_k``-element operand column
    (``tile_n`` columns per tile), and a D store writes ``tile_m``
    rows of ``tile_n`` accumulators.  Volta's 16x16x16 fp16 shape is
    the default; Turing/Ampere/Hopper presets in :data:`ARCHS` narrow
    ``tile_n``/``tile_k`` and shrink ``element_bytes`` for INT8/FP8.
    """

    #: Preset name this configuration was built from ("volta" for the
    #: Table III default).  Serialised into runtime cache keys via
    #: :func:`repro.runtime.cachekey.canonical` like every other field.
    name: str = "volta"

    num_sms: int = 80
    clock_mhz: int = 1200
    max_ctas_per_sm: int = 32
    max_warps_per_sm: int = 64
    warp_schedulers_per_sm: int = 4
    tensor_cores_per_sm: int = 8
    regfile_bytes_per_sm: int = 256 * 1024
    shared_mem_bytes_per_sm: int = 96 * 1024

    # Caches (Table III: 128 KB unified L1/SM; 4.5 MB L2, 24-way).
    l1_bytes: int = 128 * 1024
    l1_assoc: int = 4
    l1_line_bytes: int = 128
    l1_latency: int = 28
    l2_bytes: int = 4608 * 1024
    l2_assoc: int = 24
    l2_line_bytes: int = 128
    l2_latency: int = 120

    # DRAM (Table III: 652.8 GB/s).
    dram_bandwidth_gbps: float = 652.8
    dram_latency: int = 220

    # Tensor cores: 8/SM, each 16 FEDPs doing a 4x4x4 MMA per cycle
    # -> 64 MACs/cycle/core (Section II-B).
    macs_per_tensor_core_cycle: int = 64

    # LDST path: a tensor-core load moves a 512-byte tile through a
    # 128 B/cycle pipe; an LHB-eliminated load spends one issue slot.
    ldst_units_per_sm: int = 4
    bytes_per_ldst_cycle: int = 128
    eliminated_load_cycles: int = 1

    # L2 bandwidth share per SM (Titan V-class ~2.1 TB/s aggregate).
    l2_bandwidth_bytes_per_cycle: float = 1750.0

    # Duplo detection unit (Section IV-A: two-cycle ID-gen + LHB, in
    # parallel with L1; three cycles costs ~0.9% — an ablation).
    detection_latency: int = 2

    # WMMA fragment geometry (Snippet 3's per-generation table).  A
    # warp MMA instruction computes tile_m x tile_n x tile_k;
    # element_bytes is the A/B operand width (fp16=2, int8/fp8=1) and
    # acc_bytes the accumulator width stored to D (fp32/int32=4).
    tile_m: int = 16
    tile_n: int = 16
    tile_k: int = 16
    element_bytes: int = 2
    acc_bytes: int = 4

    def __post_init__(self) -> None:
        if min(self.tile_m, self.tile_n, self.tile_k) <= 0:
            raise ValueError("WMMA tile dimensions must be positive")
        if self.element_bytes <= 0 or self.acc_bytes <= 0:
            raise ValueError("element/accumulator widths must be positive")
        frag = self.tile_k * self.element_bytes
        if frag & (frag - 1):
            raise ValueError(
                f"fragment size tile_k * element_bytes must be a power of "
                f"two (WIR element IDs are fragment-aligned address "
                f"shifts), got {frag}"
            )

    @property
    def clock_hz(self) -> float:
        return self.clock_mhz * 1e6

    @property
    def frag_bytes(self) -> int:
        """Bytes per tensor-core operand fragment (one k-depth row or
        column of a tile): ``tile_k * element_bytes`` — 32 on Volta."""
        return self.tile_k * self.element_bytes

    @property
    def frag_shift(self) -> int:
        """log2(frag_bytes): the address shift WIR uses as element ID."""
        return self.frag_bytes.bit_length() - 1

    @property
    def store_frag_bytes(self) -> int:
        """Bytes per D-store event (one accumulator row of a tile):
        ``tile_n * acc_bytes`` — 64 on Volta."""
        return self.tile_n * self.acc_bytes

    @property
    def mma_macs(self) -> int:
        """MACs per warp-level MMA instruction (4096 on Volta)."""
        return self.tile_m * self.tile_n * self.tile_k

    @property
    def dram_bytes_per_cycle(self) -> float:
        """Aggregate DRAM bytes per GPU clock."""
        return self.dram_bandwidth_gbps * 1e9 / self.clock_hz

    @property
    def dram_bytes_per_sm_cycle(self) -> float:
        """Per-SM share of DRAM bandwidth (representative-SM model)."""
        return self.dram_bytes_per_cycle / self.num_sms

    @property
    def l2_bytes_per_sm_cycle(self) -> float:
        """Per-SM share of L2 bandwidth."""
        return self.l2_bandwidth_bytes_per_cycle / self.num_sms

    @property
    def macs_per_sm_cycle(self) -> int:
        """Peak tensor-core MACs per SM per cycle (512 for Table III)."""
        return self.tensor_cores_per_sm * self.macs_per_tensor_core_cycle

    def scaled_l1(self, factor: float) -> "GPUConfig":
        """Cache-scaling variant (Section V-D's 16x L1 / 4x L2 study)."""
        return replace(self, l1_bytes=int(self.l1_bytes * factor))

    def scaled_l2(self, factor: float) -> "GPUConfig":
        return replace(self, l2_bytes=int(self.l2_bytes * factor))


#: The paper's baseline machine.
TITAN_V = GPUConfig()


@dataclass(frozen=True)
class KernelConfig:
    """cudaTensorCoreGemm-style tiling (Sections II-B/II-C).

    Defaults give the paper's baseline: a 128x64 CTA output tile whose
    fp32 C block occupies 32 KB of shared memory, so three CTAs fit in
    the 96 KB SM shared memory ("placing only C in the shared memory
    ... achieving 29.7% better performance").  Eight warps per CTA in
    a 4x2 grid each own a 32x32 output patch (2x2 wmma tiles on
    Volta); per ``tile_k``-deep k-step a warp issues its A/B fragment
    loads *twice* — once per octet — reproducing the dual-load
    behaviour of Section II-B.
    """

    #: Legacy square-tile edge retained for the Volta-era divisibility
    #: checks below.  The tile is *not* always square: trace planning
    #: and replay take their m/n/k decomposition from
    #: ``GPUConfig.tile_m/tile_n/tile_k`` (a warp tile of
    #: ``warp_tile_m x warp_tile_n`` holds ``warp_tile_m//tile_m`` x
    #: ``warp_tile_n//tile_n`` MMA tiles, each stepping ``tile_k`` deep
    #: per k-step).  Use :func:`validate_arch` to check a
    #: (GPU, kernel) pairing; this field only anchors the default
    #: Volta 16x16x16 shape.
    tile: int = 16
    cta_tile_m: int = 128
    cta_tile_n: int = 64
    warp_tile_m: int = 32
    warp_tile_n: int = 32
    octet_duplication: int = 2
    #: Which operands are staged in shared memory: subset of "abc".
    shared_operands: str = "c"
    #: cuDNN-style implicit GEMM (Section II-C): the workspace is
    #: expanded lazily into shared memory from the *unexpanded* input,
    #: so global traffic shrinks to the unique data while tensor-core
    #: loads hit shared memory (which Duplo can still filter — the
    #: Section V-D remark).  Requires A and B staged in shared.
    implicit: bool = False
    #: K-depth of the shared-memory staging chunk in implicit mode
    #: (the paper's 16 KB A stage = 128 rows x 64 halfs).
    stage_k: int = 64
    #: K-steps a warp issues per scheduling turn before the GTO
    #: scheduler switches away (greedy run-ahead: loads of later
    #: k-steps issue while earlier MMAs drain, until the scoreboard /
    #: register budget stalls the warp).  This is what brings a warp's
    #: own cross-k duplicate loads within LHB reach.
    warp_runahead: int = 32

    def __post_init__(self) -> None:
        if self.cta_tile_m % self.warp_tile_m or self.cta_tile_n % self.warp_tile_n:
            raise ValueError("warp tile must divide CTA tile")
        if self.warp_tile_m % self.tile or self.warp_tile_n % self.tile:
            raise ValueError("wmma tile must divide warp tile")
        if set(self.shared_operands) - set("abc"):
            raise ValueError(f"bad shared_operands {self.shared_operands!r}")
        if self.implicit and not {"a", "b"} <= set(self.shared_operands):
            raise ValueError("implicit GEMM stages A and B in shared memory")
        if self.stage_k % self.tile:
            raise ValueError("stage_k must be a multiple of the wmma tile")

    @property
    def warps_per_cta(self) -> int:
        return (self.cta_tile_m // self.warp_tile_m) * (
            self.cta_tile_n // self.warp_tile_n
        )

    @property
    def warp_tiles_m(self) -> int:
        return self.warp_tile_m // self.tile

    @property
    def warp_tiles_n(self) -> int:
        return self.warp_tile_n // self.tile

    def shared_mem_per_cta(self, gpu: Optional[GPUConfig] = None) -> int:
        """Shared-memory bytes one CTA occupies (Section II-C cases).

        A/B stage buffers at the operand width, accumulator tile at
        the accumulator width.  Implicit GEMM stages a ``stage_k``-deep
        workspace chunk (the paper's 16 KB A buffer); explicit staging
        double-buffers one k-step.  ``gpu`` supplies the element widths
        and k-step depth (Volta defaults when omitted).
        """
        if gpu is None:
            gpu = TITAN_V
        total = 0
        a_depth = self.stage_k if self.implicit else gpu.tile_k * 2
        if "a" in self.shared_operands:
            total += self.cta_tile_m * a_depth * gpu.element_bytes
        if "b" in self.shared_operands:
            total += a_depth * self.cta_tile_n * gpu.element_bytes
        if "c" in self.shared_operands:
            total += self.cta_tile_m * self.cta_tile_n * gpu.acc_bytes
        return total

    def ctas_per_sm(self, gpu: GPUConfig) -> int:
        """Concurrent CTAs per SM under the shared-memory limit."""
        by_shared = gpu.shared_mem_bytes_per_sm // max(self.shared_mem_per_cta(gpu), 1)
        by_warps = gpu.max_warps_per_sm // self.warps_per_cta
        return max(1, min(by_shared, by_warps, gpu.max_ctas_per_sm))


#: Baseline kernel (C-only-in-shared, three CTAs per SM).
BASELINE_KERNEL = KernelConfig()

#: cuDNN-style implicit GEMM kernel (Section II-C: a 16 KB A stage, a
#: B stage, and the 32 KB C accumulator leave room for only one CTA
#: per SM — the TLP shortfall the paper's baseline avoids).
IMPLICIT_KERNEL = KernelConfig(shared_operands="abc", implicit=True)


def validate_arch(gpu: GPUConfig, kernel: KernelConfig) -> None:
    """Check a (GPU, kernel) pairing is internally consistent.

    The warp tile must decompose into whole MMA fragment tiles and the
    implicit-GEMM stage depth into whole k-steps; trace planning
    assumes both.  Raises ``ValueError`` naming the violated
    constraint.
    """
    if kernel.warp_tile_m % gpu.tile_m:
        raise ValueError(
            f"warp_tile_m={kernel.warp_tile_m} is not divisible by the "
            f"{gpu.name!r} fragment tile_m={gpu.tile_m}"
        )
    if kernel.warp_tile_n % gpu.tile_n:
        raise ValueError(
            f"warp_tile_n={kernel.warp_tile_n} is not divisible by the "
            f"{gpu.name!r} fragment tile_n={gpu.tile_n}"
        )
    if kernel.stage_k % gpu.tile_k:
        raise ValueError(
            f"stage_k={kernel.stage_k} is not divisible by the "
            f"{gpu.name!r} fragment tile_k={gpu.tile_k}"
        )


@dataclass(frozen=True)
class ArchPreset:
    """A named architecture point: GPU model plus matching kernel.

    Construction asserts the pairing is consistent (warp tile divisible
    by fragment tile, stage depth divisible by ``tile_k``) so a preset
    can never describe a geometry the planner would mis-tile.
    """

    name: str
    description: str
    gpu: GPUConfig
    kernel: KernelConfig = BASELINE_KERNEL

    def __post_init__(self) -> None:
        if self.gpu.name != self.name:
            raise ValueError(
                f"preset {self.name!r} wraps a GPUConfig named "
                f"{self.gpu.name!r}; the names must match for cache keys"
            )
        validate_arch(self.gpu, self.kernel)


#: The architecture zoo (fragment shapes per SNIPPETS Snippet 3's
#: generation table; machine numbers are class-representative).  The
#: "volta" entry wraps :data:`TITAN_V` unchanged, so the default
#: remains bit-identical to the paper baseline.
ARCHS: Dict[str, ArchPreset] = {
    preset.name: preset
    for preset in (
        ArchPreset(
            name="volta",
            description="Titan V (Table III): 16x16x16 fp16 WMMA",
            gpu=TITAN_V,
        ),
        ArchPreset(
            name="turing",
            description="TU102-class: 16x8x8 fp16 MMA, GDDR6",
            gpu=GPUConfig(
                name="turing",
                num_sms=68,
                clock_mhz=1350,
                max_warps_per_sm=32,
                l1_bytes=96 * 1024,
                l2_bytes=5632 * 1024,
                shared_mem_bytes_per_sm=64 * 1024,
                dram_bandwidth_gbps=616.0,
                tile_m=16,
                tile_n=8,
                tile_k=8,
            ),
        ),
        ArchPreset(
            name="ampere",
            description="A100-class: 16x8x16 fp16 MMA, HBM2e",
            gpu=GPUConfig(
                name="ampere",
                num_sms=108,
                clock_mhz=1410,
                l1_bytes=192 * 1024,
                l2_bytes=40 * 1024 * 1024,
                shared_mem_bytes_per_sm=164 * 1024,
                dram_bandwidth_gbps=1555.0,
                tile_m=16,
                tile_n=8,
                tile_k=16,
            ),
        ),
        ArchPreset(
            name="ampere-int8",
            description="A100-class INT8: 16x8x32 int8 MMA, int32 accum",
            gpu=GPUConfig(
                name="ampere-int8",
                num_sms=108,
                clock_mhz=1410,
                l1_bytes=192 * 1024,
                l2_bytes=40 * 1024 * 1024,
                shared_mem_bytes_per_sm=164 * 1024,
                dram_bandwidth_gbps=1555.0,
                # INT8 path doubles per-core MAC throughput.
                macs_per_tensor_core_cycle=128,
                tile_m=16,
                tile_n=8,
                tile_k=32,
                element_bytes=1,
            ),
        ),
        ArchPreset(
            name="hopper-fp8",
            description="H100-class FP8: 16x8x32 e4m3 MMA, fp32 accum",
            gpu=GPUConfig(
                name="hopper-fp8",
                num_sms=132,
                clock_mhz=1590,
                l1_bytes=256 * 1024,
                l2_bytes=50 * 1024 * 1024,
                shared_mem_bytes_per_sm=228 * 1024,
                dram_bandwidth_gbps=3350.0,
                macs_per_tensor_core_cycle=256,
                tile_m=16,
                tile_n=8,
                tile_k=32,
                element_bytes=1,
            ),
        ),
    )
}

DEFAULT_ARCH = "volta"


def arch_names() -> Tuple[str, ...]:
    """Preset names in registry order (volta first)."""
    return tuple(ARCHS)


def get_arch(name: Optional[str] = None) -> ArchPreset:
    """Look up a preset by name.

    ``None`` resolves the default, honouring the ``REPRO_ARCH``
    environment variable (used by the CI arch-matrix lane to steer
    arch-parametrised tests).  Unknown names raise ``ValueError``
    listing the registry.
    """
    if name is None:
        name = os.environ.get("REPRO_ARCH", DEFAULT_ARCH)
    try:
        return ARCHS[name]
    except KeyError:
        raise ValueError(
            f"unknown arch preset {name!r}; choose from {sorted(ARCHS)}"
        ) from None


@dataclass(frozen=True)
class SimulationOptions:
    """Reproduction-side knobs (DESIGN.md section 5).

    ``max_ctas`` caps how many of the representative SM's CTAs are
    traced; rates from the traced prefix extrapolate to the full
    layer.  ``id_mode`` selects the identification formula; ``pid``
    feeds the LHB tag's process ID field.
    """

    max_ctas: Optional[int] = None
    id_mode: IDMode = IDMode.CANONICAL
    merge_padding: bool = False
    lhb_lifetime: Optional[int] = 4096
    lhb_hashed_index: bool = True
    #: LHB lookup granularity.  "fragment" consults the LHB once per
    #: 16-half tensor-core load (the paper's load accounting: ~6.8M
    #: loads for YOLO C2, Section IV-D, matches fragment counting);
    #: "instruction" consults once per 16x16-tile warp instruction
    #: (one lookup per Table II row) — the coarser ablation.
    lhb_granularity: str = "fragment"
    detection_latency: int = 2
    pid: int = 0
    representative_sm: int = 0
    #: Simulation engine tier — the one replay selector.  "auto" runs
    #: the vectorised fast replay unless ``REPRO_ENGINE=analytic``
    #: overrides it.  "analytic" answers covered configurations from
    #: the closed-form profile of :mod:`repro.analytic` — approximate
    #: traffic counters, exact LHB counters, no replay per geometry —
    #: and falls back to the fast replay where uncovered (counted under
    #: ``analytic.fallback``).  The field is normalised out of cache
    #: keys; the analytic tier is approximate and therefore never
    #: touches the result cache.
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.lhb_granularity not in ("fragment", "instruction"):
            raise ValueError(
                f"lhb_granularity must be 'fragment' or 'instruction', "
                f"got {self.lhb_granularity!r}"
            )
        if self.engine not in ("auto", "analytic"):
            raise ValueError(
                f"engine must be 'auto' or 'analytic', got {self.engine!r}"
            )
        if self.max_ctas is not None and self.max_ctas < 1:
            raise ValueError(f"max_ctas must be >= 1, got {self.max_ctas}")
        if self.representative_sm < 0:
            raise ValueError(
                f"representative_sm must be >= 0, got {self.representative_sm}"
            )
