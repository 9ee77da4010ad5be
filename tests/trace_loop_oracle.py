"""Per-turn loop trace generator: the oracle of the columnar synthesizer.

:func:`generate_sm_trace_loop` walks the scheduler's greedy-then-oldest
turns and emits each warp's fragment bursts one at a time — the
direct, obviously-correct statement of the kernel model.  The
production generator (:class:`repro.gpu.kernel.TracePlan`) synthesizes
the same columns in closed form; ``tests/test_trace_gen.py`` checks
the two agree bit for bit.
"""

from typing import List, Optional

import numpy as np

from repro.conv.layer import ConvLayerSpec
from repro.gpu.config import (
    BASELINE_KERNEL,
    GPUConfig,
    KernelConfig,
    SimulationOptions,
    TITAN_V,
    validate_arch,
)
from repro.gpu.isa import (
    FILTER_BASE,
    KernelTrace,
    LOAD_A,
    LOAD_A_SHARED,
    LOAD_B,
    LOAD_B_SHARED,
    LOAD_INPUT,
    STORE_D,
)
from repro.gpu.kernel import (
    _CtaTemplates,
    _plan_cta,
    _stage_input_fragments,
    gemm_geometry,
    sm_cta_blocks,
)
from repro.gpu.scheduler import gto_turns, waves


class _TraceBuilder:
    """Accumulates parallel event arrays with running instruction IDs."""

    def __init__(self) -> None:
        self._kind: List[np.ndarray] = []
        self._address: List[np.ndarray] = []
        self._warp: List[np.ndarray] = []
        self._instr: List[np.ndarray] = []
        self.next_instr = 0

    def emit(
        self,
        kind: int,
        addresses: np.ndarray,
        warp: int,
        groups: Optional[np.ndarray] = None,
        num_instrs: Optional[int] = None,
    ) -> None:
        """Append one burst.

        ``groups`` assigns fragments to instructions relative to the
        running counter; without it, every fragment is its own
        instruction (cooperative staging / stores).
        """
        n = len(addresses)
        if n == 0:
            return
        if groups is None:
            groups = np.arange(n, dtype=np.int64)
            num_instrs = n
        self._kind.append(np.full(n, kind, dtype=np.uint8))
        self._address.append(np.asarray(addresses, dtype=np.int64))
        self._warp.append(np.full(n, warp, dtype=np.int32))
        self._instr.append(groups + self.next_instr)
        self.next_instr += num_instrs

    def arrays(self):
        empty_i64 = np.empty(0, dtype=np.int64)
        return (
            np.concatenate(self._kind) if self._kind else np.empty(0, np.uint8),
            np.concatenate(self._address) if self._address else empty_i64,
            np.concatenate(self._warp) if self._warp else np.empty(0, np.int32),
            np.concatenate(self._instr) if self._instr else empty_i64,
        )


def generate_sm_trace_loop(
    spec: ConvLayerSpec,
    gpu: GPUConfig = TITAN_V,
    kernel: KernelConfig = BASELINE_KERNEL,
    options: SimulationOptions = SimulationOptions(),
) -> KernelTrace:
    """Per-turn event-loop trace generator (the differential oracle).

    Emits one SM's trace burst by burst, turn by turn, exactly as the
    scheduler issues it.  :func:`repro.gpu.kernel.generate_sm_trace`
    must reproduce this trace bit-identically for every configuration.
    """
    validate_arch(gpu, kernel)
    geom = gemm_geometry(spec, gpu)
    blocks, total_ctas = sm_cta_blocks(geom, kernel, gpu, options.representative_sm)
    assigned = len(blocks)
    if options.max_ctas is not None:
        blocks = blocks[: options.max_ctas]

    concurrency = kernel.ctas_per_sm(gpu)
    k_steps = geom.k_steps
    templates = _CtaTemplates(geom, gpu)
    plans_per_block = [
        _plan_cta(geom, kernel, gpu, m, n, templates) for m, n in blocks
    ]
    mma_ops = sum(
        p.mma_per_step * k_steps for plans in plans_per_block for p in plans
    )

    kind_a = LOAD_A_SHARED if kernel.implicit else LOAD_A
    kind_b = LOAD_B_SHARED if kernel.implicit else LOAD_B
    stage_steps = max(1, kernel.stage_k // gpu.tile_k)

    builder = _TraceBuilder()
    runahead = max(1, kernel.warp_runahead)
    wave_starts = range(0, len(blocks), concurrency)
    for wave_start, wave in zip(wave_starts, waves(plans_per_block, concurrency)):
        staged_through = [0] * len(wave)  # per-CTA staged k-step horizon
        # GTO: each scheduling turn a warp greedily issues `runahead`
        # k-steps of loads before the scheduler moves on.
        for turn in gto_turns(len(wave), kernel.warps_per_cta, k_steps, runahead):
            cta_index = wave_start + turn.cta_index
            plan = wave[turn.cta_index][turn.warp]
            wid = cta_index * kernel.warps_per_cta + turn.warp
            if kernel.implicit and turn.warp == 0:
                # The CTA's cooperative stage runs ahead of its warps.
                while staged_through[turn.cta_index] < turn.k_end:
                    s0 = staged_through[turn.cta_index]
                    s1 = min(s0 + stage_steps, k_steps)
                    m_blk, n_blk = blocks[cta_index]
                    builder.emit(
                        LOAD_INPUT,
                        _stage_input_fragments(
                            spec,
                            geom,
                            (m_blk * kernel.cta_tile_m,
                             (m_blk + 1) * kernel.cta_tile_m),
                            (s0 * gpu.tile_k, s1 * gpu.tile_k),
                            gpu,
                        ),
                        wid,
                    )
                    # B chunk staged cooperatively: one global fetch
                    # per filter column fragment, no octet dup.
                    n_cols = np.arange(
                        n_blk * kernel.cta_tile_n,
                        min((n_blk + 1) * kernel.cta_tile_n, geom.n),
                    )
                    k_offsets = np.arange(s0, s1) * gpu.frag_bytes
                    b_stage = (
                        FILTER_BASE
                        + (n_cols[:, None] * (geom.ldb * gpu.element_bytes)
                           + k_offsets[None, :]).ravel()
                    )
                    builder.emit(LOAD_B, b_stage, wid)
                    staged_through[turn.cta_index] = s1
            for t in range(turn.k_start, turn.k_end):
                step = gpu.frag_bytes * t
                builder.emit(
                    kind_a, plan.a_base + step, wid, plan.a_group, plan.a_instrs
                )
                builder.emit(
                    kind_b, plan.b_base + step, wid, plan.b_group, plan.b_instrs
                )
        for cta_slot, plans in enumerate(wave):
            for w, plan in enumerate(plans):
                wid = (wave_start + cta_slot) * kernel.warps_per_cta + w
                builder.emit(STORE_D, plan.store_addr, wid)

    kind, address, warp, instr = builder.arrays()
    return KernelTrace(
        kind=kind,
        address=address,
        warp=warp,
        instr=instr,
        mma_ops=mma_ops,
        traced_ctas=len(blocks),
        total_ctas=assigned,
        grid_ctas=total_ctas,
        lda=geom.lda,
        ldb=geom.ldb,
        ldd=geom.ldd,
        concurrent_warps=min(concurrency, max(assigned, 1)) * kernel.warps_per_cta,
    )
