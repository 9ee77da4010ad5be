"""The LDST path: replaying a kernel trace through LHB and caches.

This is the simulator's hot loop.  For every load event:

1. **Duplo** mode — workspace (matrix A) loads consult the detection
   unit (ID generation + LHB, modelled here by precomputed vectorised
   IDs feeding the :class:`~repro.core.lhb.LoadHistoryBuffer`); a hit
   eliminates the memory request (served "by the LHB");
2. surviving loads probe the L1, then the L2 slice, then DRAM,
   accumulating the Figure 11 service breakdown and byte traffic.

**WIR** mode replaces the ID with the raw fragment address, modelling
Kim et al.'s warp-instruction-reuse comparison: only loads to the
*same* address can be eliminated (Section V-B's discussion of why
Duplo outperforms it).  **Baseline** mode skips elimination entirely.

Output (matrix D) stores are streaming (no cache allocation) and are
accounted as DRAM write traffic directly.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

from repro.conv.layer import ConvLayerSpec
from repro.core.compiler import build_convolution_info
from repro.core.idgen import IDGenerator
from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig, SimulationOptions, TITAN_V
from repro.gpu.isa import (
    KernelTrace,
    LOAD_A,
    LOAD_A_SHARED,
    LOAD_B,
    LOAD_B_SHARED,
    LOAD_INPUT,
    STORE_D,
    WORKSPACE_BASE,
)
from repro.gpu.stats import LayerStats, MemoryBreakdown


class EliminationMode(enum.Enum):
    """What sits in front of the memory hierarchy."""

    BASELINE = "baseline"
    DUPLO = "duplo"
    WIR = "wir"


def _load_ids(
    trace: KernelTrace,
    spec: ConvLayerSpec,
    options: SimulationOptions,
    mode: EliminationMode,
    load_kind: np.ndarray,
    load_addr: np.ndarray,
    gpu: GPUConfig = TITAN_V,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-load ``(consults_lhb, batch_id, element_id)`` arrays."""
    return load_ids_for(
        spec, options, mode, load_kind, load_addr, trace.lda, gpu
    )


def load_ids_for(
    spec: ConvLayerSpec,
    options: SimulationOptions,
    mode: EliminationMode,
    load_kind: np.ndarray,
    load_addr: np.ndarray,
    lda: int,
    gpu: GPUConfig = TITAN_V,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace-free twin of :func:`_load_ids`.

    Takes the load stream as plain arrays plus the workspace pitch so
    the fast replay's blockwise fold shares the exact consult
    semantics of the event replay (which ID generator, which loads
    consult, which fall through untranslated).  ``gpu`` supplies the fragment
    geometry: the WIR element shift and the workspace element width.
    """
    is_a = (load_kind == LOAD_A) | (load_kind == LOAD_A_SHARED)
    if mode is EliminationMode.WIR:
        # Same-address reuse: the "ID" is just the fragment address,
        # for both A and B loads (WIR is oblivious to workspaces).
        consults = np.ones(len(load_addr), dtype=bool)
        element = load_addr >> gpu.frag_shift  # fragment index
        batch = np.zeros(len(load_addr), dtype=np.int64)
        return consults, batch, element
    if mode is EliminationMode.BASELINE:
        zeros = np.zeros(len(load_addr), dtype=np.int64)
        return np.zeros(len(load_addr), dtype=bool), zeros, zeros

    info = build_convolution_info(spec, WORKSPACE_BASE, lda=lda, pid=options.pid)
    idgen = IDGenerator(
        spec=spec,
        workspace_base=info.workspace_base,
        lda=info.lda,
        element_bytes=gpu.element_bytes,
        mode=options.id_mode,
        merge_padding=options.merge_padding,
        row_align=gpu.tile_m,
    )
    consults = np.zeros(len(load_addr), dtype=bool)
    batch = np.zeros(len(load_addr), dtype=np.int64)
    element = np.zeros(len(load_addr), dtype=np.int64)
    if is_a.any():
        ok, b, e = idgen.generate_for_addresses(load_addr[is_a])
        consults[is_a] = ok
        batch[is_a] = b
        element[is_a] = e
    return consults, batch, element


def instruction_bases(trace: KernelTrace) -> np.ndarray:
    """Indices (into the trace) of each A-load instruction's base fragment.

    The base fragment's address is what the detection unit translates
    for the whole warp-level load in "instruction" granularity (one
    lookup per Table II row).
    """
    is_a = (trace.kind == LOAD_A) | (trace.kind == LOAD_A_SHARED)
    idx = np.nonzero(is_a)[0]
    if idx.size == 0:
        return idx
    ins = trace.instr[idx]
    first = np.ones(len(idx), dtype=bool)
    first[1:] = ins[1:] != ins[:-1]
    return idx[first]


def workspace_unique_ids(
    trace: KernelTrace,
    spec: ConvLayerSpec,
    options: SimulationOptions,
    gpu: GPUConfig = TITAN_V,
) -> Tuple[int, int]:
    """(lookups, distinct tags) across the trace's A loads.

    Feeds the theoretical hit-rate limit of Section V-C: the limit is
    one minus distinct-over-total at the LHB's lookup granularity.
    """
    is_a = (trace.kind == LOAD_A) | (trace.kind == LOAD_A_SHARED)
    if options.lhb_granularity == "fragment":
        bases = np.nonzero(is_a)[0]
    else:
        bases = instruction_bases(trace)
    if bases.size == 0:
        return 0, 0
    info = build_convolution_info(spec, WORKSPACE_BASE, lda=trace.lda, pid=options.pid)
    idgen = IDGenerator(
        spec=spec,
        workspace_base=info.workspace_base,
        lda=info.lda,
        element_bytes=gpu.element_bytes,
        mode=options.id_mode,
        merge_padding=options.merge_padding,
        row_align=gpu.tile_m,
    )
    ok, batch, element = idgen.generate_for_addresses(trace.address[bases])
    keys = batch[ok] * (1 << 44) + element[ok]
    uniques = int(np.unique(keys).size) + int((~ok).sum())
    return int(bases.size), uniques


def summarise_load_mix(
    trace: KernelTrace,
    spec: ConvLayerSpec,
    options: SimulationOptions,
    load_kind: np.ndarray,
    gpu: GPUConfig = TITAN_V,
) -> Tuple[int, int, int, int, int, int]:
    """Load/store mix counters shared by the event and fast paths.

    Returns ``(stores, loads_a, loads_b, loads_input, workspace
    instructions, unique workspace IDs)`` for the traced portion, so
    both replay implementations account the stream identically.
    """
    stores = int((trace.kind == STORE_D).sum())
    loads_a = int(
        ((load_kind == LOAD_A) | (load_kind == LOAD_A_SHARED)).sum()
    )
    loads_input = int((load_kind == LOAD_INPUT).sum())
    loads_b = len(load_kind) - loads_a - loads_input
    ws_instrs, unique_ids = workspace_unique_ids(trace, spec, options, gpu)
    return stores, loads_a, loads_b, loads_input, ws_instrs, unique_ids


def replay_trace(
    trace: KernelTrace,
    spec: ConvLayerSpec,
    gpu: GPUConfig = TITAN_V,
    options: SimulationOptions = SimulationOptions(),
    mode: EliminationMode = EliminationMode.DUPLO,
    lhb: Optional[LoadHistoryBuffer] = None,
) -> LayerStats:
    """Replay one SM's trace through the LHB and memory hierarchy.

    Returns SM-level, traced-portion statistics (the simulator
    extrapolates and attaches timing).  The L2 is modelled at full
    capacity against this SM's stream: for the shared operands
    (filters) every SM reads the same lines so one copy serves all,
    and the private workspace stream is far larger than any slice
    would hold anyway.

    This is the event-by-event reference oracle that
    :func:`repro.gpu.fastpath.replay_trace_fast` reproduces bit for
    bit; tests and benchmarks call it directly.
    """
    if mode is not EliminationMode.BASELINE and lhb is None:
        lhb = LoadHistoryBuffer(lifetime=options.lhb_lifetime)
    # Hits within a fill latency of the line's miss are MSHR merges
    # (Figure 8's MSHR; same traffic, different latency attribution).
    l1 = SetAssociativeCache(
        gpu.l1_bytes, gpu.l1_assoc, gpu.l1_line_bytes,
        mshr_window=gpu.l1_latency,
    )
    l2 = SetAssociativeCache(gpu.l2_bytes, gpu.l2_assoc, gpu.l2_line_bytes)

    is_load = trace.kind != STORE_D
    load_kind = trace.kind[is_load]
    load_addr = trace.address[is_load]
    consults, batch, element = _load_ids(
        trace, spec, options, mode, load_kind, load_addr, gpu
    )

    # Hot loop inputs as plain Python lists (fastest CPython iteration).
    consults_l = consults.tolist()
    batch_l = batch.tolist()
    element_l = element.tolist()
    lines_l = (load_addr >> l1.line_shift).tolist()
    instr_l = trace.instr[is_load].tolist()
    is_shared_l = (
        (load_kind == LOAD_A_SHARED) | (load_kind == LOAD_B_SHARED)
    ).tolist()

    served_lhb = 0
    served_l1 = 0
    served_l2 = 0
    served_dram = 0
    served_shared = 0
    line_bytes = gpu.l1_line_bytes
    dram_read_bytes = 0

    lhb_access = lhb.access if lhb is not None else None
    l1_access = l1.access
    l2_access = l2.access

    if options.lhb_granularity == "fragment":
        # One LHB lookup per 16-half tensor-core load (the paper's
        # load accounting and the element-level IDs of Section III).
        for i in range(len(load_kind)):
            if consults_l[i] and lhb_access(element_l[i], batch_l[i], i).hit:
                served_lhb += 1
                continue
            if is_shared_l[i]:
                served_shared += 1
                continue
            line = lines_l[i]
            if l1_access(line):
                served_l1 += 1
            elif l2_access(line):
                served_l2 += 1
            else:
                served_dram += 1
                dram_read_bytes += line_bytes
    else:
        # One LHB lookup per warp-level instruction (its base
        # fragment); the outcome applies to all fragments it covers.
        prev_instr = -1
        eliminated = False
        for i in range(len(load_kind)):
            ins = instr_l[i]
            if ins != prev_instr:
                prev_instr = ins
                eliminated = bool(
                    consults_l[i]
                    and lhb_access(element_l[i], batch_l[i], ins).hit
                )
            if eliminated:
                served_lhb += 1
                continue
            if is_shared_l[i]:
                served_shared += 1
                continue
            line = lines_l[i]
            if l1_access(line):
                served_l1 += 1
            elif l2_access(line):
                served_l2 += 1
            else:
                served_dram += 1
                dram_read_bytes += line_bytes

    stores, loads_a, loads_b, loads_input, ws_instrs, unique_ids = (
        summarise_load_mix(trace, spec, options, load_kind, gpu)
    )

    stats = LayerStats(
        loads_total=len(load_kind),
        loads_workspace=loads_a,
        loads_filter=loads_b,
        loads_input=loads_input,
        stores=stores,
        workspace_instructions=ws_instrs,
        lhb_lookups=lhb.stats.lookups if lhb is not None else 0,
        lhb_hits=lhb.stats.hits if lhb is not None else 0,
        eliminated_fragments=served_lhb,
        unique_workspace_ids=unique_ids,
        l1_accesses=l1.stats.accesses,
        l1_hits=l1.stats.hits,
        l2_accesses=l2.stats.accesses,
        l2_hits=l2.stats.hits,
        dram_read_bytes=dram_read_bytes,
        dram_write_bytes=stores * gpu.store_frag_bytes,
        mma_ops=trace.mma_ops,
        breakdown=MemoryBreakdown(
            lhb=served_lhb,
            l1=served_l1,
            l2=served_l2,
            dram=served_dram,
            shared=served_shared,
        ),
    )
    return stats
