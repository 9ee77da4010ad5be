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
import functools
from typing import Optional, Tuple

import numpy as np

from repro.conv.layer import ConvLayerSpec
from repro.core.idgen import IDGenerator, IDMode
from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig, SimulationOptions, TITAN_V
from repro.gpu.isa import (
    KernelTrace,
    LOAD_A,
    LOAD_A_SHARED,
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


def default_lhb(options: SimulationOptions) -> LoadHistoryBuffer:
    """The buffer a replay builds when given none: the default
    1024-entry direct-mapped LHB, under ``options``' retirement window
    and set index function."""
    return LoadHistoryBuffer(
        lifetime=options.lhb_lifetime, hashed_index=options.lhb_hashed_index
    )


def _workspace_idgen(
    spec: ConvLayerSpec,
    options: SimulationOptions,
    lda: int,
    gpu: GPUConfig = TITAN_V,
) -> IDGenerator:
    """The detection unit's workspace translator for one kernel.

    The one place the replay builds an :class:`IDGenerator`: the
    workspace sits at ``WORKSPACE_BASE`` with row pitch ``lda``, its
    elements are ``gpu.element_bytes`` wide and its rows pad to the
    fragment tile ``gpu.tile_m``; ``options`` picks the ID formula and
    padding merge.  Like the hardware unit it is programmed once per
    kernel: the generator (and its tables) is memoised on exactly
    these inputs, so every block of a fold and every replay of one
    trace share it.
    """
    return _programmed_idgen(
        spec, lda, gpu.element_bytes, gpu.tile_m,
        options.id_mode, options.merge_padding,
    )


@functools.lru_cache(maxsize=64)
def _programmed_idgen(
    spec: ConvLayerSpec,
    lda: int,
    element_bytes: int,
    row_align: int,
    id_mode: IDMode,
    merge_padding: bool,
) -> IDGenerator:
    return IDGenerator(
        spec=spec,
        workspace_base=WORKSPACE_BASE,
        lda=lda,
        element_bytes=element_bytes,
        mode=id_mode,
        merge_padding=merge_padding,
        row_align=row_align,
    )


def load_ids_for(
    spec: ConvLayerSpec,
    options: SimulationOptions,
    a_addr: np.ndarray,
    lda: int,
    gpu: GPUConfig = TITAN_V,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DUPLO's lookup key: ``(translated, batch_id, element_id)`` of the
    workspace (A) load addresses ``a_addr``, one entry per address.

    The detection unit translates only workspace loads (Section IV-A),
    so this is given only their addresses plus the workspace pitch;
    ``gpu`` supplies the workspace element width.  An address the
    translator does not map (``translated`` false) falls through to
    memory untranslated, and its IDs are undefined.
    """
    return _workspace_idgen(spec, options, lda, gpu).generate_for_addresses(
        a_addr
    )


def fragment_ids(
    load_addr: np.ndarray, gpu: GPUConfig = TITAN_V
) -> np.ndarray:
    """WIR's lookup key: each load's fragment index.

    Same-address reuse looks up every load, A and B alike (WIR is
    oblivious to workspaces), by its raw fragment address, in batch 0.
    """
    return load_addr >> gpu.frag_shift


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
    ok, batch, element = load_ids_for(
        spec, options, trace.address[bases], trace.lda, gpu
    )
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
        lhb = default_lhb(options)
    l1 = SetAssociativeCache(gpu.l1_bytes, gpu.l1_assoc, gpu.l1_line_bytes)
    l2 = SetAssociativeCache(gpu.l2_bytes, gpu.l2_assoc, gpu.l2_line_bytes)

    is_load = trace.kind != STORE_D
    load_kind = trace.kind[is_load]
    load_addr = trace.address[is_load]
    n = len(load_kind)
    # Per-load lookup keys: WIR looks up every load, DUPLO its
    # translated workspace loads, BASELINE nothing.
    consults = np.full(n, mode is EliminationMode.WIR)
    batch = np.zeros(n, dtype=np.int64)
    element = np.zeros(n, dtype=np.int64)
    if mode is EliminationMode.WIR:
        element = fragment_ids(load_addr, gpu)
    elif mode is EliminationMode.DUPLO:
        is_a = (load_kind == LOAD_A) | (load_kind == LOAD_A_SHARED)
        consults[is_a], batch[is_a], element[is_a] = load_ids_for(
            spec, options, load_addr[is_a], trace.lda, gpu
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
        for i in range(n):
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
        for i in range(n):
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
        loads_total=n,
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
