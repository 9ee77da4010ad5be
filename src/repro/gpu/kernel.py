"""Tensor-core GEMM kernel model: the load/store trace of one SM.

Reimplements the structure of the paper's baseline kernel (NVIDIA SDK
``cudaTensorCoreGemm``, configured per Section II-C with only the C
accumulator in shared memory, three CTAs per SM):

* the GEMM grid is tiled into ``cta_tile_m x cta_tile_n`` CTA blocks;
  CTAs are numbered M-fastest and distributed to SMs round-robin
  (the representative-SM sampling of DESIGN.md);
* each CTA runs ``warps_per_cta`` warps in an (m x n) grid, each
  owning a ``warp_tile_m x warp_tile_n`` output patch;
* per ``tile_k``-deep k-step, a warp issues tensor-core loads for its
  A (workspace) and B (filter) fragments.  One event is one
  ``tile_k``-element fragment (``GPUConfig.frag_bytes`` — 32 bytes on
  Volta's 16x16x16 fp16 shape; narrower on the Turing/Ampere/Hopper
  presets); the *octet duplication* of Section II-B makes every
  fragment appear twice back-to-back;
* warps are interleaved greedily-then-oldest (one k-step burst per
  warp per round, oldest CTA first), which is how the loads of
  different warps interleave in front of the LHB;
* after the k-loop each warp stores its fp32 D tiles.

Matrix A (the lowered workspace) is row-major with leading dimension
``lda`` (K padded to ``tile_k``); matrix B is column-major (filters) so
a tensor-core "column of B" fragment is contiguous; D is row-major at
the accumulator width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.conv.layer import ConvLayerSpec
from repro.conv.lowering import entries_to_padded_flat, workspace_shape
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
    INPUT_BASE,
    KernelTrace,
    LOAD_A,
    LOAD_A_SHARED,
    LOAD_B,
    LOAD_B_SHARED,
    LOAD_INPUT,
    OUTPUT_BASE,
    STORE_D,
    TraceBlock,
    WORKSPACE_BASE,
)
from repro.gpu.scheduler import waves


def _align(x: int, a: int) -> int:
    return -(-x // a) * a


@dataclass(frozen=True)
class GemmGeometry:
    """Padded GEMM dimensions and allocation pitches for one layer.

    Padding follows the architecture's fragment tile: M to ``tile_m``,
    N to ``tile_n``, K to ``tile_k`` (square 16 on the Volta default).
    """

    m: int
    n: int
    k: int
    m_pad: int
    n_pad: int
    k_pad: int
    lda: int  # A row pitch (elements)
    ldb: int  # B column pitch (elements, column-major)
    ldd: int  # D row pitch (elements)
    tile_k: int = 16  # k-depth of one MMA step

    @property
    def k_steps(self) -> int:
        return self.k_pad // self.tile_k


def gemm_geometry(
    spec: ConvLayerSpec, gpu: GPUConfig = TITAN_V
) -> GemmGeometry:
    """Compute padded dimensions the kernel allocates for ``spec``."""
    rows, cols = workspace_shape(spec)
    g = spec.gemm_shape
    assert g.m == rows and g.k == cols
    return GemmGeometry(
        m=g.m,
        n=g.n,
        k=g.k,
        m_pad=_align(g.m, gpu.tile_m),
        n_pad=_align(g.n, gpu.tile_n),
        k_pad=_align(g.k, gpu.tile_k),
        lda=_align(g.k, gpu.tile_k),
        ldb=_align(g.k, gpu.tile_k),
        ldd=_align(g.n, gpu.tile_n),
        tile_k=gpu.tile_k,
    )


@dataclass(frozen=True)
class _WarpPlan:
    """Precomputed per-(CTA, warp) fragment address templates.

    A-fragment addresses at k-step t are ``a_base + frag_bytes * t``
    and B-fragment addresses ``b_base + frag_bytes * t`` (one k-step
    advances ``tile_k`` elements along both pitches — 32 bytes on
    Volta).  ``a_group`` / ``b_group`` assign each fragment to its
    warp-level instruction (one per MMA tile per octet copy); emission
    offsets them by a running global instruction counter.
    """

    a_base: np.ndarray
    b_base: np.ndarray
    a_group: np.ndarray
    b_group: np.ndarray
    a_instrs: int
    b_instrs: int
    store_addr: np.ndarray
    mma_per_step: int


class _CtaTemplates:
    """Memoised relative (base-0) fragment patterns shared across warps.

    A warp's valid tiles are fully determined by *how many* survive the
    guard (bases ``m0 + i*tile < limit`` form a prefix, since bases are
    increasing), so every per-warp array is an affine shift of a
    pattern keyed only by that count: fragment addresses shift by
    ``origin * pitch``, store addresses by
    ``(m0 * ldd + n0) * acc_bytes``, and the instruction groups are
    position-independent.  That collapses planning to one scalar-add
    per array instead of rebuilding arange/repeat products for every
    (CTA, warp).

    The two operand sides decompose differently on non-square
    architectures: an A tile spans ``tile_m`` workspace rows (one
    fragment per row), a B tile ``tile_n`` filter columns (one fragment
    per column), so :meth:`fragments` takes the per-side tile edge.
    """

    def __init__(self, geom: GemmGeometry, gpu: GPUConfig) -> None:
        self._geom = geom
        self._gpu = gpu
        self._frag: Dict[
            Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]
        ] = {}
        self._store: Dict[Tuple[int, int], np.ndarray] = {}

    def fragments(
        self, origin: int, tiles: int, limit: int, pitch: int, tile: int
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """``(addresses - base, groups, instrs, valid_tiles)`` for one side.

        ``tile`` is the side's fragment-tile edge (``tile_m`` for A,
        ``tile_n`` for B): both the per-tile stride along the operand
        extent and the number of fragments per tile.
        """
        valid = max(0, min(tiles, -(-(limit - origin) // tile)))
        key = (valid, pitch, tile)
        cached = self._frag.get(key)
        if cached is None:
            rows = (
                tile * np.arange(valid, dtype=np.int64)[:, None]
                + np.arange(tile, dtype=np.int64)
            )
            values = np.repeat(rows, 2, axis=0).reshape(-1)
            groups = np.repeat(
                np.arange(2 * valid, dtype=np.int64), tile
            )
            cached = (values * pitch, groups)
            self._frag[key] = cached
        rel_addr, groups = cached
        return origin * pitch + rel_addr, groups, 2 * valid, valid

    def stores(self, m0: int, n0: int, ta: int, tb: int) -> np.ndarray:
        """Store addresses for ``ta`` row-tiles x ``tb`` col-tiles.

        One event per accumulator row: ``tile_m`` rows per tile, each
        ``tile_n`` accumulators wide (``GPUConfig.store_frag_bytes``).
        """
        key = (ta, tb)
        rel = self._store.get(key)
        if rel is None:
            tile_m, tile_n = self._gpu.tile_m, self._gpu.tile_n
            acc = self._gpu.acc_bytes
            rows = (
                tile_m * np.arange(ta, dtype=np.int64)[:, None]
                + np.arange(tile_m, dtype=np.int64)
            )
            cols = tile_n * np.arange(tb, dtype=np.int64)
            rel = (
                (rows[:, None, :] * self._geom.ldd + cols[None, :, None])
                * acc
            ).reshape(-1)
            self._store[key] = rel
        return (
            OUTPUT_BASE
            + (m0 * self._geom.ldd + n0) * self._gpu.acc_bytes
            + rel
        )


def _plan_cta(
    geom: GemmGeometry,
    kernel: KernelConfig,
    gpu: GPUConfig,
    cta_m: int,
    cta_n: int,
    templates: Optional[_CtaTemplates] = None,
) -> List[_WarpPlan]:
    """Build per-warp address templates for the CTA at block (m, n)."""
    warps_n = kernel.cta_tile_n // kernel.warp_tile_n
    elem = gpu.element_bytes
    if templates is None:
        templates = _CtaTemplates(geom, gpu)
    plans = []
    for w in range(kernel.warps_per_cta):
        wm, wn = divmod(w, warps_n)
        m0 = cta_m * kernel.cta_tile_m + wm * kernel.warp_tile_m
        n0 = cta_n * kernel.cta_tile_n + wn * kernel.warp_tile_n

        a_rel, a_group, a_instrs, ta = templates.fragments(
            m0, kernel.warp_tile_m // gpu.tile_m, geom.m,
            geom.lda * elem, gpu.tile_m,
        )
        b_rel, b_group, b_instrs, tb = templates.fragments(
            n0, kernel.warp_tile_n // gpu.tile_n, geom.n,
            geom.ldb * elem, gpu.tile_n,
        )
        plans.append(
            _WarpPlan(
                a_base=WORKSPACE_BASE + a_rel,
                b_base=FILTER_BASE + b_rel,
                a_group=a_group,
                b_group=b_group,
                a_instrs=a_instrs,
                b_instrs=b_instrs,
                store_addr=templates.stores(m0, n0, ta, tb),
                mma_per_step=ta * tb,
            )
        )
    return plans


def sm_cta_blocks(
    geom: GemmGeometry,
    kernel: KernelConfig,
    gpu: GPUConfig,
    sm_index: int,
) -> Tuple[List[Tuple[int, int]], int]:
    """CTA blocks assigned to one SM, plus the total grid size.

    CTAs are numbered with the M block index fastest and handed to
    SMs round-robin, the dispatch order that puts neighbouring
    workspace rows on the same SM.
    """
    grid_m = -(-geom.m // kernel.cta_tile_m)
    grid_n = -(-geom.n // kernel.cta_tile_n)
    total = grid_m * grid_n
    blocks = [
        (cta % grid_m, cta // grid_m)
        for cta in range(sm_index, total, gpu.num_sms)
    ]
    return blocks, total


def _stage_input_fragments(
    spec: ConvLayerSpec,
    geom: GemmGeometry,
    row_range: Tuple[int, int],
    col_range: Tuple[int, int],
    gpu: GPUConfig = TITAN_V,
) -> np.ndarray:
    """Global input fetches staging one implicit-GEMM shared chunk.

    The chunk covers workspace rows ``row_range`` x columns
    ``col_range``; the cooperative copy fetches each *unique*
    fragment-sized block of the unexpanded NHWC input exactly once
    (padding positions are materialised as zeros without any fetch).
    """
    eff = spec.effective_spec()
    r0, r1 = row_range
    c0, c1 = col_range
    rows = np.arange(r0, min(r1, geom.m))
    cols = np.arange(c0, min(c1, geom.k))
    if rows.size == 0 or cols.size == 0:
        return np.empty(0, dtype=np.int64)
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    batch, element = entries_to_padded_flat(spec, rr.ravel(), cc.ravel())

    padded_w = eff.in_width + 2 * eff.pad
    py, rem = np.divmod(element, padded_w * eff.in_channels)
    px, ch = np.divmod(rem, eff.in_channels)
    iy = py - eff.pad
    ix = px - eff.pad
    interior = (
        (iy >= 0) & (iy < eff.in_height) & (ix >= 0) & (ix < eff.in_width)
    )
    flat = (
        ((batch * eff.in_height + iy) * eff.in_width + ix) * eff.in_channels
        + ch
    )
    frag = gpu.frag_bytes
    blocks = np.unique(flat[interior] * gpu.element_bytes // frag)
    return INPUT_BASE + blocks * frag


# ----------------------------------------------------------------------
# Closed-form columnar synthesis
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _WaveTemplates:
    """Per-(CTA, warp) burst templates of one wave, pooled for gathers.

    Pair ``q = cta_slot * warps_per_cta + warp`` owns the pool slice
    ``[start[q], start[q] + length[q])``: the warp's A fragments then
    its B fragments for one k-step, with the B instruction groups
    already offset by the warp's A instruction count — so one combined
    burst per (pair, k-step) advances the global instruction counter by
    exactly ``advance[q]``, reproducing the legacy A-emit-then-B-emit
    pair (including the n==0 early return: an empty side contributes
    zero length *and* zero advance).
    """

    addr: np.ndarray  # int64 pooled base addresses
    kind: np.ndarray  # uint8 pooled event kinds
    group: np.ndarray  # int64 pooled instruction groups
    start: np.ndarray  # int64 per-pair pool offset
    length: np.ndarray  # int64 per-pair pool length
    advance: np.ndarray  # int64 per-pair instruction advance per k-step
    step_bytes: int = 32  # address advance per k-step (frag_bytes)


def _wave_templates(
    wave: List[List[_WarpPlan]], kind_a: int, kind_b: int,
    step_bytes: int = 32,
) -> _WaveTemplates:
    addrs: List[np.ndarray] = []
    groups: List[np.ndarray] = []
    ab_lens: List[int] = []
    start: List[int] = []
    length: List[int] = []
    advance: List[int] = []
    off = 0
    for plans in wave:
        for plan in plans:
            la, lb = len(plan.a_base), len(plan.b_base)
            addrs.append(plan.a_base)
            addrs.append(plan.b_base)
            ab_lens.append(la)
            ab_lens.append(lb)
            groups.append(plan.a_group)
            groups.append(plan.b_group + plan.a_instrs)
            start.append(off)
            length.append(la + lb)
            advance.append(plan.a_instrs + plan.b_instrs)
            off += la + lb
    empty = np.empty(0, dtype=np.int64)
    kind_pattern = np.tile(
        np.asarray([kind_a, kind_b], dtype=np.uint8), max(len(start), 1)
    )[: len(ab_lens)]
    return _WaveTemplates(
        addr=np.concatenate(addrs) if addrs else empty,
        kind=np.repeat(kind_pattern, np.asarray(ab_lens, dtype=np.int64)),
        group=np.concatenate(groups) if groups else empty,
        start=np.asarray(start, dtype=np.int64),
        length=np.asarray(length, dtype=np.int64),
        advance=np.asarray(advance, dtype=np.int64),
        step_bytes=step_bytes,
    )


def _store_templates(wave: List[List[_WarpPlan]]) -> _WaveTemplates:
    """Pooled store-epilogue templates of one wave.

    Models the per-(CTA, warp) ``STORE_D`` bursts as a one-k-step span:
    every store fragment is its own instruction (``groups=None`` in the
    legacy emitter), so the group pool is a per-pair ``arange`` and the
    per-pair advance equals its burst length.  Feeding this through
    :func:`_span_columns` with ``k0=0, k1=1`` reproduces the legacy
    epilogue (pairs in CTA-slot-major, warp-minor order) in one chunk.
    """
    addrs = [plan.store_addr for plans in wave for plan in plans]
    length = np.asarray([len(a) for a in addrs], dtype=np.int64)
    start = np.zeros(len(addrs) + 1, dtype=np.int64)
    np.cumsum(length, out=start[1:])
    total = int(start[-1])
    empty = np.empty(0, dtype=np.int64)
    addr = np.concatenate(addrs) if addrs else empty
    group = np.arange(total, dtype=np.int64) - np.repeat(start[:-1], length)
    return _WaveTemplates(
        addr=addr,
        kind=np.full(total, STORE_D, dtype=np.uint8),
        group=group,
        start=start[:-1],
        length=length,
        advance=length,
    )


_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _span_views(
    out: Optional[_Columns], pos: int, total: int
) -> _Columns:
    """Destination columns for one span: views into ``out`` or fresh."""
    if out is None:
        return (
            np.empty(total, dtype=np.uint8),
            np.empty(total, dtype=np.int64),
            np.empty(total, dtype=np.int32),
            np.empty(total, dtype=np.int64),
        )
    return (
        out[0][pos:pos + total],
        out[1][pos:pos + total],
        out[2][pos:pos + total],
        out[3][pos:pos + total],
    )


def _uniform_span(
    tpl: _WaveTemplates,
    q0: int,
    q1: int,
    k0: int,
    k1: int,
    wave_base: int,
    next_instr: int,
    pool_len: int,
    advance: int,
    out: Optional[_Columns],
    pos: int,
) -> _Columns:
    """Broadcast synthesis for spans whose pairs share one burst shape.

    When every pair in ``[q0, q1)`` has the same pool length and
    instruction advance (the common case: interior CTAs of one layer
    are congruent), the span is a dense ``(pairs, k-steps, fragments)``
    broadcast — each column is one output-sized write with no gather,
    which is what buys the bulk of the vectorised generator's speedup.
    With ``out`` the writes land directly in the caller's preallocated
    columns (no per-span allocation, no concatenation pass).
    """
    nq = q1 - q0
    nt = k1 - k0
    total = nq * nt * pool_len
    p0 = int(tpl.start[q0])
    pool = slice(p0, p0 + nq * pool_len)
    addr2 = tpl.addr[pool].reshape(nq, pool_len)
    group2 = tpl.group[pool].reshape(nq, pool_len)
    step = tpl.step_bytes * np.arange(k0, k1, dtype=np.int64)
    base2 = (
        next_instr + advance * np.arange(nq * nt, dtype=np.int64)
    ).reshape(nq, nt)
    kind, addr, warp, instr = _span_views(out, pos, total)
    kind.reshape(nq, nt, pool_len)[:] = tpl.kind[pool].reshape(
        nq, 1, pool_len
    )
    np.add(
        addr2[:, None, :], step[None, :, None],
        out=addr.reshape(nq, nt, pool_len),
    )
    np.add(
        group2[:, None, :], base2[:, :, None],
        out=instr.reshape(nq, nt, pool_len),
    )
    warp.reshape(nq, nt * pool_len)[:] = (
        wave_base + np.arange(q0, q1, dtype=np.int32)
    )[:, None]
    return kind, addr, warp, instr


def _span_columns(
    tpl: _WaveTemplates,
    q0: int,
    q1: int,
    k0: int,
    k1: int,
    wave_base: int,
    next_instr: int,
    out: Optional[_Columns] = None,
    pos: int = 0,
) -> Tuple[Optional[_Columns], int]:
    """Synthesize the events of pairs ``[q0, q1)`` over k-steps ``[k0, k1)``.

    Emission order is pair-major, k-step-minor — exactly the GTO turn
    order (CTAs oldest-first, warps in index order, each issuing its
    whole ``runahead`` burst before yielding).  Every column comes from
    arange/repeat/broadcast arithmetic; no per-event Python runs.
    ``out``/``pos`` select fill mode: the span's events are written at
    offset ``pos`` of the preallocated full columns.
    """
    nq = q1 - q0
    nt = k1 - k0
    nb = nq * nt
    span_len = tpl.length[q0:q1]
    span_adv = tpl.advance[q0:q1]
    pool_len = int(span_len[0]) if nq else 0
    advance = int(span_adv[0]) if nq else 0
    uniform = bool(
        np.all(span_len == pool_len) and np.all(span_adv == advance)
    )
    if uniform:
        end_instr = next_instr + advance * nb
        if nb * pool_len == 0:
            return None, end_instr
        return (
            _uniform_span(
                tpl, q0, q1, k0, k1, wave_base, next_instr,
                pool_len, advance, out, pos,
            ),
            end_instr,
        )
    # Ragged fallback: per-burst gather arithmetic.  Indexing each
    # per-burst table through ``boe`` exactly once keeps every
    # event-sized operation a single gather-plus-add.
    burst_q = np.repeat(np.arange(q0, q1, dtype=np.int64), nt)
    lengths = tpl.length[burst_q]
    starts = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    ibase = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(tpl.advance[burst_q], out=ibase[1:])
    total = int(starts[-1])
    end_instr = next_instr + int(ibase[-1])
    if total == 0:
        return None, end_instr
    src_base = tpl.start[burst_q] - starts[:-1]
    step = tpl.step_bytes * np.tile(np.arange(k0, k1, dtype=np.int64), nq)
    wid = (wave_base + burst_q).astype(np.int32)
    instr_base = next_instr + ibase[:-1]
    boe = np.repeat(np.arange(nb, dtype=np.int64), lengths)
    src = src_base[boe]
    src += np.arange(total, dtype=np.int64)
    kind, addr, warp, instr = _span_views(out, pos, total)
    np.take(tpl.kind, src, out=kind)
    np.take(tpl.addr, src, out=addr)
    addr += step[boe]
    np.take(wid, boe, out=warp)
    np.take(tpl.group, src, out=instr)
    instr += instr_base[boe]
    return (kind, addr, warp, instr), end_instr


@dataclass
class TracePlan:
    """Closed-form description of one SM's trace, ready to synthesize.

    Built once by :func:`plan_sm_trace`; every downstream consumer —
    the vectorised generator and :meth:`iter_blocks` — derives from
    this object, so the schedule is defined in exactly one place.
    """

    spec: ConvLayerSpec
    gpu: GPUConfig
    kernel: KernelConfig
    geom: GemmGeometry
    blocks: List[Tuple[int, int]]
    plans_per_block: List[List[_WarpPlan]]
    assigned: int
    grid_ctas: int
    concurrency: int
    mma_ops: int
    kind_a: int
    kind_b: int
    stage_steps: int
    runahead: int
    _stage_memo: Dict[Tuple[int, int], List[np.ndarray]] = field(
        default_factory=dict, repr=False
    )

    @property
    def traced_ctas(self) -> int:
        return len(self.blocks)

    @property
    def concurrent_warps(self) -> int:
        return (
            min(self.concurrency, max(self.assigned, 1))
            * self.kernel.warps_per_cta
        )

    def meta(self) -> Dict[str, int]:
        """Scalar trace fields (`KernelTrace.meta` order and names)."""
        return {
            "mma_ops": self.mma_ops,
            "traced_ctas": self.traced_ctas,
            "total_ctas": self.assigned,
            "grid_ctas": self.grid_ctas,
            "lda": self.geom.lda,
            "ldb": self.geom.ldb,
            "ldd": self.geom.ldd,
            "concurrent_warps": self.concurrent_warps,
        }

    def stage_bursts(
        self, cta_index: int, s0: int, s1: int
    ) -> List[np.ndarray]:
        """The two staging bursts (input fetch, B chunk) of one stage step.

        Returned as ``[input_addresses, b_addresses]``; memoised so
        :meth:`event_count` and the generator compute each chunk once.
        """
        key = (cta_index, s0)
        cached = self._stage_memo.get(key)
        if cached is not None:
            return cached
        m_blk, n_blk = self.blocks[cta_index]
        stage_input = _stage_input_fragments(
            self.spec,
            self.geom,
            (m_blk * self.kernel.cta_tile_m,
             (m_blk + 1) * self.kernel.cta_tile_m),
            (s0 * self.gpu.tile_k, s1 * self.gpu.tile_k),
            self.gpu,
        )
        n_cols = np.arange(
            n_blk * self.kernel.cta_tile_n,
            min((n_blk + 1) * self.kernel.cta_tile_n, self.geom.n),
        )
        k_offsets = np.arange(s0, s1) * self.gpu.frag_bytes
        b_stage = (
            FILTER_BASE
            + (n_cols[:, None] * (self.geom.ldb * self.gpu.element_bytes)
               + k_offsets[None, :]).ravel()
        )
        bursts = [stage_input, b_stage]
        self._stage_memo[key] = bursts
        return bursts

    def event_count(self) -> int:
        """Total events of the synthesized trace, in closed form.

        The k-loop contribution is ``pool_length * k_steps`` per warp;
        stores and (implicit-mode) staging chunks add their literal
        burst lengths.  The generator sizes its columns from this
        before any event is synthesized.
        """
        k_steps = self.geom.k_steps
        total = 0
        for plans in self.plans_per_block:
            for plan in plans:
                total += (len(plan.a_base) + len(plan.b_base)) * k_steps
                total += len(plan.store_addr)
        if self.kernel.implicit and k_steps:
            for cta_index in range(len(self.blocks)):
                for s0 in range(0, k_steps, self.stage_steps):
                    s1 = min(s0 + self.stage_steps, k_steps)
                    total += sum(
                        len(b) for b in self.stage_bursts(cta_index, s0, s1)
                    )
        return total

    def _iter_columns(
        self, out: Optional[_Columns] = None
    ) -> Iterator[_Columns]:
        """Yield column chunks in exact legacy emission order.

        With ``out`` (four preallocated full-length columns) every
        chunk is written in place at its running offset and the yielded
        tuples are views — the single-shot generator path, which skips
        all per-chunk allocation and the final concatenation.
        """
        k_steps = self.geom.k_steps
        warps = self.kernel.warps_per_cta
        next_instr = 0
        pos = 0
        wave_starts = range(0, len(self.blocks), self.concurrency)
        for wave_start, wave in zip(
            wave_starts, waves(self.plans_per_block, self.concurrency)
        ):
            tpl = _wave_templates(
                wave, self.kind_a, self.kind_b, self.gpu.frag_bytes
            )
            wave_base = wave_start * warps
            nw = len(wave)
            for k0 in range(0, k_steps, self.runahead):
                k1 = min(k0 + self.runahead, k_steps)
                if not self.kernel.implicit:
                    cols, next_instr = _span_columns(
                        tpl, 0, nw * warps, k0, k1, wave_base,
                        next_instr, out, pos,
                    )
                    if cols is not None:
                        pos += len(cols[0])
                        yield cols
                    continue
                for slot in range(nw):
                    cta_index = wave_start + slot
                    wid = cta_index * warps  # warp 0 runs the stage
                    staged = (
                        -(-k0 // self.stage_steps) * self.stage_steps
                        if k0
                        else 0
                    )
                    s0 = min(staged, k_steps)
                    while s0 < k1:
                        s1 = min(s0 + self.stage_steps, k_steps)
                        for kind_const, addrs in zip(
                            (LOAD_INPUT, LOAD_B),
                            self.stage_bursts(cta_index, s0, s1),
                        ):
                            n = len(addrs)
                            if n:
                                kind, addr, warp, instr = _span_views(
                                    out, pos, n
                                )
                                kind[:] = kind_const
                                addr[:] = addrs
                                warp[:] = wid
                                instr[:] = np.arange(n, dtype=np.int64)
                                instr += next_instr
                                pos += n
                                next_instr += n
                                yield kind, addr, warp, instr
                        s0 = s1
                    cols, next_instr = _span_columns(
                        tpl, slot * warps, (slot + 1) * warps,
                        k0, k1, wave_base, next_instr, out, pos,
                    )
                    if cols is not None:
                        pos += len(cols[0])
                        yield cols
            store_tpl = _store_templates(wave)
            cols, next_instr = _span_columns(
                store_tpl, 0, nw * warps, 0, 1, wave_base,
                next_instr, out, pos,
            )
            if cols is not None:
                pos += len(cols[0])
                yield cols

    def iter_blocks(
        self, max_events: Optional[int] = None
    ) -> Iterator[TraceBlock]:
        """Yield the trace as bounded-size :class:`TraceBlock` chunks.

        ``max_events`` caps the events accumulated per block (the last
        chunk may overshoot by one synthesis span); ``None`` yields
        everything as a single block.  Concatenating the blocks
        reproduces :func:`generate_sm_trace` bit-identically for any
        block size, by construction.
        """
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        pending: List[_Columns] = []
        count = 0
        for cols in self._iter_columns():
            pending.append(cols)
            count += len(cols[0])
            if max_events is not None and count >= max_events:
                yield _concat_block(pending)
                pending = []
                count = 0
        if pending:
            yield _concat_block(pending)

    def make_trace(
        self,
        kind: np.ndarray,
        address: np.ndarray,
        warp: np.ndarray,
        instr: np.ndarray,
    ) -> KernelTrace:
        """Attach the plan's scalar meta to synthesized columns."""
        return KernelTrace(
            kind=kind, address=address, warp=warp, instr=instr, **self.meta()
        )


def _concat_block(chunks: List[_Columns]) -> TraceBlock:
    if len(chunks) == 1:
        kind, address, warp, instr = chunks[0]
    else:
        kind = np.concatenate([c[0] for c in chunks])
        address = np.concatenate([c[1] for c in chunks])
        warp = np.concatenate([c[2] for c in chunks])
        instr = np.concatenate([c[3] for c in chunks])
    return TraceBlock(kind=kind, address=address, warp=warp, instr=instr)


def plan_sm_trace(
    spec: ConvLayerSpec,
    gpu: GPUConfig = TITAN_V,
    kernel: KernelConfig = BASELINE_KERNEL,
    options: SimulationOptions = SimulationOptions(),
) -> TracePlan:
    """Build the closed-form trace plan of one SM.

    Shared front half of every synthesis consumer: CTA assignment
    (round-robin, ``max_ctas`` truncation), per-warp fragment
    templates, and the scalar meta fields.  An SM that does not exist
    or receives no CTA has nothing to stand for, so choosing one raises
    ``ValueError``.
    """
    validate_arch(gpu, kernel)
    if options.representative_sm >= gpu.num_sms:
        raise ValueError(
            f"representative_sm={options.representative_sm} does not exist "
            f"on {gpu.name} ({gpu.num_sms} SMs)"
        )
    geom = gemm_geometry(spec, gpu)
    blocks, total_ctas = sm_cta_blocks(
        geom, kernel, gpu, options.representative_sm
    )
    if not blocks:
        raise ValueError(
            f"representative_sm={options.representative_sm} runs no CTA "
            f"of {spec.qualified_name} (grid_ctas={total_ctas})"
        )
    assigned = len(blocks)
    if options.max_ctas is not None:
        blocks = blocks[: options.max_ctas]
    k_steps = geom.k_steps
    templates = _CtaTemplates(geom, gpu)
    plans_per_block = [
        _plan_cta(geom, kernel, gpu, m, n, templates) for m, n in blocks
    ]
    mma_ops = sum(
        p.mma_per_step * k_steps for plans in plans_per_block for p in plans
    )
    return TracePlan(
        spec=spec,
        gpu=gpu,
        kernel=kernel,
        geom=geom,
        blocks=blocks,
        plans_per_block=plans_per_block,
        assigned=assigned,
        grid_ctas=total_ctas,
        concurrency=kernel.ctas_per_sm(gpu),
        mma_ops=mma_ops,
        kind_a=LOAD_A_SHARED if kernel.implicit else LOAD_A,
        kind_b=LOAD_B_SHARED if kernel.implicit else LOAD_B,
        stage_steps=max(1, kernel.stage_k // gpu.tile_k),
        runahead=max(1, kernel.warp_runahead),
    )


def generate_sm_trace(
    spec: ConvLayerSpec,
    gpu: GPUConfig = TITAN_V,
    kernel: KernelConfig = BASELINE_KERNEL,
    options: SimulationOptions = SimulationOptions(),
) -> KernelTrace:
    """Generate the scheduled memory-event trace of one SM.

    Waves of up to ``kernel.ctas_per_sm(gpu)`` CTAs run concurrently;
    within a wave, each warp issues one k-step burst per scheduling
    round (GTO: a warp runs until its MMA dependency stalls it, then
    the next-oldest warp issues).

    In implicit mode (``kernel.implicit``) each CTA cooperatively
    stages a ``stage_k``-deep chunk of the workspace into shared
    memory — fetching only the unique unexpanded input from global —
    and the warps' tensor-core loads read shared memory instead.

    The columns are synthesized in closed form (see :class:`TracePlan`)
    rather than emitted turn by turn.
    """
    plan = plan_sm_trace(spec, gpu, kernel, options)
    # Synthesize straight into the final columns.
    total = plan.event_count()
    kind = np.empty(total, dtype=np.uint8)
    address = np.empty(total, dtype=np.int64)
    warp = np.empty(total, dtype=np.int32)
    instr = np.empty(total, dtype=np.int64)
    for _ in plan._iter_columns(out=(kind, address, warp, instr)):
        pass
    obs.add("gen.traces")
    obs.add("gen.events", int(kind.size))
    return plan.make_trace(kind, address, warp, instr)
