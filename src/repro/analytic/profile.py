"""Layer reuse profiles: everything geometry-independent, computed once.

A :class:`LayerProfile` captures the structure of one layer's scheduled
load stream under one elimination mode — without ever materialising a
:class:`~repro.gpu.isa.KernelTrace`.  The stream is rebuilt from the
generator's own closed-form planner (:func:`_build_load_stream`
consumes :func:`repro.gpu.kernel.plan_sm_trace`'s warp templates, so it
reproduces :func:`~repro.gpu.kernel.generate_sm_trace`'s emission order
event for event by sharing its inputs, not by mirroring its
arithmetic), and is then compressed into three geometry-independent
artifacts:

* the **reuse table** — per consulted lookup, the global gap to its
  previous same-tag occurrence, plus (lazily, per power-of-two set
  count) the exact number of distinct other tags that touched its LHB
  set in between.  Because the set index at ``2^k`` sets is the low-k
  slice of the (hashed or modular) index function, one pass per level
  answers *every* geometry with that set count: direct-mapped and
  N-way, any lifetime.  Predictions built from the table are exact —
  they reproduce :func:`repro.gpu.fastpath.simulate_lhb_stream`
  verdict for verdict (the differential suite pins this).

* the **traffic anchors** — exact L1/L2 replays of the load stream
  under a ladder of oracle elimination fronts (``gap < g`` for a fixed
  set of lifetimes ``g``), each yielding one exact
  ``(eliminated, l1_hits, l2_hits)`` point.  Per-geometry cache
  counters interpolate between the bracketing anchors along the
  eliminated-count axis; this is the analytic tier's one
  approximation, bounded by ``tests/goldens/analytic_bounds.json``.

* the **exact counters** — load mix, stores, instruction counts,
  unique workspace IDs, MMA ops, and the extrapolation metadata
  (traced/assigned/grid CTAs, concurrent warps) that
  :func:`~repro.gpu.simulator.simulate_layer` needs to scale and time
  a result, all in closed form from the tiling.

Profiles are cached in a small in-process LRU keyed by the full
configuration (same normalisation as the trace cache), so a geometry
sweep pays the stream pass once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.conv.layer import ConvLayerSpec
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import (
    BASELINE_KERNEL,
    GPUConfig,
    KernelConfig,
    SimulationOptions,
    TITAN_V,
)
from repro.gpu.fastpath import (
    distinct_count,
    lru_hit_mask,
    prev_in_group,
    windowed_distinct_counts,
)
from repro.gpu.isa import EVENT_BYTES, LOAD_A, LOAD_B, STORE_D
from repro.gpu.kernel import plan_sm_trace
from repro.gpu.ldst import EliminationMode, load_ids_for
from repro.gpu.scheduler import gto_turns, waves

#: Oracle elimination fronts anchoring the traffic interpolation.
#: Each lifetime ``g`` eliminates exactly the ``gap < g`` consults —
#: a geometry-independent, exactly replayable point on the
#: eliminated-count axis.  ``None`` is the maximal front (every
#: repeated tag eliminated); the implicit baseline anchor is zero.
ANCHOR_LIFETIMES: Tuple[Optional[int], ...] = (2, 17, 129, 1025, 8193, None)


@dataclass(frozen=True)
class TrafficAnchors:
    """Exact cache-behaviour samples along the eliminated-count axis."""

    eliminated: np.ndarray  # ascending, starts at 0
    l1_hits: np.ndarray
    l2_hits: np.ndarray


@dataclass(frozen=True)
class StreamCounters:
    """Closed-form stream totals (traced prefix of one SM)."""

    loads_total: int
    loads_workspace: int
    loads_filter: int
    stores: int
    workspace_instructions: int
    unique_workspace_ids: int
    mma_ops: int
    events: int  # loads + stores — what a trace would have held


@dataclass(frozen=True)
class ExtrapolationMeta:
    """The trace-derived scalars ``simulate_layer`` scales with."""

    traced_ctas: int
    total_ctas: int  # the SM's full assignment
    grid_ctas: int
    concurrent_warps: int

    @property
    def scale_factor(self) -> float:
        if self.traced_ctas == 0:
            return 1.0
        return self.total_ctas / self.traced_ctas

    @property
    def grid_scale(self) -> float:
        return self.grid_ctas / max(self.traced_ctas, 1)


def _build_load_stream(
    spec: ConvLayerSpec,
    gpu: GPUConfig,
    kernel: KernelConfig,
    options: SimulationOptions,
):
    """Rebuild one SM's scheduled load stream from the trace planner.

    Consumes :func:`repro.gpu.kernel.plan_sm_trace` — the *same*
    closed-form planner every trace synthesis path runs — so the
    consult-stream mirror cannot drift from the generator: the
    per-warp A/B fragment templates, store counts, MMA ops, and the
    extrapolation scalars all come straight from the plan.  Only the
    load *ordering* is restated here (waves of ``ctas_per_sm`` CTAs,
    GTO turns of ``runahead`` k-steps, per k-step the warp's A block
    then its B block), and that order is pinned bit-exact against the
    generator by the regression suite.  Returns
    ``(is_a, load_addr, geom, stores, mma_ops, meta)``.
    """
    plan = plan_sm_trace(spec, gpu, kernel, options)
    geom = plan.geom
    k_steps = geom.k_steps

    addr_chunks: List[np.ndarray] = []
    a_chunks: List[np.ndarray] = []
    for wave in waves(plan.plans_per_block, plan.concurrency):
        for turn in gto_turns(
            len(wave), kernel.warps_per_cta, k_steps, plan.runahead
        ):
            wp = wave[turn.cta_index][turn.warp]
            la, lb = len(wp.a_base), len(wp.b_base)
            if la + lb == 0:
                continue
            steps = (
                np.arange(turn.k_start, turn.k_end, dtype=np.int64)
                * gpu.frag_bytes
            )
            burst = np.concatenate([wp.a_base, wp.b_base])
            addr_chunks.append((steps[:, None] + burst[None, :]).ravel())
            mask = np.zeros(la + lb, dtype=bool)
            mask[:la] = True
            a_chunks.append(np.tile(mask, len(steps)))

    if addr_chunks:
        load_addr = np.concatenate(addr_chunks)
        is_a = np.concatenate(a_chunks)
    else:
        load_addr = np.empty(0, dtype=np.int64)
        is_a = np.empty(0, dtype=bool)

    stores = sum(
        len(wp.store_addr) for plans in plan.plans_per_block for wp in plans
    )
    meta = ExtrapolationMeta(
        traced_ctas=plan.traced_ctas,
        total_ctas=plan.assigned,
        grid_ctas=plan.grid_ctas,
        concurrent_warps=plan.concurrent_warps,
    )
    return is_a, load_addr, geom, stores, plan.mma_ops, meta


def _mix_index(element: np.ndarray) -> np.ndarray:
    """Fibonacci-mixed index value, before the modulo — the vectorised
    twin of :func:`repro.gpu.fastpath._lhb_set_indices`'s hashed arm."""
    mixed = element.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return mixed ^ (mixed >> np.uint64(29))


class LayerProfile:
    """Geometry-independent reuse/traffic profile of one (layer, mode)."""

    def __init__(
        self,
        spec: ConvLayerSpec,
        gpu: GPUConfig,
        kernel: KernelConfig,
        options: SimulationOptions,
        mode: EliminationMode,
    ):
        self.spec = spec
        self.gpu = gpu
        self.kernel = kernel
        self.options = options
        self.mode = mode

        is_a, load_addr, geom, stores, mma_ops, meta = _build_load_stream(
            spec, gpu, kernel, options
        )
        self.meta = meta
        n_loads = len(load_addr)
        load_kind = np.where(
            is_a, np.uint8(LOAD_A), np.uint8(LOAD_B)
        ).astype(np.uint8)

        consults, batch, element = load_ids_for(
            spec, options, mode, load_kind, load_addr, geom.lda, gpu
        )
        self._consult_idx = np.nonzero(consults)[0]
        self._element = element[self._consult_idx]
        cbatch = batch[self._consult_idx]
        nc = len(self._element)
        if nc:
            base = np.int64(int(cbatch.max()) + 1)
            self._tag = self._element * base + cbatch
        else:
            self._tag = np.empty(0, dtype=np.int64)
        prev = prev_in_group(self._tag)
        self._has_prev = prev >= 0
        self._gap = np.where(
            self._has_prev, np.arange(nc, dtype=np.int64) - prev, np.int64(-1)
        )
        self._levels: Dict[Tuple[bool, int], Tuple[np.ndarray, ...]] = {}

        # Unique workspace IDs: the same generator pass serves every
        # mode at fragment granularity (it always runs over A loads).
        a_ok, a_batch, a_element = load_ids_for(
            spec, options, EliminationMode.DUPLO, load_kind, load_addr,
            geom.lda, gpu,
        )
        a_idx = np.nonzero(is_a)[0]
        ok_a = a_ok[a_idx]
        keys = (
            a_batch[a_idx][ok_a] * (1 << 44) + a_element[a_idx][ok_a]
        )
        loads_a = int(is_a.sum())
        unique_ids = distinct_count(keys) + loads_a - int(ok_a.sum())

        self.counters = StreamCounters(
            loads_total=n_loads,
            loads_workspace=loads_a,
            loads_filter=n_loads - loads_a,
            stores=stores,
            workspace_instructions=loads_a,
            unique_workspace_ids=unique_ids,
            mma_ops=mma_ops,
            events=n_loads + stores,
        )

        self.anchors = self._build_anchors(load_addr)
        # The raw line stream is only needed for the anchors.
        self._n_loads = n_loads

    # -- traffic anchors ------------------------------------------------

    def _build_anchors(self, load_addr: np.ndarray) -> TrafficAnchors:
        gpu = self.gpu
        l1 = SetAssociativeCache(
            gpu.l1_bytes, gpu.l1_assoc, gpu.l1_line_bytes,
            mshr_window=gpu.l1_latency,
        )
        l2 = SetAssociativeCache(gpu.l2_bytes, gpu.l2_assoc, gpu.l2_line_bytes)
        all_lines = load_addr >> l1.line_shift

        fronts: List[Optional[int]] = [0, *ANCHOR_LIFETIMES]
        points = {}
        for g in fronts:
            if g == 0 or self.mode is EliminationMode.BASELINE:
                elim = np.zeros(0, dtype=np.int64)
            elif g is None:
                elim = self._consult_idx[self._has_prev]
            else:
                elim = self._consult_idx[self._has_prev & (self._gap < g)]
            e = len(elim)
            if e in points:
                continue
            keep = np.ones(len(all_lines), dtype=bool)
            keep[elim] = False
            lines = all_lines[keep]
            l1_hit = lru_hit_mask(lines, l1.set_mask, l1.assoc)
            l2_hit = lru_hit_mask(
                lines[~l1_hit], l2.set_mask, l2.assoc
            )
            points[e] = (int(l1_hit.sum()), int(l2_hit.sum()))
            if self.mode is EliminationMode.BASELINE:
                break
        es = np.array(sorted(points), dtype=np.int64)
        return TrafficAnchors(
            eliminated=es,
            l1_hits=np.array([points[e][0] for e in es], dtype=np.int64),
            l2_hits=np.array([points[e][1] for e in es], dtype=np.int64),
        )

    # -- reuse table ----------------------------------------------------

    @property
    def lookups(self) -> int:
        return len(self._tag)

    @property
    def max_eliminated(self) -> int:
        return int(self._has_prev.sum())

    def level(self, hashed: bool, k: int) -> Tuple[np.ndarray, ...]:
        """Bucketed ``(gap, distinct-in-set)`` table at ``2^k`` sets.

        Computed lazily per ``(index kind, level)`` and memoised:
        ``counts[i]`` lookups share gap ``gaps[i]`` and exactly
        ``sds[i]`` distinct other tags in their set's reuse window.
        """
        key = (hashed, k)
        cached = self._levels.get(key)
        if cached is not None:
            return cached
        num_sets = np.int64(1) << np.int64(k)
        if k == 0:
            klass = np.zeros(len(self._tag), dtype=np.int64)
        elif hashed:
            klass = (_mix_index(self._element) % np.uint64(num_sets)).astype(
                np.int64
            )
        else:
            klass = np.mod(self._element.astype(np.int64), num_sets)
        sd = windowed_distinct_counts(klass, self._tag)
        sel = self._has_prev
        gap, sd = self._gap[sel], sd[sel]
        # Compress to unique (gap, sd) pairs; gaps and distances are
        # bounded by the lookup count so the composite key cannot wrap.
        span = np.int64(len(self._tag) + 2)
        pairs, counts = np.unique(gap * span + sd, return_counts=True)
        table = (pairs // span, pairs % span, counts.astype(np.int64))
        self._levels[key] = table
        obs.add("analytic.levels_built")
        return table

    def oracle_hits(self, lifetime: Optional[int]) -> int:
        """Exact oracle (unbounded) hit count under one lifetime."""
        if lifetime is None:
            return self.max_eliminated
        return int((self._has_prev & (self._gap < lifetime)).sum())


# ----------------------------------------------------------------------
# Profile cache
# ----------------------------------------------------------------------

_profile_cache: "OrderedDict[Tuple, LayerProfile]" = OrderedDict()
_PROFILE_CACHE_LIMIT = 16


def _cache_options(options: SimulationOptions) -> SimulationOptions:
    # Like the trace cache: implementation selectors never change the
    # profile.  Query-side knobs (lifetime, hashed_index) stay in the
    # key — they are cheap to vary and keeping them avoids aliasing
    # surprises if a future field interacts with the stream.
    return replace(options, engine="auto")


def layer_profile(
    spec: ConvLayerSpec,
    mode: EliminationMode,
    gpu: GPUConfig = TITAN_V,
    kernel: KernelConfig = BASELINE_KERNEL,
    options: SimulationOptions = SimulationOptions(),
) -> LayerProfile:
    """Get-or-build the cached :class:`LayerProfile`."""
    key = (spec, gpu, kernel, _cache_options(options), mode)
    prof = _profile_cache.get(key)
    if prof is not None:
        _profile_cache.move_to_end(key)
        obs.add("analytic.profile.lru_hits")
        return prof
    with obs.span(
        "analytic.profile.build", layer=spec.qualified_name, mode=mode.value
    ):
        prof = LayerProfile(spec, gpu, kernel, options, mode)
    obs.add("analytic.profile.built")
    while len(_profile_cache) >= _PROFILE_CACHE_LIMIT:
        _profile_cache.popitem(last=False)
    _profile_cache[key] = prof
    return prof


def clear_profile_cache() -> None:
    """Drop cached profiles (tests that tweak globals call this)."""
    _profile_cache.clear()


# Re-exported for LayerStats assembly in the model.
_ = EVENT_BYTES, STORE_D
