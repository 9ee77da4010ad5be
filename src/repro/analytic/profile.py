"""Layer reuse profiles: everything geometry-independent, computed once.

A :class:`LayerProfile` captures the structure of one layer's scheduled
load stream under one elimination mode.  It takes that stream from the
exact tier: the calling thread's trace (:func:`repro.gpu.simulator
._get_trace`) and the streams the fast replay folds from it under the
mode (:func:`repro.gpu.fastpath.fed_streams`), memoised in the same
per-thread slot under the same ``(trace key, mode)`` — so an analytic
build and an exact replay of one layer and mode share one synthesis
and one fold.  The streams are then compressed into three
geometry-independent artifacts:

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

* the **exact counters** — the streams' scalar half (load mix,
  stores, workspace instructions, unique workspace IDs) and the
  trace's scalar meta (MMA ops, traced/assigned/grid CTAs, concurrent
  warps) that :func:`~repro.gpu.simulator.simulate_layer` needs to
  scale and time a result.

Profiles are cached in a small in-process LRU keyed by the trace key
and the mode, so a geometry sweep pays the stream pass once and then
requests no trace at all.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.conv.layer import ConvLayerSpec
from repro.core.lhb import vector_set_indices
from repro.gpu import simulator
from repro.gpu.config import (
    BASELINE_KERNEL,
    GPUConfig,
    KernelConfig,
    SimulationOptions,
    TITAN_V,
)
from repro.gpu.fastpath import (
    fed_streams,
    lhb_tags,
    prev_in_group,
    windowed_distinct_counts,
)
from repro.gpu.isa import KernelTrace
# Unused here; kept because bench/tracing.py wraps this attribute.
from repro.gpu.kernel import plan_sm_trace  # noqa: F401
from repro.gpu.ldst import EliminationMode

from repro.analytic.engine import AnalyticUnsupported, analytic_fallback_reason

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
        reason = analytic_fallback_reason(kernel, options, mode, None, 1)
        if reason is not None:
            raise AnalyticUnsupported(reason)

        trace = simulator._get_trace(spec, gpu, kernel, options)
        streams = fed_streams(
            trace, spec, gpu, options, mode,
            simulator._trace_cache_key(spec, gpu, kernel, options),
        )
        # The trace's scalars without its columns: the slot, not the
        # profile, owns the trace.
        no_events = np.zeros(0, dtype=np.int64)
        self.meta = KernelTrace(
            kind=no_events, address=no_events, warp=no_events,
            instr=no_events, **trace.meta(),
        )
        self.totals = streams.totals
        self.events = len(trace)

        self._consult_idx = np.nonzero(streams.consult)[0]
        self._element = streams.element
        self._tag = lhb_tags(streams.element, streams.batch)
        prev = prev_in_group(self._tag)
        self._has_prev = prev >= 0
        self._gap = np.where(
            self._has_prev,
            np.arange(len(self._tag), dtype=np.int64) - prev,
            np.int64(-1),
        )
        self._levels: Dict[Tuple[bool, int], Tuple[np.ndarray, ...]] = {}
        self.anchors = self._build_anchors(streams)

    # -- traffic anchors ------------------------------------------------

    def _build_anchors(self, streams) -> TrafficAnchors:
        fronts: List[Optional[int]] = [0]
        if self.mode is not EliminationMode.BASELINE:
            fronts += ANCHOR_LIFETIMES
        points = {}
        for g in fronts:
            if g == 0:
                elim = np.zeros(0, dtype=np.int64)
            elif g is None:
                elim = self._consult_idx[self._has_prev]
            else:
                elim = self._consult_idx[self._has_prev & (self._gap < g)]
            e = len(elim)
            if e in points:
                continue
            eliminated = np.zeros(self.totals.loads, dtype=bool)
            eliminated[elim] = True
            _l1_accesses, l1_hits, l2_hits = streams.hierarchy(eliminated)
            points[e] = (l1_hits, l2_hits)
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
        klass = vector_set_indices(self._element, 1 << k, hashed)
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


def layer_profile(
    spec: ConvLayerSpec,
    mode: EliminationMode,
    gpu: GPUConfig = TITAN_V,
    kernel: KernelConfig = BASELINE_KERNEL,
    options: SimulationOptions = SimulationOptions(),
) -> LayerProfile:
    """Get-or-build the cached :class:`LayerProfile`."""
    key = (simulator._trace_cache_key(spec, gpu, kernel, options), mode)
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

