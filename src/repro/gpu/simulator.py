"""Per-layer simulation entry points.

:func:`simulate_layer` runs one Table I layer under one configuration
(baseline / Duplo with a given LHB / WIR) and returns a
:class:`LayerResult` holding both the SM-level timing and the
full-layer extrapolated statistics.  :func:`simulate_pair` runs the
baseline and a Duplo variant over the *same* trace, which is how all
the paper's "performance improvement over baseline" figures are
produced.

Traces are cached per (layer, gpu, kernel, options) in an in-process
LRU so parameter sweeps (Figures 9, 10, 12, 13) pay trace generation
once.  The key covers the *full* frozen :class:`SimulationOptions`
except ``engine``, which picks the replay and never changes the trace
(an earlier revision keyed only on ``max_ctas`` / ``representative_sm``
and aliased options objects differing elsewhere).  The LRU can be
backed by a persistent :class:`repro.runtime.store.DiskCache` via
:func:`set_trace_store`, which the sweep executor hooks up for its
cache so traces survive across runs.  The fast replay also memoises,
per thread, the streams it last folded from a trace under this key
and a mode, so LHB size and associativity sweeps over one trace feed
it once (:func:`repro.gpu.fastpath.replay_trace_fast`).
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro import obs
from repro.conv.layer import ConvLayerSpec
from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.config import (
    BASELINE_KERNEL,
    GPUConfig,
    KernelConfig,
    SimulationOptions,
    TITAN_V,
)
from repro.gpu.fastpath import clear_fed_memo, replay_trace_fast
from repro.gpu.isa import KernelTrace
from repro.gpu.kernel import generate_sm_trace
from repro.gpu.ldst import EliminationMode, replay_trace
from repro.gpu.stats import LayerStats
from repro.gpu.timing import TimingModel

_log = logging.getLogger(__name__)

_trace_cache: "OrderedDict[Tuple, KernelTrace]" = OrderedDict()
_TRACE_CACHE_LIMIT = 64
#: Guards the LRU's OrderedDict against concurrent mutation — the
#: sweep executor's thread backend replays several layers at once and
#: ``move_to_end``/``popitem`` are not atomic.  Generation and store
#: round-trips run *outside* the lock (they dominate and are
#: independent per layer); the worst concurrent case is two threads
#: generating the same trace, which wastes work but stays correct.
_trace_lock = threading.Lock()
_trace_store = None  # optional repro.runtime.store.DiskCache


def set_trace_store(store) -> None:
    """Back the in-process trace LRU with a persistent disk store.

    ``store`` is a :class:`repro.runtime.store.DiskCache` (or any
    object with ``get_trace(key)`` / ``put_trace(key, trace)``) —
    ``None`` detaches it.  Misses in the LRU then consult the store
    before regenerating, and fresh traces are persisted.
    """
    global _trace_store
    _trace_store = store


def get_trace_store():
    """The currently attached persistent trace store (or ``None``)."""
    return _trace_store


def _trace_cache_key(spec, gpu, kernel, options) -> Tuple:
    # The engine selects the replay implementation, never the trace —
    # normalise it out so fast/event runs share one cached trace.
    return (spec, gpu, kernel, replace(options, engine="auto"))


def _get_trace(
    spec: ConvLayerSpec,
    gpu: GPUConfig,
    kernel: KernelConfig,
    options: SimulationOptions,
) -> KernelTrace:
    key = _trace_cache_key(spec, gpu, kernel, options)
    with _trace_lock:
        trace = _trace_cache.get(key)
        if trace is not None:
            _trace_cache.move_to_end(key)
    if trace is not None:
        obs.add("sim.trace.lru_hits")
        return trace
    if _trace_store is not None:
        from repro.runtime.cachekey import trace_key

        digest = trace_key(spec, gpu, kernel, options)
        with obs.span("sim.trace.store_get", layer=spec.qualified_name):
            trace = _trace_store.get_trace(digest)
        if trace is None:
            with obs.span("sim.trace.generate", layer=spec.qualified_name):
                trace = generate_sm_trace(spec, gpu, kernel, options)
            obs.add("sim.trace.generated")
            with obs.span("sim.trace.store_put", layer=spec.qualified_name):
                _trace_store.put_trace(digest, trace)
        else:
            obs.add("sim.trace.store_hits")
    else:
        with obs.span("sim.trace.generate", layer=spec.qualified_name):
            trace = generate_sm_trace(spec, gpu, kernel, options)
        obs.add("sim.trace.generated")
    with _trace_lock:
        while len(_trace_cache) >= _TRACE_CACHE_LIMIT:
            _trace_cache.popitem(last=False)
        _trace_cache[key] = trace
    return trace


def trace_is_cached(
    spec: ConvLayerSpec,
    gpu: GPUConfig,
    kernel: KernelConfig,
    options: SimulationOptions,
) -> bool:
    """True iff the in-process LRU already holds this trace.

    A read-only probe (no LRU reordering, no store consult) — the
    sweep executor uses it to decide whether a point's trace is cold
    enough to stream.
    """
    with _trace_lock:
        return _trace_cache_key(spec, gpu, kernel, options) in _trace_cache


def clear_trace_cache() -> None:
    """Drop cached traces and the fast tier's fed streams (tests that
    tweak globals call this)."""
    with _trace_lock:
        _trace_cache.clear()
    clear_fed_memo()


def trace_cache_info() -> dict:
    """Introspection for tests: size, limit, and key list (LRU order)."""
    with _trace_lock:
        return {
            "size": len(_trace_cache),
            "limit": _TRACE_CACHE_LIMIT,
            "keys": list(_trace_cache.keys()),
            "store": _trace_store,
        }


@dataclass(frozen=True)
class LayerResult:
    """Outcome of simulating one layer under one configuration."""

    spec: ConvLayerSpec
    mode: EliminationMode
    stats: LayerStats  # full-layer extrapolation (GPU-wide counts)
    sm_stats: LayerStats  # one SM's full assignment (timing basis)
    cycles: float
    time_ms: float
    lhb_entries: Optional[int] = None
    lhb_assoc: int = 1

    @property
    def lhb_hit_rate(self) -> float:
        return self.stats.lhb_hit_rate

    def speedup_over(self, baseline: "LayerResult") -> float:
        """Execution-time ratio baseline/this (1.25 = 25% faster)."""
        return baseline.cycles / self.cycles


def make_lhb(
    entries: Optional[int],
    assoc: int = 1,
    lifetime: Optional[int] = 4096,
    hashed_index: bool = True,
) -> LoadHistoryBuffer:
    """LHB factory: ``entries=None`` builds the paper's oracle buffer."""
    return LoadHistoryBuffer(
        num_entries=entries,
        assoc=assoc,
        lifetime=lifetime,
        hashed_index=hashed_index,
    )


def _record_layer_metrics(
    spec: ConvLayerSpec,
    mode: EliminationMode,
    events: int,
    full_stats: LayerStats,
    lhb: Optional[LoadHistoryBuffer],
) -> None:
    """Report one simulated layer into the metrics registry.

    The ``sim.lhb.*`` counters accumulate the *same* ``LayerStats``
    fields the run returns (full-layer extrapolation), so for a
    single-layer run ``--metrics-out`` matches ``result.stats``
    exactly; ``lhb.raw.*`` are the buffer's own (unscaled, traced
    prefix) counters published by :meth:`~repro.core.lhb.LHBStats`.
    ``events`` is the traced event count — measured off the trace on
    the replay tiers, closed-form on the analytic tier (identical for
    the explicit kernel, so the counter is engine-invariant).
    """
    obs.add("sim.layers_simulated")
    obs.add("sim.events_replayed", events)
    obs.add("sim.lhb.lookups", full_stats.lhb_lookups)
    obs.add("sim.lhb.hits", full_stats.lhb_hits)
    obs.add("sim.lhb.renames", full_stats.lhb_hits)
    obs.add("sim.eliminated_fragments", full_stats.eliminated_fragments)
    obs.add("sim.l1.accesses", full_stats.l1_accesses)
    obs.add("sim.l1.hits", full_stats.l1_hits)
    obs.add("sim.l2.accesses", full_stats.l2_accesses)
    obs.add("sim.l2.hits", full_stats.l2_hits)
    obs.add("sim.dram.read_bytes", full_stats.dram_read_bytes)
    obs.add("sim.dram.write_bytes", full_stats.dram_write_bytes)
    if lhb is not None:
        lhb.stats.publish(obs.add)
    _log.debug(
        "simulated %s mode=%s events=%d lhb_hit_rate=%.3f",
        spec.qualified_name,
        mode.value,
        events,
        full_stats.lhb_hit_rate,
    )


def simulate_layer(
    spec: ConvLayerSpec,
    mode: EliminationMode = EliminationMode.DUPLO,
    lhb_entries: Optional[int] = 1024,
    lhb_assoc: int = 1,
    gpu: GPUConfig = TITAN_V,
    kernel: KernelConfig = BASELINE_KERNEL,
    options: SimulationOptions = SimulationOptions(),
    timing: Optional[TimingModel] = None,
) -> LayerResult:
    """Simulate one layer under one configuration.

    ``lhb_entries=None`` gives the oracle (unbounded) LHB; the
    ``options.lhb_lifetime`` window still applies, modelling register
    retirement (Section V-C).  ``mode=BASELINE`` ignores the LHB
    arguments.

    The ``options.engine`` tier (with its ``$REPRO_ENGINE`` override)
    picks how the request is answered: the trace-free analytic model
    where covered, the event-level reference oracle when pinned, else
    the vectorised fast replay.  The tier that actually served is
    published as ``engine.selected.<tier>``; analytic coverage misses
    are counted under ``analytic.fallback`` — see
    :mod:`repro.analytic.engine`.
    """
    from repro.analytic.engine import (
        analytic_fallback_reason,
        count_fallback,
        count_selected,
        resolve_engine,
    )

    layer_span = obs.span(
        "sim.layer", layer=spec.qualified_name, mode=mode.value
    )
    with layer_span:
        lhb = None
        if mode is not EliminationMode.BASELINE:
            lhb = make_lhb(
                lhb_entries, lhb_assoc, options.lhb_lifetime,
                options.lhb_hashed_index,
            )
        tier = resolve_engine(options)
        sm_traced = None
        if tier == "analytic":
            reason = analytic_fallback_reason(kernel, options, mode, lhb)
            if reason is None:
                from repro.analytic.model import predict_stats
                from repro.analytic.profile import layer_profile

                with obs.span(
                    "sim.replay.analytic", layer=spec.qualified_name
                ):
                    profile = layer_profile(spec, mode, gpu, kernel, options)
                    sm_traced = predict_stats(profile, lhb)
                meta = profile.meta
                events = profile.counters.events
                selected = "analytic"
            else:
                count_fallback(reason)
        if sm_traced is None:
            trace = _get_trace(spec, gpu, kernel, options)
            meta = trace
            events = int(trace.kind.size)
            if tier == "event":
                selected = "event"
                with obs.span("sim.replay.event", layer=spec.qualified_name):
                    sm_traced = replay_trace(
                        trace, spec, gpu, options, mode, lhb
                    )
            else:  # "fast", "auto", or analytic coverage fallback
                selected = "fast"
                with obs.span("sim.replay.fast", layer=spec.qualified_name):
                    sm_traced = replay_trace_fast(
                        trace, spec, gpu, options, mode, lhb,
                        trace_key=_trace_cache_key(
                            spec, gpu, kernel, options
                        ),
                    )
        count_selected(selected)

    return _assemble_result(
        spec, mode, sm_traced, meta, events, gpu, options, timing,
        lhb, lhb_entries, lhb_assoc,
    )


def _assemble_result(
    spec: ConvLayerSpec,
    mode: EliminationMode,
    sm_traced: LayerStats,
    meta,
    events: int,
    gpu: GPUConfig,
    options: SimulationOptions,
    timing: Optional[TimingModel],
    lhb: Optional[LoadHistoryBuffer],
    lhb_entries: Optional[int],
    lhb_assoc: int,
) -> LayerResult:
    """Scaling + timing tail shared by every replay entry point.

    Extrapolates the traced prefix to the SM's full CTA assignment,
    then to the whole grid.  ``meta`` is anything exposing the scaling
    fields (``scale_factor`` / ``grid_ctas`` / ``traced_ctas`` /
    ``concurrent_warps``): the trace on the replay tiers, the
    closed-form scalars on the analytic tier, the
    :class:`~repro.gpu.kernel.TracePlan` on the streaming tier.
    """
    sm_stats = sm_traced.scaled(meta.scale_factor)
    if timing is None:
        timing = TimingModel(gpu=gpu, detection_latency=options.detection_latency)
    busy_sms = max(1, min(gpu.num_sms, meta.grid_ctas))
    cycles, comps = timing.cycles(sm_stats, meta.concurrent_warps, busy_sms)
    sm_stats.cycles = cycles
    sm_stats.cycle_components = comps

    grid_scale = meta.grid_ctas / max(meta.traced_ctas, 1)
    full_stats = sm_traced.scaled(grid_scale)
    full_stats.cycles = cycles
    full_stats.cycle_components = comps

    if obs.enabled():
        _record_layer_metrics(spec, mode, events, full_stats, lhb)

    return LayerResult(
        spec=spec,
        mode=mode,
        stats=full_stats,
        sm_stats=sm_stats,
        cycles=cycles,
        time_ms=timing.execution_time_ms(cycles),
        lhb_entries=lhb_entries if lhb is not None else None,
        lhb_assoc=lhb_assoc,
    )


def simulate_layer_streaming(
    spec: ConvLayerSpec,
    mode: EliminationMode = EliminationMode.DUPLO,
    lhb_entries: Optional[int] = 1024,
    lhb_assoc: int = 1,
    gpu: GPUConfig = TITAN_V,
    kernel: KernelConfig = BASELINE_KERNEL,
    options: SimulationOptions = SimulationOptions(),
    timing: Optional[TimingModel] = None,
    block_events: Optional[int] = None,
    store=None,
) -> LayerResult:
    """Simulate one layer without ever materialising its trace.

    The bounded-memory twin of :func:`simulate_layer`: trace blocks
    stream straight from the closed-form synthesizer
    (:meth:`~repro.gpu.kernel.TracePlan.iter_blocks`) into the
    vectorised replay's accumulator, so peak memory holds one block
    plus the replay's compact derived streams instead of the full
    event columns.  Results are bit-identical to
    :func:`simulate_layer` for any block size.

    ``block_events`` defaults to ``$REPRO_TRACE_BLOCK`` or the
    built-in block budget.  With ``store`` (a
    :class:`repro.runtime.store.DiskCache`) each block is also teed
    into the store's streaming sidecar writer, persisting the trace
    under its usual content-addressed key at no extra memory cost.
    """
    from repro.analytic.engine import count_selected
    from repro.gpu.fastpath import replay_blocks_fast
    from repro.gpu.kernel import (
        DEFAULT_BLOCK_EVENTS,
        _env_block_events,
        plan_sm_trace,
    )

    if block_events is None:
        block_events = _env_block_events() or DEFAULT_BLOCK_EVENTS
    with obs.span(
        "sim.layer", layer=spec.qualified_name, mode=mode.value
    ):
        lhb = None
        if mode is not EliminationMode.BASELINE:
            lhb = make_lhb(
                lhb_entries, lhb_assoc, options.lhb_lifetime,
                options.lhb_hashed_index,
            )
        plan = plan_sm_trace(spec, gpu, kernel, options)
        events = plan.event_count()
        obs.add("gen.traces")
        obs.add("gen.events", events)
        blocks = plan.iter_blocks(block_events)
        writer = None
        if store is not None:
            from repro.runtime.cachekey import trace_key

            digest = trace_key(spec, gpu, kernel, options)
            writer = store.trace_stream_writer(digest, plan.meta(), events)
            blocks = _tee_blocks(blocks, writer)
        try:
            with obs.span(
                "sim.replay.stream", layer=spec.qualified_name
            ):
                sm_traced = replay_blocks_fast(
                    blocks, plan.meta(), spec, gpu, options, mode, lhb
                )
            if writer is not None:
                writer.commit()
        except BaseException:
            if writer is not None:
                writer.abort()
            raise
        count_selected("fast")

    return _assemble_result(
        spec, mode, sm_traced, plan, events, gpu, options, timing,
        lhb, lhb_entries, lhb_assoc,
    )


def _tee_blocks(blocks, writer):
    for block in blocks:
        writer.append(block)
        yield block


def simulate_pair(
    spec: ConvLayerSpec,
    lhb_entries: Optional[int] = 1024,
    lhb_assoc: int = 1,
    gpu: GPUConfig = TITAN_V,
    kernel: KernelConfig = BASELINE_KERNEL,
    options: SimulationOptions = SimulationOptions(),
) -> Tuple[LayerResult, LayerResult]:
    """(baseline, duplo) results over the same trace — the figures'
    "performance improvement" comparisons."""
    base = simulate_layer(
        spec, EliminationMode.BASELINE, gpu=gpu, kernel=kernel, options=options
    )
    duplo = simulate_layer(
        spec,
        EliminationMode.DUPLO,
        lhb_entries=lhb_entries,
        lhb_assoc=lhb_assoc,
        gpu=gpu,
        kernel=kernel,
        options=options,
    )
    return base, duplo


def performance_improvement(
    spec: ConvLayerSpec,
    lhb_entries: Optional[int] = 1024,
    lhb_assoc: int = 1,
    **kwargs,
) -> float:
    """Fractional speedup of Duplo over baseline (0.25 = +25%)."""
    base, duplo = simulate_pair(spec, lhb_entries, lhb_assoc, **kwargs)
    return duplo.speedup_over(base) - 1.0
