"""Per-layer simulation entry point.

:func:`simulate_layer` runs one Table I layer under one configuration
(baseline / Duplo with a given LHB / WIR) and returns a
:class:`LayerResult` holding both the SM-level timing and the
full-layer extrapolated statistics.  :func:`simulate_pair` runs the
baseline and a Duplo variant over the *same* trace, which is how all
the paper's "performance improvement over baseline" figures are
produced.

A trace is synthesized where it is replayed: synthesis is cheaper than
any store round trip, so traces are never persisted.  Each thread
keeps the one trace it last replayed, keyed by (layer, gpu, kernel,
options), next to the streams the fast replay last folded from it
(:func:`repro.gpu.fastpath.held_trace`).  The key covers the *full*
frozen :class:`SimulationOptions` except ``engine``, which picks the
tier and never changes the trace (an earlier revision keyed only on
``max_ctas`` / ``representative_sm`` and aliased options objects
differing elsewhere).  Consecutive replays of one trace — the points
of one sweep chunk, whatever their mode and LHB — therefore synthesize
it once, and the sweep executor empties the slot when a chunk ends.
"""

from __future__ import annotations

import logging
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
from repro.gpu.fastpath import clear_fed_memo, held_trace, replay_trace_fast
from repro.gpu.isa import KernelTrace
from repro.gpu.kernel import generate_sm_trace
from repro.gpu.ldst import EliminationMode
from repro.gpu.stats import LayerStats
from repro.gpu.timing import TimingModel

_log = logging.getLogger(__name__)


def _trace_cache_key(spec, gpu, kernel, options) -> Tuple:
    # The engine selects the tier, never the trace — normalise it out
    # so an analytic fallback shares the exact tier's trace.
    return (spec, gpu, kernel, replace(options, engine="auto"))


def _get_trace(
    spec: ConvLayerSpec,
    gpu: GPUConfig,
    kernel: KernelConfig,
    options: SimulationOptions,
) -> KernelTrace:
    """The calling thread's trace for this layer, synthesized on a miss."""
    return held_trace(
        _trace_cache_key(spec, gpu, kernel, options),
        lambda: generate_sm_trace(spec, gpu, kernel, options),
    )


def clear_trace_cache() -> None:
    """Empty every thread's trace slot (tests that tweak globals call
    this)."""
    clear_fed_memo()


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
    both tiers (the analytic profile keeps its trace's count, so the
    counter is engine-invariant).
    """
    obs.add("sim.layers_simulated")
    obs.add("sim.events_replayed", events)
    obs.add("sim.lhb.lookups", full_stats.lhb_lookups)
    obs.add("sim.lhb.hits", full_stats.lhb_hits)
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
    picks how the request is answered: the analytic model where
    covered, else the vectorised fast replay.  Both take the trace
    from this thread's slot; the analytic model takes it once per
    layer profile, and answers every further geometry from the
    profile alone.  The tier that actually served is published as
    ``engine.selected.<tier>``; analytic coverage misses are counted
    under ``analytic.fallback`` — see :mod:`repro.analytic.engine`.
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
            reason = analytic_fallback_reason(
                kernel, options, mode, lhb_entries, lhb_assoc
            )
            if reason is None:
                from repro.analytic.model import predict_stats
                from repro.analytic.profile import layer_profile

                with obs.span(
                    "sim.replay.analytic", layer=spec.qualified_name
                ):
                    profile = layer_profile(spec, mode, gpu, kernel, options)
                    sm_traced = predict_stats(profile, lhb)
                meta = profile.meta
                events = profile.events
                selected = "analytic"
            else:
                count_fallback(reason)
        if sm_traced is None:
            trace = _get_trace(spec, gpu, kernel, options)
            meta = trace
            events = int(trace.kind.size)
            selected = "fast"
            with obs.span("sim.replay.fast", layer=spec.qualified_name):
                sm_traced = replay_trace_fast(
                    trace, spec, gpu, options, mode, lhb,
                    trace_key=_trace_cache_key(spec, gpu, kernel, options),
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
    """Scaling + timing tail of :func:`simulate_layer`, either tier.

    Extrapolates the traced prefix to the SM's full CTA assignment,
    then to the whole grid.  ``meta`` is anything exposing the scaling
    fields (``scale_factor`` / ``grid_ctas`` / ``traced_ctas`` /
    ``concurrent_warps``): the trace on the replay tier, the profile's
    column-free copy of it on the analytic tier.
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


# Kept only because bench/tracing.py (frozen) wraps this name by
# attribute; it is the one replay entry point under another name.
simulate_layer_streaming = simulate_layer
