"""Parameter sweeps over the Table I layer set (Figures 9, 10, 12, 13).

Each sweep runs the simulator per layer per configuration point and
returns flat row dictionaries (layer, parameter value, metric) plus
the per-parameter geometric means the paper's "Gmean" bars show.

Execution routes through :class:`repro.runtime.SweepExecutor`: all
configuration points of one layer form one chunk, so whichever worker
owns the layer generates its trace once and replays it per point —
the same trace-reuse the serial loop had, now valid on worker threads
and backed by the persistent result cache when one is attached.
Without an ``executor`` a sweep runs inline, on a fresh serial
``SweepExecutor``: the bit-identical serial reference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conv.layer import ConvLayerSpec
from repro.conv.workloads import ALL_LAYERS
from repro.gpu.config import BASELINE_KERNEL, KernelConfig, SimulationOptions
from repro.gpu.simulator import EliminationMode, LayerResult
from repro.gpu.stats import geometric_mean
from repro.runtime.executor import SimPoint, SweepExecutor

#: The LHB sizes of Figures 9/10; None is the oracle.
LHB_SIZES: Tuple[Optional[int], ...] = (256, 512, 1024, 2048, None)

#: Associativities of Figure 12 (1 = direct-mapped).
LHB_ASSOCS: Tuple[int, ...] = (1, 2, 4, 8)

#: Batch sizes of Figure 13.
BATCH_SIZES: Tuple[int, ...] = (8, 16, 32)


def size_label(entries: Optional[int]) -> str:
    """Legend label for an LHB size ('oracle' for unbounded)."""
    return "oracle" if entries is None else f"{entries}-entry"


@dataclass
class SweepRow:
    """One (layer, configuration) measurement."""

    layer: str
    network: str
    parameter: object
    improvement: float
    hit_rate: float
    result: LayerResult = field(repr=False)


@dataclass
class SweepResult:
    """All rows of one sweep plus per-parameter geometric means."""

    rows: List[SweepRow]
    parameter_name: str

    def gmean_improvement(self, parameter: object) -> float:
        vals = [1 + r.improvement for r in self.rows if r.parameter == parameter]
        return geometric_mean(vals) - 1

    def mean_hit_rate(self, parameter: object) -> float:
        vals = [r.hit_rate for r in self.rows if r.parameter == parameter]
        return sum(vals) / len(vals)

    def parameters(self) -> List[object]:
        seen: List[object] = []
        for r in self.rows:
            if r.parameter not in seen:
                seen.append(r.parameter)
        return seen

    def layer_series(self, layer: str) -> Dict[object, float]:
        """parameter -> improvement for one layer (a figure's bar group)."""
        return {
            r.parameter: r.improvement for r in self.rows if r.layer == layer
        }


def _improvement_rows(
    layers: Sequence[ConvLayerSpec],
    configurations: Sequence[Tuple[object, Optional[int], int]],
    parameter_name: str,
    options: SimulationOptions,
    kernel: KernelConfig,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Shared sweep driver: (label, lhb_entries, assoc) points.

    One chunk per layer: the baseline point followed by every
    configuration point, so per-worker trace reuse matches the serial
    loop exactly.
    """
    executor = executor or SweepExecutor()
    chunks = []
    for spec in layers:
        points = [
            SimPoint(
                spec, EliminationMode.BASELINE, kernel=kernel, options=options
            )
        ]
        points.extend(
            SimPoint(
                spec,
                EliminationMode.DUPLO,
                lhb_entries=entries,
                lhb_assoc=assoc,
                kernel=kernel,
                options=options,
            )
            for _, entries, assoc in configurations
        )
        chunks.append(points)

    rows: List[SweepRow] = []
    for spec, chunk_results in zip(layers, executor.run_chunks(chunks)):
        base = chunk_results[0]
        for (parameter, _, _), result in zip(
            configurations, chunk_results[1:]
        ):
            rows.append(
                SweepRow(
                    layer=spec.qualified_name,
                    network=spec.network,
                    parameter=parameter,
                    improvement=result.speedup_over(base) - 1,
                    hit_rate=result.stats.lhb_hit_rate,
                    result=result,
                )
            )
    return SweepResult(rows=rows, parameter_name=parameter_name)


def lhb_size_sweep(
    layers: Sequence[ConvLayerSpec] = tuple(ALL_LAYERS),
    sizes: Sequence[Optional[int]] = LHB_SIZES,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figures 9 and 10: vary the LHB size (direct-mapped)."""
    return _improvement_rows(
        layers,
        [(size_label(s), s, 1) for s in sizes],
        "lhb_size",
        options,
        kernel,
        executor,
    )


def associativity_sweep(
    layers: Sequence[ConvLayerSpec] = tuple(ALL_LAYERS),
    assocs: Sequence[int] = LHB_ASSOCS,
    entries: int = 1024,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figure 12: 1024 entries reorganised as set-associative buffers.

    Matching the paper's experiment, no extra timing delay is charged
    for the higher associativities (it "overestimates the performance
    of set-associative LHBs").
    """
    return _improvement_rows(
        layers,
        [(f"{a}-way" if a > 1 else "direct", entries, a) for a in assocs],
        "associativity",
        options,
        kernel,
        executor,
    )


def batch_size_sweep(
    layers: Sequence[ConvLayerSpec] = tuple(ALL_LAYERS),
    batches: Sequence[int] = BATCH_SIZES,
    entries: int = 1024,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figure 13: vary the batch size with a fixed 1024-entry LHB.

    The workspace grows proportionally with the batch while the LHB
    does not, so improvements typically shrink — except where the
    LHB's coverage still exceeds the workspace (the paper's three
    regimes).
    """
    executor = executor or SweepExecutor()
    chunks = []
    for spec in layers:
        points: List[SimPoint] = []
        for batch in batches:
            batched = spec.with_batch(batch)
            points.append(
                SimPoint(
                    batched,
                    EliminationMode.BASELINE,
                    kernel=kernel,
                    options=options,
                )
            )
            points.append(
                SimPoint(
                    batched,
                    EliminationMode.DUPLO,
                    lhb_entries=entries,
                    kernel=kernel,
                    options=options,
                )
            )
        chunks.append(points)

    rows: List[SweepRow] = []
    for spec, chunk_results in zip(layers, executor.run_chunks(chunks)):
        for batch, (base, result) in zip(
            batches, zip(chunk_results[0::2], chunk_results[1::2])
        ):
            rows.append(
                SweepRow(
                    layer=spec.qualified_name,
                    network=spec.network,
                    parameter=batch,
                    improvement=result.speedup_over(base) - 1,
                    hit_rate=result.stats.lhb_hit_rate,
                    result=result,
                )
            )
    return SweepResult(rows=rows, parameter_name="batch")
