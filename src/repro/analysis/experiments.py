"""One entry point per figure/table in the paper's evaluation.

Every function returns an :class:`Experiment` whose ``rows`` are the
exact bars/series the paper plots and whose ``summary`` holds the
aggregate the paper quotes in prose, alongside ``paper`` — the
published value, read from :mod:`repro.analysis.claims` — so
EXPERIMENTS.md can tabulate paper-vs-measured.

All functions accept ``layers`` and ``options`` so the benchmark
suite can run reduced configurations (CTA caps) while examples and
EXPERIMENTS.md use the full traces.  :data:`REGISTRY` names every
experiment behind one call signature, and :data:`PAPER_EVALUATION`
lists the ones that make up the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.claims import paper_values
from repro.analysis.methodcost import (
    method_memory_ratio,
    method_speedup,
)
from repro.analysis.network import network_times
from repro.analysis.sweeps import (
    BATCH_SIZES,
    LHB_ASSOCS,
    LHB_SIZES,
    associativity_sweep,
    batch_size_sweep,
    lhb_size_sweep,
    size_label,
)
from repro.conv.layer import ConvLayerSpec
from repro.conv.methods import FIGURE_METHODS
from repro.conv.workloads import ALL_LAYERS, TABLE_I, get_layer
from repro.energy.model import (
    AreaModel,
    DEFAULT_AREA,
    DEFAULT_ENERGY,
    EnergyBreakdown,
    on_chip_energy_reduction,
)
from repro.gpu.config import (
    ARCHS,
    BASELINE_KERNEL,
    KernelConfig,
    SimulationOptions,
)
from repro.gpu.simulator import EliminationMode
from repro.gpu.stats import geometric_mean
from repro.runtime.executor import SimPoint, SweepExecutor


def _pairs_via_executor(
    layers: Sequence[ConvLayerSpec],
    lhb_entries: Optional[int],
    options: SimulationOptions,
    kernel: KernelConfig,
    executor: Optional[SweepExecutor],
):
    """(baseline, duplo) result pairs per layer, one chunk per layer."""
    executor = executor or SweepExecutor()
    chunks = [
        [
            SimPoint(
                spec, EliminationMode.BASELINE, kernel=kernel, options=options
            ),
            SimPoint(
                spec,
                EliminationMode.DUPLO,
                lhb_entries=lhb_entries,
                kernel=kernel,
                options=options,
            ),
        ]
        for spec in layers
    ]
    return executor.run_chunks(chunks)


@dataclass
class Experiment:
    """Rows + aggregates of one reproduced figure/table."""

    name: str
    description: str
    rows: List[Dict]
    summary: Dict[str, float] = field(default_factory=dict)
    #: The published value of each summary metric the paper quotes;
    #: by default the claims catalogue's values for ``name``.
    paper: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if self.paper is None:
            self.paper = paper_values(self.name)


def _default_layers(layers: Optional[Sequence[ConvLayerSpec]]):
    return list(layers) if layers is not None else list(ALL_LAYERS)


# ----------------------------------------------------------------------
# Figures 2 and 3: convolution method comparison
# ----------------------------------------------------------------------

def figure2(layers: Optional[Sequence[ConvLayerSpec]] = None) -> Experiment:
    """Speedup of each convolution method over direct convolution."""
    layers = _default_layers(layers)
    rows = []
    per_method: Dict[str, List[float]] = {m: [] for m in FIGURE_METHODS}
    for spec in layers:
        row: Dict = {"layer": spec.qualified_name}
        for method in FIGURE_METHODS:
            s = method_speedup(spec, method)
            row[method] = s
            if s is not None:
                per_method[method].append(s)
        rows.append(row)
    summary = {
        f"gmean_{m}": geometric_mean(v) if v else float("nan")
        for m, v in per_method.items()
    }
    return Experiment(
        name="figure2",
        description="Speedup of convolution methods over direct convolution",
        rows=rows,
        summary=summary,
    )


def figure3(layers: Optional[Sequence[ConvLayerSpec]] = None) -> Experiment:
    """Memory usage of each method relative to direct convolution."""
    layers = _default_layers(layers)
    rows = []
    per_method: Dict[str, List[float]] = {m: [] for m in FIGURE_METHODS}
    for spec in layers:
        row: Dict = {"layer": spec.qualified_name}
        for method in FIGURE_METHODS:
            r = method_memory_ratio(spec, method)
            row[method] = r
            if r is not None:
                per_method[method].append(r)
        rows.append(row)
    summary = {
        f"mean_{m}": sum(v) / len(v) if v else float("nan")
        for m, v in per_method.items()
    }
    return Experiment(
        name="figure3",
        description="Relative memory usage of convolution methods",
        rows=rows,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Figures 9 and 10: LHB size
# ----------------------------------------------------------------------

def figure9(
    layers: Optional[Sequence[ConvLayerSpec]] = None,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    executor: Optional[SweepExecutor] = None,
) -> Experiment:
    """Performance improvement vs. LHB size."""
    sweep = lhb_size_sweep(
        _default_layers(layers), LHB_SIZES, options, kernel, executor
    )
    rows = [
        {
            "layer": r.layer,
            "lhb": r.parameter,
            "improvement": r.improvement,
        }
        for r in sweep.rows
    ]
    summary = {
        f"gmean_{p}": sweep.gmean_improvement(p) for p in sweep.parameters()
    }
    return Experiment(
        name="figure9",
        description="Duplo performance improvement with variable-sized LHBs",
        rows=rows,
        summary=summary,
    )


def figure10(
    layers: Optional[Sequence[ConvLayerSpec]] = None,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    executor: Optional[SweepExecutor] = None,
) -> Experiment:
    """LHB hit rate vs. size, plus the theoretical limit."""
    layers = _default_layers(layers)
    sweep = lhb_size_sweep(layers, LHB_SIZES, options, kernel, executor)
    rows = [
        {"layer": r.layer, "lhb": r.parameter, "hit_rate": r.hit_rate}
        for r in sweep.rows
    ]
    limits = [
        r.result.stats.theoretical_hit_limit
        for r in sweep.rows
        if r.parameter == size_label(None)
    ]
    summary = {
        f"hit_{p}": sweep.mean_hit_rate(p) for p in sweep.parameters()
    }
    summary["theoretical_limit"] = sum(limits) / len(limits)
    return Experiment(
        name="figure10",
        description="LHB hit rate with variable buffer sizes",
        rows=rows,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Figure 11: memory-hierarchy service breakdown
# ----------------------------------------------------------------------

def figure11(
    layers: Optional[Sequence[ConvLayerSpec]] = None,
    lhb_entries: int = 1024,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    executor: Optional[SweepExecutor] = None,
) -> Experiment:
    """Which component serves each load, baseline vs. Duplo."""
    layers = _default_layers(layers)
    rows = []
    dram_deltas = []
    l1_deltas = []
    l2_deltas = []
    pairs = _pairs_via_executor(
        layers, lhb_entries, options, kernel, executor
    )
    for spec, (base, duplo) in zip(layers, pairs):
        rows.append(
            {
                "layer": spec.qualified_name,
                "baseline": base.stats.breakdown.fractions(),
                "duplo": duplo.stats.breakdown.fractions(),
            }
        )
        dram_deltas.append(
            1 - duplo.stats.dram_read_bytes / max(base.stats.dram_read_bytes, 1)
        )
        l1_deltas.append(
            1 - duplo.stats.breakdown.l1 / max(base.stats.breakdown.l1, 1)
        )
        l2_deltas.append(
            1 - duplo.stats.breakdown.l2 / max(base.stats.breakdown.l2, 1)
        )
    summary = {
        "mean_dram_traffic_reduction": sum(dram_deltas) / len(dram_deltas),
        "mean_l1_service_reduction": sum(l1_deltas) / len(l1_deltas),
        "mean_l2_service_reduction": sum(l2_deltas) / len(l2_deltas),
    }
    return Experiment(
        name="figure11",
        description="Breakdown of data services along the memory hierarchy",
        rows=rows,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Figure 12: set associativity
# ----------------------------------------------------------------------

def figure12(
    layers: Optional[Sequence[ConvLayerSpec]] = None,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    executor: Optional[SweepExecutor] = None,
) -> Experiment:
    """Set-associative LHBs vs. the direct-mapped default."""
    sweep = associativity_sweep(
        _default_layers(layers), LHB_ASSOCS, 1024, options, kernel, executor
    )
    rows = [
        {"layer": r.layer, "assoc": r.parameter, "improvement": r.improvement}
        for r in sweep.rows
    ]
    summary = {
        f"gmean_{p}": sweep.gmean_improvement(p) for p in sweep.parameters()
    }
    direct = 1 + summary["gmean_direct"]
    eight = 1 + summary["gmean_8-way"]
    summary["eight_way_advantage"] = eight / direct - 1
    return Experiment(
        name="figure12",
        description="Performance impact of set-associative LHBs",
        rows=rows,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Figure 13: batch size
# ----------------------------------------------------------------------

def figure13(
    layers: Optional[Sequence[ConvLayerSpec]] = None,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    executor: Optional[SweepExecutor] = None,
) -> Experiment:
    """Performance improvement across batch sizes 8/16/32."""
    sweep = batch_size_sweep(
        _default_layers(layers), BATCH_SIZES, 1024, options, kernel, executor
    )
    rows = [
        {
            "layer": r.layer,
            "batch": r.parameter,
            "improvement": r.improvement,
            # The paper's coverage argument: how much of the SM's
            # unique workspace the fixed LHB can hold at once.
            "lhb_coverage": min(
                1.0,
                1024 / max(r.result.sm_stats.unique_workspace_ids, 1),
            ),
        }
        for r in sweep.rows
    ]
    summary = {
        f"gmean_batch{p}": sweep.gmean_improvement(p) for p in sweep.parameters()
    }
    small = 1 + summary["gmean_batch8"]
    large = 1 + summary["gmean_batch32"]
    summary["batch32_degradation"] = 1 - large / small
    return Experiment(
        name="figure13",
        description="Performance implications of variable-sized batches",
        rows=rows,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Figure 14: network-level execution time
# ----------------------------------------------------------------------

def figure14(
    lhb_entries: int = 1024,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    executor: Optional[SweepExecutor] = None,
) -> Experiment:
    """Inference/training execution time, baseline vs. Duplo.

    Baseline and Duplo run as one sweep, so each distinct layer
    simulation — three per layer — runs once.
    """
    base, duplo = network_times(
        [
            (EliminationMode.BASELINE, lhb_entries),
            (EliminationMode.DUPLO, lhb_entries),
        ],
        options=options,
        kernel=kernel,
        executor=executor,
    )
    rows = []
    infer = []
    train = []
    for network in TABLE_I:
        inf_red = duplo[network].inference_reduction(base[network])
        trn_red = duplo[network].training_reduction(base[network])
        rows.append(
            {
                "network": network,
                "inference_reduction": inf_red,
                "training_reduction": trn_red,
                "norm_inference_time": 1 - inf_red,
                "norm_training_time": 1 - trn_red,
            }
        )
        infer.append(1 - inf_red)
        train.append(1 - trn_red)
    summary = {
        "gmean_inference_reduction": 1 - geometric_mean(infer),
        "gmean_training_reduction": 1 - geometric_mean(train),
    }
    return Experiment(
        name="figure14",
        description="Network-level execution time (inference and training)",
        rows=rows,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Section V-H: concurrent kernels sharing one SM's LHB
# ----------------------------------------------------------------------

def multikernel_sharing(
    layers: Optional[Sequence[ConvLayerSpec]] = None,
    lhb_entries: Optional[int] = 1024,
    chunk: int = 256,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
) -> Experiment:
    """PID-tagged sharing study: all ``layers`` co-resident on one SM.

    For each kernel: its hit rate running alone vs. time-sliced
    against the rest of the set through one shared buffer.  The PID
    tag field guarantees isolation (no cross-kernel aliasing); the
    contention loss quantifies how much capacity pressure the shared
    working sets add.
    """
    from repro.gpu.multikernel import simulate_shared_lhb

    layers = _default_layers(layers)
    shared = simulate_shared_lhb(
        layers, lhb_entries, chunk=chunk, kernel=kernel, options=options
    )
    rows = []
    losses = []
    for pid, spec in enumerate(layers):
        solo = simulate_shared_lhb(
            [spec], lhb_entries, chunk=chunk, kernel=kernel, options=options
        )[0]
        loss = solo.hit_rate - shared[pid].hit_rate
        losses.append(loss)
        rows.append(
            {
                "layer": spec.qualified_name,
                "pid": pid,
                "lookups": shared[pid].lookups,
                "solo_hit_rate": solo.hit_rate,
                "shared_hit_rate": shared[pid].hit_rate,
                "contention_loss": loss,
            }
        )
    total_lookups = sum(r["lookups"] for r in rows)
    total_hits = sum(s.hits for s in shared)
    summary = {
        "kernels": float(len(layers)),
        "shared_hit_rate": total_hits / total_lookups if total_lookups else 0.0,
        "mean_contention_loss": sum(losses) / len(losses),
        "max_contention_loss": max(losses),
    }
    return Experiment(
        name="multikernel",
        description="Concurrent kernels sharing one SM's LHB (PID tags)",
        rows=rows,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Table II: detection-unit workflow
# ----------------------------------------------------------------------

def table2() -> Experiment:
    """The worked Duplo workflow example on the Figure 6 toy layer.

    Four tensor-core loads against a 4x4 input lowered with a 3x3
    unit-stride filter: miss/allocate, bypass (non-workspace), hit /
    register reuse, conflict miss / entry replacement.
    """
    from repro.analysis.table2 import run_table2_workflow

    rows = run_table2_workflow()
    hits = sum(1 for r in rows if r["lhb"] == "hit")
    return Experiment(
        name="table2",
        description="Duplo workflow example (LHB miss/bypass/hit/replace)",
        rows=rows,
        summary={"hits": hits},
    )


# ----------------------------------------------------------------------
# Section V-H: energy and area
# ----------------------------------------------------------------------

def energy_area(
    layers: Optional[Sequence[ConvLayerSpec]] = None,
    lhb_entries: int = 1024,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    executor: Optional[SweepExecutor] = None,
) -> Experiment:
    """On-chip energy reduction and detection-unit area overhead."""
    layers = _default_layers(layers)
    rows = []
    base_total: Optional[EnergyBreakdown] = None
    duplo_total: Optional[EnergyBreakdown] = None
    pairs = _pairs_via_executor(
        layers, lhb_entries, options, kernel, executor
    )
    for spec, (base, duplo) in zip(layers, pairs):
        eb = DEFAULT_ENERGY.breakdown(base.stats)
        ed = DEFAULT_ENERGY.breakdown(duplo.stats)
        rows.append(
            {
                "layer": spec.qualified_name,
                "on_chip_reduction": on_chip_energy_reduction(eb, ed),
                "baseline_pj": eb.on_chip_pj,
                "duplo_pj": ed.on_chip_pj,
            }
        )
        base_total = eb if base_total is None else base_total.merge(eb)
        duplo_total = ed if duplo_total is None else duplo_total.merge(ed)
    summary = {
        "on_chip_energy_reduction": on_chip_energy_reduction(
            base_total, duplo_total
        ),
        "area_overhead": DEFAULT_AREA.area_overhead(lhb_entries),
    }
    return Experiment(
        name="energy_area",
        description="On-chip energy reduction and area overhead (Sec V-H)",
        rows=rows,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Architecture zoo: Duplo across tensor-core generations
# ----------------------------------------------------------------------

def arch_zoo(
    layers: Optional[Sequence[ConvLayerSpec]] = None,
    lhb_entries: int = 1024,
    options: SimulationOptions = SimulationOptions(),
    executor: Optional[SweepExecutor] = None,
) -> Experiment:
    """Duplo and WIR across every :data:`ARCHS` preset.

    One row per (arch, layer, mode): improvement over that arch's own
    baseline, LHB hit rate, elimination rate, plus the preset's
    detection-unit area overhead (the WIR element-ID field widens as
    fragments shrink below Volta's 32 bytes).  The default layer set
    pairs two Table I convs with the two attention GEMMs so every
    fragment geometry exercises both workload classes.
    """
    if layers is None:
        layers = [
            get_layer("resnet", "C2"),
            get_layer("yolo", "C3"),
            get_layer("attention", "QK"),
            get_layer("attention", "PV"),
        ]
    else:
        layers = list(layers)
    executor = executor or SweepExecutor()
    rows: List[Dict] = []
    summary: Dict[str, float] = {}
    for name, preset in ARCHS.items():
        chunks = [
            [
                SimPoint(
                    spec,
                    mode,
                    lhb_entries=lhb_entries,
                    gpu=preset.gpu,
                    kernel=preset.kernel,
                    options=options,
                )
                for mode in (
                    EliminationMode.BASELINE,
                    EliminationMode.DUPLO,
                    EliminationMode.WIR,
                )
            ]
            for spec in layers
        ]
        outs = executor.run_chunks(chunks)
        speedups: Dict[str, List[float]] = {"duplo": [], "wir": []}
        for spec, (base, duplo, wir) in zip(layers, outs):
            for label, result in (("duplo", duplo), ("wir", wir)):
                speedup = result.speedup_over(base)
                speedups[label].append(speedup)
                rows.append(
                    {
                        "arch": name,
                        "layer": spec.qualified_name,
                        "mode": label,
                        "improvement": speedup - 1,
                        "hit_rate": result.stats.lhb_hit_rate,
                        "eliminated": result.stats.elimination_rate,
                    }
                )
        for label, values in speedups.items():
            summary[f"gmean_{label}_{name}"] = geometric_mean(values) - 1
        summary[f"area_overhead_{name}"] = AreaModel.for_arch(
            preset.gpu
        ).area_overhead(lhb_entries)
    return Experiment(
        name="arch_zoo",
        description="Duplo/WIR improvement across tensor-core generations",
        rows=rows,
        summary=summary,
    )


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

#: Every experiment by name, as a builder ``(layers, options, executor)
#: -> Experiment``; ``layers=None`` runs the experiment's default layer
#: set.  A builder ignores what its experiment does not take: Figures
#: 2/3 are analytic, Figure 14 runs whole networks, the multi-kernel
#: study replays without an executor, and Table II is a fixed example.
REGISTRY: Dict[str, Callable[..., Experiment]] = {
    "figure2": lambda layers, options, executor: figure2(layers=layers),
    "figure3": lambda layers, options, executor: figure3(layers=layers),
    "table2": lambda layers, options, executor: table2(),
    "figure9": lambda layers, options, executor: figure9(
        layers=layers, options=options, executor=executor
    ),
    "figure10": lambda layers, options, executor: figure10(
        layers=layers, options=options, executor=executor
    ),
    "figure11": lambda layers, options, executor: figure11(
        layers=layers, options=options, executor=executor
    ),
    "figure12": lambda layers, options, executor: figure12(
        layers=layers, options=options, executor=executor
    ),
    "figure13": lambda layers, options, executor: figure13(
        layers=layers, options=options, executor=executor
    ),
    "figure14": lambda layers, options, executor: figure14(
        options=options, executor=executor
    ),
    "energy_area": lambda layers, options, executor: energy_area(
        layers=layers, options=options, executor=executor
    ),
    "multikernel": lambda layers, options, executor: multikernel_sharing(
        layers=layers, options=options
    ),
    "arch_zoo": lambda layers, options, executor: arch_zoo(
        layers=layers, options=options, executor=executor
    ),
}

#: The paper's evaluation, in the order ``results/experiments.txt``
#: records it.
PAPER_EVALUATION = (
    "figure2", "figure3", "table2", "figure9", "figure10", "figure11",
    "figure12", "figure13", "figure14", "energy_area",
)
