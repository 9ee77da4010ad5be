"""Network-level execution time (Figure 14).

A DNN's execution time is modelled as the sum of its convolutional
layers' times (the paper: pooling/softmax are "infinitesimally small"
— carried here as a configurable epsilon):

* **inference** — one forward pass; Duplo accelerates every lowered
  convolution;
* **training** — forward plus backward.  The backward pass runs two
  GEMMs per layer: the *data gradient*, which is itself a convolution
  (``repro.conv.gradients.data_gradient_spec``) and is simulated as
  one, and the *weight gradient*, a (K x F x M) contraction with no
  input-workspace duplication, charged at its baseline GEMM cost.
  Duplo's detection unit is only programmed for the forward
  convolutions (matching the paper's 8.3%-vs-22.7% asymmetry);
  ``accelerate_backward=True`` is the what-if ablation where the
  compiler also programs the data-gradient convolutions.

Every layer simulation is a :class:`~repro.runtime.executor.SimPoint`
submitted through one :class:`~repro.runtime.executor.SweepExecutor`
sweep.  A layer's forward points (the weight gradient, which is the
baseline forward GEMM, and every configuration's forward GEMM) form
one chunk, so the layer's trace is synthesized once; each data
gradient is a chunk of its own.  The executor
runs equal points once, so a baseline GEMM shared by the weight
gradient and several configurations is simulated once per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.conv.gradients import data_gradient_spec
from repro.conv.layer import ConvLayerSpec
from repro.conv.workloads import TABLE_I
from repro.gpu.config import BASELINE_KERNEL, KernelConfig, SimulationOptions
# Nothing here calls ``simulate_layer``: the name is imported only
# because ``bench/tracing.py`` wraps ``network.simulate_layer``.
from repro.gpu.simulator import EliminationMode, simulate_layer  # noqa: F401
from repro.runtime.executor import SimPoint, SweepExecutor

#: Fraction of network time in non-convolution layers (pooling,
#: softmax, ...) — invisible in the paper's Figure 14.
NON_CONV_EPSILON = 0.002

#: One network-time configuration: the forward convolutions' mode and
#: LHB size.
Configuration = Tuple[EliminationMode, Optional[int]]


@dataclass(frozen=True)
class NetworkTime:
    """Execution time of one network under one configuration."""

    network: str
    inference_cycles: float
    training_cycles: float

    def inference_reduction(self, baseline: "NetworkTime") -> float:
        """Fractional execution-time reduction vs. a baseline run."""
        return 1.0 - self.inference_cycles / baseline.inference_cycles

    def training_reduction(self, baseline: "NetworkTime") -> float:
        return 1.0 - self.training_cycles / baseline.training_cycles


def _point(
    spec: ConvLayerSpec,
    mode: EliminationMode,
    lhb_entries: Optional[int],
    options: SimulationOptions,
    kernel: KernelConfig,
) -> SimPoint:
    """One layer simulation.  Baseline points carry the default LHB
    fields (the baseline ignores them), so every baseline run of one
    GEMM is the same point."""
    if mode is EliminationMode.BASELINE:
        return SimPoint(spec, mode, kernel=kernel, options=options)
    return SimPoint(
        spec, mode, lhb_entries=lhb_entries, kernel=kernel, options=options
    )


def network_times(
    configurations: Sequence[Configuration],
    networks: Mapping[str, Sequence[ConvLayerSpec]] = TABLE_I,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    accelerate_backward: bool = False,
    executor: Optional[SweepExecutor] = None,
) -> List[Dict[str, NetworkTime]]:
    """Network times of several configurations, as one sweep.

    Returns one ``{network: NetworkTime}`` dict per configuration, in
    order.  Each layer contributes one forward chunk — its weight
    gradient, then every configuration's forward GEMM — and one
    single-point data-gradient chunk per configuration.
    """
    executor = executor or SweepExecutor()
    chunks: List[List[SimPoint]] = []
    for layers in networks.values():
        for spec in layers:
            # Weight gradient: same MAC volume, no programmed workspace;
            # charged at the forward GEMM's baseline cost.
            wgrad = _point(spec, EliminationMode.BASELINE, None, options,
                           kernel)
            chunks.append([wgrad] + [
                _point(spec, mode, entries, options, kernel)
                for mode, entries in configurations
            ])
            # Data gradient: a real (often transposed) convolution.
            dgrad = data_gradient_spec(spec)
            for mode, entries in configurations:
                dgrad_mode = (
                    mode if accelerate_backward else EliminationMode.BASELINE
                )
                chunks.append(
                    [_point(dgrad, dgrad_mode, entries, options, kernel)]
                )
    results = iter(executor.run_chunks(chunks))

    totals = [
        {network: [0.0, 0.0] for network in networks}
        for _ in configurations
    ]
    for network, layers in networks.items():
        for _spec in layers:
            wgrad, *forward = next(results)
            for c, fwd in enumerate(forward):
                (dgrad,) = next(results)
                total = totals[c][network]
                total[0] += fwd.cycles
                total[1] += dgrad.cycles + wgrad.cycles
    return [
        {
            network: NetworkTime(
                network=network,
                inference_cycles=fwd * (1 + NON_CONV_EPSILON),
                training_cycles=(fwd + bwd) * (1 + NON_CONV_EPSILON),
            )
            for network, (fwd, bwd) in config_totals.items()
        }
        for config_totals in totals
    ]


def network_time(
    network: str,
    mode: EliminationMode = EliminationMode.DUPLO,
    lhb_entries: Optional[int] = 1024,
    layers: Optional[Sequence[ConvLayerSpec]] = None,
    options: SimulationOptions = SimulationOptions(),
    kernel: KernelConfig = BASELINE_KERNEL,
    accelerate_backward: bool = False,
) -> NetworkTime:
    """Total cycles for one network's inference and training steps."""
    if layers is None:
        layers = TABLE_I[network]
    (times,) = network_times(
        [(mode, lhb_entries)],
        {network: layers},
        options=options,
        kernel=kernel,
        accelerate_backward=accelerate_backward,
    )
    return times[network]

