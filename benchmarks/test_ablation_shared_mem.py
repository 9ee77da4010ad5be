"""Ablation (Section II-C): shared-memory staging vs. occupancy.

The paper compared three GEMM variants — all of A/B/C in shared
memory (1 CTA/SM), A+C (order 2 CTAs), and C only (3 CTAs/SM) — and
found C-only ~29.7% faster thanks to the extra thread-level
parallelism.  We reproduce the occupancy arithmetic and the
performance ordering from the latency-hiding term it feeds.

The variant sweep itself rides the vectorised replay (every kernel
variant is a covered configuration); the last test times it against
the event path and records the ratio in
``results/runtime_scaling.json``.
"""

import time

from repro import obs
from repro.gpu.config import KernelConfig, TITAN_V
from repro.gpu.simulator import EliminationMode, simulate_layer
from repro.gpu.stats import geometric_mean

from benchmarks.conftest import run_once
from benchmarks.test_runtime_scaling import _merge_results
from tests.conftest import event_oracle

VARIANTS = {
    "abc_in_shared": KernelConfig(shared_operands="abc"),
    "ac_in_shared": KernelConfig(shared_operands="ac"),
    "c_only": KernelConfig(shared_operands="c"),
}


def test_occupancy_arithmetic(benchmark):
    ctas = run_once(
        benchmark,
        lambda: {name: k.ctas_per_sm(TITAN_V) for name, k in VARIANTS.items()},
    )
    print("\nCTAs per SM:", ctas)
    # Section II-C: the all-in-shared case fits fewer CTAs than C-only,
    # which reaches three.
    assert ctas["abc_in_shared"] < ctas["c_only"]
    assert ctas["c_only"] == 3


def test_c_only_baseline_fastest(benchmark, bench_layers, bench_options):
    def sweep():
        times = {}
        for name, kernel in VARIANTS.items():
            cycles = [
                simulate_layer(
                    spec,
                    EliminationMode.BASELINE,
                    kernel=kernel,
                    options=bench_options,
                ).cycles
                for spec in bench_layers
            ]
            times[name] = geometric_mean(cycles)
        return times

    times = run_once(benchmark, sweep)
    advantage = times["abc_in_shared"] / times["c_only"] - 1
    print(f"\nC-only over all-in-shared: {advantage:+.1%} (paper: +29.7%)")
    assert times["c_only"] <= times["abc_in_shared"]


def test_ablation_fast_path_speedup(bench_layers, bench_options):
    """All three variants replay vectorised: fast tier only, identical
    cycle counts, and the sweep beats the event-level oracle >= 2.5x
    (the baseline-mode replay carries no LHB, so the ratio is pure
    load/store + cache mask work — measured ~3.3x)."""

    def sweep():
        return {
            name: [
                simulate_layer(
                    spec,
                    EliminationMode.BASELINE,
                    kernel=kernel,
                    options=bench_options,
                ).cycles
                for spec in bench_layers
            ]
            for name, kernel in VARIANTS.items()
        }

    sweep()  # warm the trace cache: timings compare pure replay

    obs.enable()
    obs.reset()
    try:
        t0 = time.perf_counter()
        fast = sweep()
        t_fast = time.perf_counter() - t0
        counters = obs.snapshot()["counters"]
    finally:
        obs.reset()
        obs.disable()
    selected = {k for k in counters if k.startswith("engine.selected.")}
    assert selected == {"engine.selected.fast"}, counters

    with event_oracle():
        t0 = time.perf_counter()
        event = sweep()
        t_event = time.perf_counter() - t0
    assert fast == event

    ratios = {
        "ablation_sweep_event_s": round(t_event, 4),
        "ablation_sweep_fast_s": round(t_fast, 4),
        "ablation_sweep_speedup": round(t_event / max(t_fast, 1e-9), 2),
    }
    _merge_results(ratios)
    print(f"\nshared-mem ablation sweep: {ratios}")
    assert ratios["ablation_sweep_speedup"] >= 2.5, ratios
