"""Catalog of the paper's quantitative claims.

Every number the paper states in its evaluation (and the quantitative
statements scattered through Sections II–IV) is registered here with
its source location and, where this reproduction measures an
equivalent, the experiment/metric that produces it.  This is the one
copy of each published value: every experiment's ``paper`` dict is
read from it (:func:`paper_values`), and EXPERIMENTS.md is the
human-readable rendering of the same mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Claim:
    """One quantitative statement from the paper."""

    key: str
    section: str
    statement: str
    value: float
    #: (experiment name, summary metric) producing our measurement, or
    #: None when the claim is checked by a dedicated test instead.
    measured_by: Optional[Tuple[str, str]] = None


CLAIMS: List[Claim] = [
    Claim(
        key="gemm_speedup",
        section="II-A / Fig 2",
        statement="GEMM-based convolution achieves 13.5x over direct",
        value=13.5,
        measured_by=("figure2", "gmean_gemm"),
    ),
    Claim(
        key="gemm_tc_speedup",
        section="II-A / Fig 2",
        statement="Tensor cores accelerate the GEMM convolution 25.7x",
        value=25.7,
        measured_by=("figure2", "gmean_gemm_tc"),
    ),
    Claim(
        key="winograd_speedup",
        section="II-A / Fig 2",
        statement="Winograd achieves 20.7x over direct",
        value=20.7,
        measured_by=("figure2", "gmean_winograd"),
    ),
    Claim(
        key="fft_speedup",
        section="II-A / Fig 2",
        statement="FFT achieves 11.5x over direct",
        value=11.5,
        measured_by=("figure2", "gmean_fft"),
    ),
    Claim(
        key="gemm_memory",
        section="II-A / Fig 3",
        statement="Explicit GEMM needs 9.7x the direct footprint",
        value=9.7,
        measured_by=("figure3", "mean_gemm"),
    ),
    Claim(
        key="implicit_memory",
        section="II-C / Fig 3",
        statement="Implicit GEMM (tensor cores) needs only 1.1x",
        value=1.1,
        measured_by=("figure3", "mean_gemm_tc"),
    ),
    Claim(
        key="winograd_memory",
        section="II-A / Fig 3",
        statement="Winograd needs 12.2x the direct footprint",
        value=12.2,
        measured_by=("figure3", "mean_winograd"),
    ),
    Claim(
        key="fft_memory",
        section="II-A / Fig 3",
        statement="FFT needs 53.5x the direct footprint",
        value=53.5,
        measured_by=("figure3", "mean_fft"),
    ),
    Claim(
        key="tc_operational_intensity",
        section="II-B",
        statement="Tensor cores offer 8x per-block MAC rate at equal precision",
        value=8.0,
    ),
    Claim(
        key="c_only_advantage",
        section="II-C",
        statement="C-only-in-shared beats all-in-shared by 29.7% (3 vs 1 CTAs)",
        value=0.297,
    ),
    Claim(
        key="table2_hits",
        section="IV / Table II",
        statement="The four-load workflow example hits the LHB once",
        value=1,
        measured_by=("table2", "hits"),
    ),
    Claim(
        key="conv_info_bytes",
        section="IV-A",
        statement="Compiler blob totals 32 bytes per kernel",
        value=32,
    ),
    Claim(
        key="detection_latency_cost",
        section="IV-A",
        statement="A 3-cycle detection unit costs only ~0.9%",
        value=0.009,
    ),
    Claim(
        key="compiler_tag_storage",
        section="IV-D",
        statement="Compiler-only tags for YOLO C2 need 27.2 GB",
        value=27.2e9,
    ),
    Claim(
        key="oracle_improvement",
        section="V-B / Fig 9",
        statement="Oracle LHB improves performance 25.9% on average",
        value=0.259,
        measured_by=("figure9", "gmean_oracle"),
    ),
    Claim(
        key="default_improvement",
        section="V-B / Fig 9",
        statement="1024-entry LHB improves performance 22.1%",
        value=0.221,
        measured_by=("figure9", "gmean_1024-entry"),
    ),
    Claim(
        key="oracle_elimination",
        section="V-B",
        statement="Oracle eliminates ~76% of tensor-core loads",
        value=0.76,
        measured_by=("figure10", "hit_oracle"),
    ),
    Claim(
        key="theoretical_hit_limit",
        section="V-C",
        statement="Theoretical hit-rate ceiling is 88.9%",
        value=0.889,
        measured_by=("figure10", "theoretical_limit"),
    ),
    Claim(
        key="dram_traffic_reduction",
        section="V-D / Fig 11",
        statement="Duplo cuts DRAM traffic 26.6% at 1024 entries",
        value=0.266,
        measured_by=("figure11", "mean_dram_traffic_reduction"),
    ),
    Claim(
        key="l1_service_reduction",
        section="V-D / Fig 11",
        statement="Duplo cuts L1 data services 28.1% at 1024 entries",
        value=0.281,
        measured_by=("figure11", "mean_l1_service_reduction"),
    ),
    Claim(
        key="l2_service_reduction",
        section="V-D / Fig 11",
        statement="Duplo cuts L2 data services 19.2% at 1024 entries",
        value=0.192,
        measured_by=("figure11", "mean_l2_service_reduction"),
    ),
    Claim(
        key="cache_scaling_futility",
        section="V-D",
        statement="16x L1 + 4x L2 caches buy only 1.8%",
        value=0.018,
    ),
    Claim(
        key="associativity_gain",
        section="V-E / Fig 12",
        statement="8-way LHB gains only 3.6% over direct-mapped",
        value=0.036,
        measured_by=("figure12", "eight_way_advantage"),
    ),
    Claim(
        key="batch_degradation",
        section="V-F / Fig 13",
        statement="Batch 8 to 32 loses 8.2% of the improvement",
        value=0.082,
        measured_by=("figure13", "batch32_degradation"),
    ),
    Claim(
        key="inference_reduction",
        section="V-G / Fig 14",
        statement="Duplo reduces inference time 22.7%",
        value=0.227,
        measured_by=("figure14", "gmean_inference_reduction"),
    ),
    Claim(
        key="training_reduction",
        section="V-G / Fig 14",
        statement="Duplo reduces training time 8.3%",
        value=0.083,
        measured_by=("figure14", "gmean_training_reduction"),
    ),
    Claim(
        key="energy_reduction",
        section="V-H",
        statement="34.1% on-chip energy reduction",
        value=0.341,
        measured_by=("energy_area", "on_chip_energy_reduction"),
    ),
    Claim(
        key="area_overhead",
        section="V-H",
        statement="0.77% area overhead vs. the register file",
        value=0.0077,
        measured_by=("energy_area", "area_overhead"),
    ),
]


def measured_claims() -> List[Claim]:
    """Claims whose value an experiment summary reproduces directly."""
    return [c for c in CLAIMS if c.measured_by is not None]


def paper_values(experiment: str) -> Dict[str, float]:
    """The published value of each summary metric ``experiment``
    reproduces: the ``paper`` column of its results."""
    return {
        c.measured_by[1]: c.value
        for c in measured_claims()
        if c.measured_by[0] == experiment
    }
