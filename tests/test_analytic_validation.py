"""Differential validation: analytic predictions vs exact replay.

The load-bearing accuracy harness of the analytic engine tier.  Every
grid point is answered twice — :func:`repro.analytic.model
.predict_stats` over the cached profile, and trace generation plus the
columnar replay called *directly* (so no engine selection, result
cache, or ``$REPRO_ENGINE`` override can leak into the exact side) —
and per-metric relative errors must stay within the committed bound
table ``tests/goldens/analytic_bounds.json``:

* LHB hit rate and elimination rate are **exact** (bound ``1e-9``):
  the per-level distinct-tag tables reproduce the replay's verdicts
  bit for bit across direct-mapped, set-associative and oracle
  buffers, hashed and modular indexing, any lifetime;
* cache/DRAM traffic and the on-chip energy delta interpolate between
  exact anchors and carry honest measured bounds (~2x the observed
  worst error).

The default test sweeps a representative layer subset (the worst
offenders observed across the full set, one per metric, plus the
paper's headline layers); the ``slow``-marked variant sweeps the full
Table I set exactly as the bounds were recorded.  A meta-test loosens
one predictor by 10% and proves the harness fails with a readable
worst-offender report — the bound assertions are only as good as
their ability to actually trip.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analytic import (
    DEFAULT_GEOMETRIES,
    METRIC_FLOORS,
    predict_stats,
    validate,
)
from repro.conv.workloads import ALL_LAYERS, get_layer

BOUNDS_PATH = Path(__file__).parent / "goldens" / "analytic_bounds.json"
BOUNDS = json.loads(BOUNDS_PATH.read_text())["bounds"]

#: Representative subset for the tier-1 lane: the observed worst
#: offender per metric over the full Table I sweep (gan TC2/TC3/TC4,
#: resnet C4) plus the paper's headline layers (resnet C1, yolo C2).
SUBSET = [
    ("resnet", "C1"),
    ("resnet", "C4"),
    ("yolo", "C2"),
    ("gan", "TC2"),
    ("gan", "TC3"),
    ("gan", "TC4"),
]


def test_bound_table_covers_exactly_the_validated_metrics():
    assert set(BOUNDS) == set(METRIC_FLOORS)
    # Rates must stay pinned exact: loosening them is a model
    # regression, not a tolerance call.
    assert BOUNDS["lhb_hit_rate"] <= 1e-9
    assert BOUNDS["elimination_rate"] <= 1e-9


def test_representative_subset_within_bounds():
    layers = [get_layer(net, name) for net, name in SUBSET]
    report = validate(layers)
    assert report.points == len(layers) * 2 * len(DEFAULT_GEOMETRIES)
    failures = report.failures(BOUNDS)
    assert not failures, report.format_failures(BOUNDS)


@pytest.mark.slow
def test_full_table1_within_bounds():
    report = validate(ALL_LAYERS)
    assert report.points == len(ALL_LAYERS) * 2 * len(DEFAULT_GEOMETRIES)
    failures = report.failures(BOUNDS)
    assert not failures, report.format_failures(BOUNDS)


def test_loosened_predictor_trips_the_harness():
    """Deliberately degrade one predictor: the bounds must catch it
    and the failure report must name the offender readably."""

    def sloppy(profile, lhb=None):
        stats = predict_stats(profile, lhb)
        stats.l1_hits = int(stats.l1_hits * 1.10)
        return stats

    layers = [get_layer("yolo", "C2")]
    report = validate(layers, predict=sloppy)
    failures = report.failures(BOUNDS)
    failed_metrics = {metric for metric, _, _ in failures}
    assert "l1_hits" in failed_metrics
    text = report.format_failures(BOUNDS)
    assert "l1_hits" in text
    assert "yolo/C2" in text
    assert "bound" in text and "exceeded" in text
    assert "predicted=" in text and "exact=" in text


def test_missing_metric_is_itself_a_failure():
    """A bound whose metric the sweep never exercised must fail loudly
    (a silently skipped metric would look like a pass forever)."""
    report = validate([])  # empty sweep records nothing
    failures = report.failures(BOUNDS)
    assert {metric for metric, _, _ in failures} == set(BOUNDS)


def test_baseline_mode_is_exact():
    """BASELINE carries no elimination, sits on the first traffic
    anchor, and must therefore match the replay bit for bit — on a
    Table I layer, a rectangular one and a non-default GTO runahead.
    The profile's scalar meta and event count are the trace's."""
    from repro.analytic import layer_profile
    from repro.gpu.config import SimulationOptions, TITAN_V, BASELINE_KERNEL
    from repro.gpu.fastpath import replay_trace_fast
    from repro.gpu.kernel import generate_sm_trace
    from repro.gpu.ldst import EliminationMode

    from tests.conftest import make_spec

    cases = [
        (get_layer("resnet", "C2"), BASELINE_KERNEL,
         SimulationOptions(max_ctas=2)),
        (make_spec(name="rect", h=6, w=10, c=8, filters=24),
         BASELINE_KERNEL, SimulationOptions()),
        (get_layer("yolo", "C2"),
         dataclasses.replace(BASELINE_KERNEL, warp_runahead=3),
         SimulationOptions(max_ctas=3)),
    ]
    for spec, kernel, options in cases:
        trace = generate_sm_trace(spec, TITAN_V, kernel, options)
        exact = replay_trace_fast(
            trace, spec, TITAN_V, options, EliminationMode.BASELINE, None
        )
        profile = layer_profile(
            spec, EliminationMode.BASELINE, TITAN_V, kernel, options
        )
        predicted = predict_stats(profile, None)
        assert dataclasses.asdict(predicted) == dataclasses.asdict(exact)
        assert profile.meta.meta() == trace.meta()
        assert profile.meta.scale_factor == trace.scale_factor
        assert profile.events == len(trace)
