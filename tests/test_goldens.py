"""Golden regression fixtures for the figure entry points.

``tests/goldens/*.json`` pins the exact rows of ``figure9`` /
``figure10`` / ``figure12`` / ``table2`` / ``multikernel`` on a fixed
three-layer subset at ``max_ctas=2``, plus one ``arch_<preset>``
fixture per architecture-zoo entry (conv + attention layers under
duplo and wir).  Tolerances are tight (relative
1e-9) — the point is to catch refactors that *silently* shift
reported numbers, not to allow drift: the figure12 fixture pins the
offline per-set LRU resolution, the multikernel fixture the
PID-folded shared-buffer replay.  After an intentional model change,
regenerate with::

    PYTHONPATH=src python scripts/make_goldens.py

and commit the refreshed fixtures alongside the change.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import experiments
from repro.conv.workloads import get_layer
from repro.gpu.config import ARCHS, SimulationOptions
from repro.gpu.simulator import clear_trace_cache

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_LAYERS = [("resnet", "C2"), ("gan", "TC3"), ("yolo", "C2")]
GOLDEN_OPTIONS = SimulationOptions(max_ctas=2)
REL_TOL = 1e-9


def _load(name):
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        return json.load(fh)


def _layers():
    return [get_layer(net, name) for net, name in GOLDEN_LAYERS]


def assert_value_matches(measured, expected, context):
    if isinstance(expected, float) and isinstance(measured, float):
        assert measured == pytest.approx(expected, rel=REL_TOL), context
    else:
        assert measured == expected, context


def assert_experiment_matches(exp, golden):
    assert len(exp.rows) == len(golden["rows"])
    for i, (row, want) in enumerate(zip(exp.rows, golden["rows"])):
        assert set(row) == set(want), f"row {i} columns"
        for key, expected in want.items():
            assert_value_matches(row[key], expected, f"row {i} [{key}]")
    assert set(exp.summary) == set(golden["summary"])
    for key, expected in golden["summary"].items():
        assert_value_matches(exp.summary[key], expected, f"summary [{key}]")


@pytest.fixture(autouse=True)
def _fresh_trace_cache(monkeypatch):
    # Goldens pin the exact tiers' numbers bit for bit.
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    clear_trace_cache()
    yield
    clear_trace_cache()


def test_golden_config_matches_fixture():
    """The in-test configuration mirrors what the fixtures recorded."""
    for name in (
        "figure9", "figure10", "figure12", "table2", "multikernel",
        "analytic",
    ):
        config = _load(name)["config"]
        assert config["layers"] == ["/".join(p) for p in GOLDEN_LAYERS]
        assert config["max_ctas"] == GOLDEN_OPTIONS.max_ctas


def test_figure9_rows_pinned():
    exp = experiments.figure9(_layers(), GOLDEN_OPTIONS)
    assert_experiment_matches(exp, _load("figure9"))


def test_figure10_rows_pinned():
    exp = experiments.figure10(_layers(), GOLDEN_OPTIONS)
    assert_experiment_matches(exp, _load("figure10"))


def test_figure12_rows_pinned():
    """The associativity sweep — now served by the offline per-set LRU
    fast path — must keep producing the exact committed numbers."""
    exp = experiments.figure12(_layers(), GOLDEN_OPTIONS)
    assert_experiment_matches(exp, _load("figure12"))


def test_table2_rows_pinned():
    exp = experiments.table2()
    assert_experiment_matches(exp, _load("table2"))


def test_multikernel_rows_pinned():
    """PID-tagged shared-LHB study, pinned against drift in the
    interleave or the PID-folded recurrence."""
    exp = experiments.multikernel_sharing(_layers(), options=GOLDEN_OPTIONS)
    assert_experiment_matches(exp, _load("multikernel"))


ARCH_GOLDEN_LAYERS = GOLDEN_LAYERS + [("attention", "QK")]


@pytest.fixture(scope="module")
def arch_zoo_experiment():
    """One arch_zoo run shared by every per-preset drift check (the
    sweep covers all presets in a single pass).  Module-scoped, so it
    runs before the function-scoped environment scrub: scrub here too."""
    clear_trace_cache()
    layers = [get_layer(net, name) for net, name in ARCH_GOLDEN_LAYERS]
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_ENGINE", raising=False)
        return experiments.arch_zoo(layers, options=GOLDEN_OPTIONS)


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_arch_zoo_rows_pinned(arch, arch_zoo_experiment):
    """Every preset x {duplo, wir} x {conv, attention} is pinned: a
    change to fragment geometry, idgen shifts, or the per-arch area
    accounting shows up as a golden diff on its own arch_* fixture."""
    golden = _load(f"arch_{arch}")
    assert golden["config"]["arch"] == arch
    assert golden["config"]["layers"] == [
        "/".join(p) for p in ARCH_GOLDEN_LAYERS
    ]
    assert golden["config"]["max_ctas"] == GOLDEN_OPTIONS.max_ctas
    rows = [r for r in arch_zoo_experiment.rows if r["arch"] == arch]
    summary = {
        k: v
        for k, v in arch_zoo_experiment.summary.items()
        if k.endswith(f"_{arch}")
    }
    # Two modes per layer, and the preset's own summary slice.
    assert len(rows) == 2 * len(ARCH_GOLDEN_LAYERS)
    assert len(golden["rows"]) == len(rows)
    for i, (row, want) in enumerate(zip(rows, golden["rows"])):
        assert set(row) == set(want), f"row {i} columns"
        for key, expected in want.items():
            assert_value_matches(row[key], expected, f"{arch} row {i} [{key}]")
    assert set(summary) == set(golden["summary"])
    for key, expected in golden["summary"].items():
        assert_value_matches(summary[key], expected, f"{arch} [{key}]")


def test_analytic_predictions_pinned():
    """The analytic engine tier's predictions on the golden layers.

    The differential bounds in test_analytic_validation.py allow a
    tolerance band; this fixture pins the exact values, so accuracy
    drift *within* the band still shows up as a golden diff."""
    from repro.analytic import clear_profile_cache, prediction_rows

    clear_profile_cache()
    rows = prediction_rows(_layers(), options=GOLDEN_OPTIONS)
    golden = _load("analytic")["rows"]
    assert len(rows) == len(golden)
    for i, (row, want) in enumerate(zip(rows, golden)):
        assert set(row) == set(want), f"row {i} columns"
        for key, expected in want.items():
            assert_value_matches(row[key], expected, f"row {i} [{key}]")
