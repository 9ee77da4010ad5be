"""Parallel/cached execution is bit-identical to the serial path.

The sweep engine's determinism contract (see
``repro.runtime.executor``): a point's result is a pure function of
the point, so rows must come back *numerically identical* — not
merely close — whether computed inline, across worker processes, or
read back from the persistent cache, for every elimination mode
(baseline / Duplo / WIR / oracle).
"""

import pytest

from tests.conftest import make_spec
from repro.analysis.sweeps import lhb_size_sweep
from repro.gpu import simulator
from repro.gpu.config import SimulationOptions
from repro.gpu.ldst import EliminationMode
from repro.gpu.simulator import clear_trace_cache, simulate_layer
from repro.runtime import DiskCache, SimPoint, SweepExecutor, simulate_point

#: Three-layer subset: plain, strided, and multi-batch geometry.
LAYERS = [
    make_spec(name="eq-plain"),
    make_spec(name="eq-strided", h=9, w=9, pad=0, stride=2),
    make_spec(name="eq-batch3", batch=3, h=6, w=6, c=2, filters=4),
]
SIZES = (64, 128, None)
OPTIONS = SimulationOptions(max_ctas=2)

#: (mode, lhb_entries): the paper's four configurations.
MODES = [
    (EliminationMode.BASELINE, None),
    (EliminationMode.DUPLO, 1024),
    (EliminationMode.WIR, 1024),
    (EliminationMode.DUPLO, None),  # oracle (unbounded LHB)
]


@pytest.fixture(autouse=True)
def _fresh_caches(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    clear_trace_cache()
    yield
    clear_trace_cache()


def serial_reference():
    """The pre-runtime serial loop, written out longhand."""
    rows = []
    for spec in LAYERS:
        base = simulate_layer(
            spec, EliminationMode.BASELINE, options=OPTIONS
        )
        for size in SIZES:
            result = simulate_layer(
                spec, EliminationMode.DUPLO, lhb_entries=size, options=OPTIONS
            )
            rows.append((spec.qualified_name, size, base, result))
    return rows


def assert_rows_identical(sweep, reference):
    assert len(sweep.rows) == len(reference)
    for row, (layer, _, base, result) in zip(sweep.rows, reference):
        assert row.layer == layer
        # Exact float equality — the determinism contract.
        assert row.improvement == result.speedup_over(base) - 1
        assert row.hit_rate == result.stats.lhb_hit_rate
        assert row.result.cycles == result.cycles
        assert row.result.time_ms == result.time_ms
        assert row.result.stats == result.stats
        assert row.result.sm_stats == result.sm_stats


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_executor_matches_serial(jobs):
    reference = serial_reference()
    clear_trace_cache()
    sweep = lhb_size_sweep(
        LAYERS,
        SIZES,
        options=OPTIONS,
        executor=SweepExecutor(jobs=jobs),
    )
    assert_rows_identical(sweep, reference)


@pytest.mark.parametrize("jobs", [1, 2])
def test_cached_run_matches_serial(tmp_path, jobs):
    reference = serial_reference()
    cache = DiskCache(tmp_path / "cache")
    # Cold populate, then verify the warm read-back separately.
    clear_trace_cache()
    cold = lhb_size_sweep(
        LAYERS, SIZES, options=OPTIONS,
        executor=SweepExecutor(jobs=jobs, cache=cache),
    )
    assert_rows_identical(cold, reference)
    clear_trace_cache()
    warm = lhb_size_sweep(
        LAYERS, SIZES, options=OPTIONS,
        executor=SweepExecutor(jobs=jobs, cache=cache),
    )
    assert_rows_identical(warm, reference)


def test_warm_cache_skips_trace_generation(tmp_path, monkeypatch):
    cache = DiskCache(tmp_path / "cache")
    first = lhb_size_sweep(
        LAYERS, SIZES, options=OPTIONS, executor=SweepExecutor(cache=cache)
    )

    calls = []
    real = simulator.generate_sm_trace

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "generate_sm_trace", counting)
    clear_trace_cache()
    warm = lhb_size_sweep(
        LAYERS, SIZES, options=OPTIONS, executor=SweepExecutor(cache=cache)
    )
    assert calls == []  # every artifact served from disk
    for a, b in zip(first.rows, warm.rows):
        assert a.improvement == b.improvement
        assert a.hit_rate == b.hit_rate
        assert a.result.stats == b.result.stats


@pytest.mark.parametrize("mode,entries", MODES)
def test_mode_equivalence_through_runtime(tmp_path, mode, entries):
    """Every elimination mode survives the executor and the cache."""
    spec = LAYERS[0]
    direct = simulate_layer(
        spec, mode, lhb_entries=entries, options=OPTIONS
    )
    point = SimPoint(spec, mode, lhb_entries=entries, options=OPTIONS)

    # Through worker processes (no cache).
    via_pool = SweepExecutor(jobs=2).run_chunks([[point], [point]])
    for (result,) in via_pool:
        assert result.cycles == direct.cycles
        assert result.time_ms == direct.time_ms
        assert result.stats == direct.stats
        assert result.sm_stats == direct.sm_stats
        assert result.mode is mode

    # Through the persistent cache: cold write, warm read.
    cache = DiskCache(tmp_path / "cache")
    cold = simulate_point(point, cache)
    warm = simulate_point(point, cache)
    for result in (cold, warm):
        assert result.cycles == direct.cycles
        assert result.stats == direct.stats
    s = cache.stats()
    assert s.result_hits == 1 and s.result_misses == 1
