"""Venue equivalence matrix for the sweep executor.

Running a chunk inline or on a worker thread is a pure *placement*
decision: both venues must return LayerStats that are
``asdict``-equal to the serial path, bit for bit, across all engine
tiers — the GIL-bound event tier included.  This suite pins that
contract, the thread-pool rule, the thread-worker metrics rule (one
shared registry, no double-count), and the warm-chunk skip.
"""

import dataclasses

import pytest

from tests.conftest import make_spec
from repro import obs
from repro.gpu.config import SimulationOptions
from repro.gpu.ldst import EliminationMode
from repro.gpu.simulator import clear_trace_cache
from repro.runtime import (
    DiskCache,
    SimPoint,
    SweepExecutor,
)

#: Golden layers: plain, strided, and multi-batch geometry.
LAYERS = [
    make_spec(name="bk-plain"),
    make_spec(name="bk-strided", h=9, w=9, pad=0, stride=2),
    make_spec(name="bk-batch3", batch=3, h=6, w=6, c=2, filters=4),
]
OPTIONS = SimulationOptions(max_ctas=2)

#: Engine tiers under test.  The exact tier must match serial
#: bit-for-bit; the analytic tier is approximate but must still be
#: identical across *backends* (same closed forms, same answer).
ENGINES = ("auto", "analytic")

#: (backend, executor kwargs): inline, and a thread pool (the
#: fixture below gives every test a 4-core host, so jobs=4 pools).
BACKEND_MATRIX = [
    ("serial", {}),
    ("auto", {"jobs": 4}),
]


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    obs.disable()
    obs.reset()
    clear_trace_cache()
    yield
    obs.disable()
    obs.reset()
    clear_trace_cache()


def _chunks(engine="auto"):
    options = dataclasses.replace(OPTIONS, engine=engine)
    return [
        [
            SimPoint(spec, options=options, lhb_entries=entries)
            for entries in (64, 1024, None)
        ]
        + [
            SimPoint(
                spec, mode=EliminationMode.BASELINE, options=options
            )
        ]
        for spec in LAYERS
    ]


def _stat_rows(rows):
    """LayerStats as plain dicts — the ``asdict``-equality form."""
    return [
        [
            (dataclasses.asdict(r.stats), dataclasses.asdict(r.sm_stats),
             r.cycles, r.time_ms)
            for r in row
        ]
        for row in rows
    ]


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("backend,kwargs", BACKEND_MATRIX)
def test_backend_matches_serial(tmp_path, engine, backend, kwargs):
    chunks = _chunks(engine)
    clear_trace_cache()
    reference = _stat_rows(
        SweepExecutor(jobs=1, backend="serial").run_chunks(chunks)
    )
    clear_trace_cache()
    executor = SweepExecutor(
        cache=DiskCache(tmp_path / "cache"), backend=backend, **kwargs
    )
    assert _stat_rows(executor.run_chunks(chunks)) == reference
    # Warm rerun through the same cache is identical too.
    clear_trace_cache()
    assert _stat_rows(executor.run_chunks(chunks)) == reference


def test_constructor_validation():
    with pytest.raises(ValueError, match="backend"):
        SweepExecutor(backend="fibers")
    with pytest.raises(ValueError, match="backend"):
        SweepExecutor(backend="processes")
    with pytest.raises(ValueError, match="jobs"):
        SweepExecutor(jobs=0)


def test_pool_rule_runs_inline_unless_two_workers_fit(monkeypatch):
    """``min(jobs, pending chunks, cores) >= 2`` opens the pool; jobs=1,
    a single pending chunk, or a single core each keep it inline."""
    chunks = _chunks()

    def dispatch(jobs, chunks):
        obs.reset()
        SweepExecutor(jobs=jobs).run_chunks(chunks)
        counters = obs.snapshot()["counters"]
        return (
            counters.get("executor.inline_chunks", 0),
            counters.get("executor.dispatch.threads", 0),
        )

    obs.enable()
    assert dispatch(4, chunks) == (0, len(chunks))
    assert dispatch(1, chunks) == (len(chunks), 0)
    assert dispatch(4, chunks[:1]) == (1, 0)
    assert SweepExecutor(jobs=4, backend="serial").workers(3) == 1
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    assert dispatch(4, chunks) == (len(chunks), 0)
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert SweepExecutor(jobs=4).workers(3) == 1
    obs.disable()


# ----------------------------------------------------------------------
# Warm chunks never reach a worker (the chunks_skipped contract)
# ----------------------------------------------------------------------


def test_fully_warm_chunk_is_skipped(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    chunks = _chunks()
    SweepExecutor(jobs=1, cache=cache).run_chunks(chunks)
    clear_trace_cache()
    obs.enable()
    obs.reset()
    SweepExecutor(jobs=4, cache=cache).run_chunks(chunks)
    counters = obs.snapshot()["counters"]
    assert counters["executor.chunks_skipped"] == len(chunks)
    assert counters["executor.prefilter_hits"] == sum(
        len(c) for c in chunks
    )
    # Nothing was dispatched anywhere.
    assert "executor.dispatch.threads" not in counters
    assert "executor.inline_chunks" not in counters
    assert "sim.layers_simulated" not in counters
    obs.disable()


def test_analytic_chunk_is_skipped(tmp_path):
    """Analytic-resolved points count as warm: the whole chunk is
    answered at prefilter and never dispatched."""
    chunks = _chunks(engine="analytic")
    obs.enable()
    obs.reset()
    rows = SweepExecutor(
        jobs=4, cache=DiskCache(tmp_path / "cache")
    ).run_chunks(chunks)
    counters = obs.snapshot()["counters"]
    n_points = sum(len(c) for c in chunks)
    assert counters["executor.analytic_prefilter"] == n_points
    assert counters["executor.chunks_skipped"] == len(chunks)
    assert "executor.dispatch.threads" not in counters
    assert "executor.inline_chunks" not in counters
    assert len(rows) == len(chunks)
    obs.disable()


def test_mixed_chunk_is_not_skipped(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    warm = SimPoint(LAYERS[0], options=OPTIONS)
    cold = SimPoint(LAYERS[0], options=OPTIONS, lhb_entries=64)
    SweepExecutor(jobs=1, cache=cache).run_chunks([[warm]])
    obs.enable()
    obs.reset()
    SweepExecutor(jobs=1, cache=cache).run_chunks([[warm, cold]])
    counters = obs.snapshot()["counters"]
    assert counters["executor.prefilter_hits"] == 1
    assert counters.get("executor.chunks_skipped", 0) == 0
    obs.disable()


# ----------------------------------------------------------------------
# Thread workers share the parent registry: no merge, no double-count
# ----------------------------------------------------------------------


def _chunk_spans(tree):
    found = []

    def walk(span):
        if span["name"] == "executor.chunk":
            found.append(span)
        for child in span.get("children", []):
            walk(child)

    for root in tree["spans"]:
        walk(root)
    return found


def test_thread_workers_do_not_double_count(tmp_path):
    """Thread workers record straight onto the parent's registry:
    exactly one count per simulation and one span per chunk."""
    chunks = _chunks()
    n_points = sum(len(c) for c in chunks)
    obs.enable()
    obs.reset()
    SweepExecutor(jobs=2, cache=DiskCache(tmp_path / "c")).run_chunks(chunks)
    snapshot = obs.snapshot()
    counters = snapshot["counters"]
    # Exactly one simulation per point — doubled counts would show 2x.
    assert counters["sim.layers_simulated"] == n_points
    assert counters["executor.dispatch.threads"] == len(chunks)
    assert len(_chunk_spans(obs.tree())) == len(chunks)
    assert 0.0 < snapshot["gauges"]["executor.worker_utilization"] <= 1.0
    obs.disable()
