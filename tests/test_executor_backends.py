"""Backend equivalence matrix for the adaptive sweep executor.

The executor's cutover and venue selection (inline / threads /
processes / shared-store) are pure *placement* decisions: every
backend must return LayerStats that are ``asdict``-equal to the
serial path, bit for bit, across all engine tiers.  This suite pins
that contract, the cost estimator's honesty (its decisions never leak
into results — hypothesis-fuzzed), the thread-worker metrics rule
(no export/merge, no double-count), the warm-chunk skip, and the
shared-store claim/poll/steal protocol.
"""

import dataclasses
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_spec
from repro import obs
from repro.gpu import simulator
from repro.gpu.config import SimulationOptions
from repro.gpu.ldst import EliminationMode
from repro.gpu.simulator import clear_trace_cache
from repro.runtime import (
    DiskCache,
    SimPoint,
    SweepExecutor,
    estimate_trace_events,
    trace_key,
)

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

#: Golden layers: plain, strided, and multi-batch geometry.
LAYERS = [
    make_spec(name="bk-plain"),
    make_spec(name="bk-strided", h=9, w=9, pad=0, stride=2),
    make_spec(name="bk-batch3", batch=3, h=6, w=6, c=2, filters=4),
]
OPTIONS = SimulationOptions(max_ctas=2)

#: Engine tiers under test.  The two exact tiers must match serial
#: bit-for-bit; the analytic tier is approximate but must still be
#: identical across *backends* (same closed forms, same answer).
ENGINES = ("auto", "fast", "event", "analytic")

#: (backend, executor kwargs) — every venue plus both forced cutovers.
BACKEND_MATRIX = [
    ("serial", {}),
    ("auto", {"jobs": 4}),
    ("threads", {"jobs": 2, "cutover": 0}),
    ("processes", {"jobs": 2, "cutover": 0}),
    ("auto", {"jobs": 2, "cutover": 0}),          # forced pool
    ("auto", {"jobs": 4, "cutover": float("inf")}),  # forced inline
]


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    obs.disable()
    obs.reset()
    clear_trace_cache()
    yield
    obs.disable()
    obs.reset()
    clear_trace_cache()
    simulator.set_trace_store(None)


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


def test_constructor_validation(tmp_path):
    with pytest.raises(ValueError, match="backend"):
        SweepExecutor(backend="fibers")
    with pytest.raises(ValueError, match="cutover"):
        SweepExecutor(cutover=-1)
    with pytest.raises(ValueError, match="cutover"):
        SweepExecutor(cutover=float("nan"))
    with pytest.raises(ValueError, match="shared-store"):
        SweepExecutor(backend="shared-store")
    SweepExecutor(
        backend="shared-store", cache=DiskCache(tmp_path / "c")
    )  # with a cache it constructs


# ----------------------------------------------------------------------
# Cutover estimator: decisions never change results (hypothesis)
# ----------------------------------------------------------------------


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    layer_idx=st.lists(
        st.integers(min_value=0, max_value=len(LAYERS) - 1),
        min_size=1, max_size=3, unique=True,
    ),
    entries=st.sampled_from([64, 256, 1024, None]),
    engine=st.sampled_from(["auto", "fast", "event"]),
    backend=st.sampled_from(["auto", "threads", "processes"]),
    jobs=st.integers(min_value=1, max_value=4),
    cutover=st.sampled_from(["auto", 0.0, 1e-6, 0.5, float("inf")]),
)
def test_cutover_never_changes_results(
    layer_idx, entries, engine, backend, jobs, cutover
):
    """Whatever the estimator decides — inline, threads, processes,
    any threshold — the rows match the serial reference exactly."""
    options = dataclasses.replace(OPTIONS, max_ctas=1, engine=engine)
    chunks = [
        [
            SimPoint(LAYERS[i], options=options, lhb_entries=entries),
            SimPoint(
                LAYERS[i], mode=EliminationMode.BASELINE, options=options
            ),
        ]
        for i in layer_idx
    ]
    reference = _stat_rows(
        SweepExecutor(jobs=1, backend="serial").run_chunks(chunks)
    )
    got = SweepExecutor(
        jobs=jobs, backend=backend, cutover=cutover
    ).run_chunks(chunks)
    assert _stat_rows(got) == reference


# ----------------------------------------------------------------------
# Cost estimator: exact on the explicit kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", LAYERS, ids=lambda s: s.name)
@pytest.mark.parametrize("max_ctas", [1, 2, None])
def test_event_estimate_is_exact_for_explicit_kernel(spec, max_ctas):
    """The closed-form estimate mirrors the kernel's emission
    arithmetic, so for the explicit kernel it is not an estimate at
    all — it equals the traced event count."""
    point = SimPoint(spec, options=SimulationOptions(max_ctas=max_ctas))
    trace = simulator._get_trace(
        point.spec, point.gpu, point.kernel, point.options
    )
    assert estimate_trace_events(point) == len(trace)


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
    SweepExecutor(jobs=4, cache=cache, cutover=0).run_chunks(chunks)
    counters = obs.snapshot()["counters"]
    assert counters["executor.chunks_skipped"] == len(chunks)
    assert counters["executor.prefilter_hits"] == sum(
        len(c) for c in chunks
    )
    # Nothing was dispatched anywhere — not even with cutover=0.
    assert "executor.dispatch.threads" not in counters
    assert "executor.dispatch.processes" not in counters
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
        jobs=4, cache=DiskCache(tmp_path / "cache"), cutover=0
    ).run_chunks(chunks)
    counters = obs.snapshot()["counters"]
    n_points = sum(len(c) for c in chunks)
    assert counters["executor.analytic_prefilter"] == n_points
    assert counters["executor.chunks_skipped"] == len(chunks)
    assert "executor.dispatch.threads" not in counters
    assert "executor.dispatch.processes" not in counters
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
    """Regression (PR 7): thread workers record straight onto the
    parent's registry, so the process-worker export/merge protocol
    must not run for them — merging would double every counter and
    duplicate every span."""
    chunks = _chunks()
    n_points = sum(len(c) for c in chunks)
    obs.enable()
    obs.reset()
    SweepExecutor(
        jobs=2, cache=DiskCache(tmp_path / "c"),
        backend="threads", cutover=0,
    ).run_chunks(chunks)
    snapshot = obs.snapshot()
    counters = snapshot["counters"]
    # Exactly one simulation per point — doubled counts would show 2x.
    assert counters["sim.layers_simulated"] == n_points
    assert counters["executor.dispatch.threads"] == len(chunks)
    # Exactly one chunk span per chunk, and no executor.worker merge
    # groups (those wrap *process* payloads only).
    tree = obs.tree()
    assert len(_chunk_spans(tree)) == len(chunks)
    assert not [
        s for s in tree["spans"] if s["name"] == "executor.worker"
    ]
    assert 0.0 < snapshot["gauges"]["executor.worker_utilization"] <= 1.0
    obs.disable()


def test_process_workers_still_merge_under_worker_groups(tmp_path):
    chunks = _chunks()
    obs.enable()
    obs.reset()
    SweepExecutor(
        jobs=2, cache=DiskCache(tmp_path / "c"),
        backend="processes", cutover=0,
    ).run_chunks(chunks)
    counters = obs.snapshot()["counters"]
    assert counters["sim.layers_simulated"] == sum(len(c) for c in chunks)
    workers = [
        s for s in obs.tree()["spans"] if s["name"] == "executor.worker"
    ]
    assert len(workers) == len(chunks)
    obs.disable()


# ----------------------------------------------------------------------
# Zero-copy trace hand-off: mmap-loaded traces replay identically
# ----------------------------------------------------------------------


def test_mmap_trace_handoff_is_bit_identical(tmp_path):
    chunks = _chunks()
    clear_trace_cache()
    reference = _stat_rows(
        SweepExecutor(jobs=1, backend="serial").run_chunks(chunks)
    )
    # Populate the store from a cold LRU so traces actually persist.
    cache = DiskCache(tmp_path / "cache")
    clear_trace_cache()
    SweepExecutor(jobs=1, cache=cache).run_chunks(chunks)
    # Cold results + warm traces: the rerun must *load* every trace
    # through the mmap sidecar and still match bit-for-bit.
    shutil.rmtree(tmp_path / "cache" / "results")
    clear_trace_cache()
    mmap_cache = DiskCache(tmp_path / "cache", mmap_traces=True)
    obs.enable()
    obs.reset()
    got = _stat_rows(
        SweepExecutor(jobs=1, cache=mmap_cache).run_chunks(chunks)
    )
    counters = obs.snapshot()["counters"]
    obs.disable()
    assert got == reference
    assert counters["store.trace_mmap_hits"] == len(LAYERS)
    assert "sim.trace.generated" not in counters


def test_mmap_trace_handoff_event_path(tmp_path):
    """The event-level replay consumes mmap-loaded traces too."""
    options = dataclasses.replace(OPTIONS, engine="event")
    point = SimPoint(LAYERS[0], options=options, lhb_entries=64)
    clear_trace_cache()
    reference = _stat_rows(
        SweepExecutor(jobs=1, backend="serial").run_chunks([[point]])
    )
    cache = DiskCache(tmp_path / "cache")
    clear_trace_cache()
    SweepExecutor(jobs=1, cache=cache).run_chunks([[point]])
    shutil.rmtree(tmp_path / "cache" / "results")
    clear_trace_cache()
    mmap_cache = DiskCache(tmp_path / "cache", mmap_traces=True)
    got = _stat_rows(
        SweepExecutor(jobs=1, cache=mmap_cache).run_chunks([[point]])
    )
    assert got == reference


# ----------------------------------------------------------------------
# Shared-store coordination
# ----------------------------------------------------------------------


def test_shared_store_second_host_adopts_results(tmp_path):
    """Host B loses every claim to host A and adopts A's persisted
    results without simulating anything."""
    chunks = _chunks()
    clear_trace_cache()
    reference = _stat_rows(
        SweepExecutor(jobs=1, backend="serial").run_chunks(chunks)
    )
    root = tmp_path / "shared"
    a = SweepExecutor(
        jobs=1, cache=DiskCache(root), backend="shared-store"
    )
    assert _stat_rows(a.run_chunks(chunks)) == reference
    clear_trace_cache()
    obs.enable()
    obs.reset()
    b = SweepExecutor(
        jobs=1, cache=DiskCache(root), backend="shared-store",
        shared_timeout_s=10.0, shared_poll_s=0.01,
    )
    assert _stat_rows(b.run_chunks(chunks)) == reference
    counters = obs.snapshot()["counters"]
    obs.disable()
    # B resolved everything at the prefilter (A's results are on
    # disk), so it neither claimed nor simulated.
    assert "sim.layers_simulated" not in counters
    assert counters["executor.prefilter_hits"] == sum(
        len(c) for c in chunks
    )


def test_shared_store_poll_adopts_mid_sweep_results(tmp_path):
    """Claims lost, results not yet on disk at prefilter time: B's
    poll loop picks them up when the claim holder lands them."""
    import threading

    from repro.runtime import chunk_claim_key, simulate_point

    chunks = _chunks()[:1]
    clear_trace_cache()
    results = [simulate_point(p, None) for p in chunks[0]]
    reference = _stat_rows([results])
    root = tmp_path / "shared"
    cache_a = DiskCache(root)
    keys = [p.cache_key() for p in chunks[0]]
    # "Host A" claimed the chunk before B arrived...
    assert cache_a.try_claim(chunk_claim_key(keys))

    def deliver():
        # ...and delivers the results while B is polling.
        for key, result in zip(keys, results):
            cache_a.put_result(key, result)

    publisher = threading.Timer(0.2, deliver)
    publisher.start()
    try:
        clear_trace_cache()
        obs.enable()
        obs.reset()
        b = SweepExecutor(
            jobs=1, cache=DiskCache(root), backend="shared-store",
            shared_timeout_s=30.0, shared_poll_s=0.01,
        )
        assert _stat_rows(b.run_chunks(chunks)) == reference
    finally:
        publisher.join()
    counters = obs.snapshot()["counters"]
    assert counters["executor.shared.chunks_waited"] == 1
    assert counters["executor.shared.polls"] >= 1
    assert counters.get("executor.shared.chunks_stolen", 0) == 0
    assert "sim.layers_simulated" not in counters


def test_shared_store_steals_abandoned_claims(tmp_path):
    """A claim whose holder never delivers is stolen after the
    timeout and computed locally — slow peers cost time, not answers."""
    chunks = _chunks()[:1]
    clear_trace_cache()
    reference = _stat_rows(
        SweepExecutor(jobs=1, backend="serial").run_chunks(chunks)
    )
    root = tmp_path / "shared"
    cache = DiskCache(root)
    from repro.runtime import chunk_claim_key

    keys = [p.cache_key() for p in chunks[0]]
    assert cache.try_claim(chunk_claim_key(keys))  # abandoned claim
    clear_trace_cache()
    obs.enable()
    obs.reset()
    b = SweepExecutor(
        jobs=1, cache=DiskCache(root), backend="shared-store",
        shared_timeout_s=0.05, shared_poll_s=0.01,
    )
    assert _stat_rows(b.run_chunks(chunks)) == reference
    counters = obs.snapshot()["counters"]
    obs.disable()
    assert counters["executor.shared.chunks_stolen"] == 1
    assert counters["executor.shared.chunks_waited"] == 1


def test_shared_store_partitions_work_between_executors(tmp_path):
    """Two executors over one store: claims partition the chunks —
    whoever comes second wins none of the already-claimed ones."""
    chunks = _chunks()
    root = tmp_path / "shared"
    cache = DiskCache(root)
    from repro.runtime import chunk_claim_key

    # Pre-claim the first chunk on behalf of a phantom peer, then let
    # the local executor run: it must own the rest, steal the phantom
    # chunk after the (tiny) timeout, and still return exact rows.
    clear_trace_cache()
    reference = _stat_rows(
        SweepExecutor(jobs=1, backend="serial").run_chunks(chunks)
    )
    keys = [p.cache_key() for p in chunks[0]]
    assert cache.try_claim(chunk_claim_key(keys))
    clear_trace_cache()
    obs.enable()
    obs.reset()
    executor = SweepExecutor(
        jobs=1, cache=DiskCache(root), backend="shared-store",
        shared_timeout_s=0.05, shared_poll_s=0.01,
    )
    assert _stat_rows(executor.run_chunks(chunks)) == reference
    counters = obs.snapshot()["counters"]
    obs.disable()
    assert counters["executor.shared.chunks_owned"] == len(chunks) - 1
    assert counters["executor.shared.chunks_waited"] == 1
    assert counters["executor.shared.chunks_stolen"] == 1
