"""Sweep-path streaming dispatch.

``simulate_point(..., streaming=True)`` must route *cold fast-tier*
points through the bounded-RSS
:func:`~repro.gpu.simulator.simulate_layer_streaming` entry — and
ONLY those: warm traces (in-process LRU or disk store) keep the
cheaper replay-from-store path, and the analytic/event tiers cannot
stream.  The executor streams only where it cannot cost a second
synthesis: a store catches the tee, or the point is its chunk's only
pending one.  Results are bit-identical either way; the routing
itself is pinned by the ``executor.streamed_points`` counter.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from tests.conftest import make_spec
from repro import obs
from repro.gpu import simulator
from repro.gpu.config import SimulationOptions
from repro.gpu.ldst import EliminationMode
from repro.gpu.simulator import clear_trace_cache, simulate_layer
from repro.runtime import DiskCache, SimPoint, SweepExecutor
from repro.runtime.executor import _stream_cold

LAYERS = [
    make_spec(name="st-plain"),
    make_spec(name="st-strided", h=9, w=9, pad=0, stride=2),
]
OPTIONS = SimulationOptions(max_ctas=2, engine="fast")


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    obs.enable()
    obs.reset()
    clear_trace_cache()
    yield
    obs.disable()
    obs.reset()
    clear_trace_cache()
    simulator.set_trace_store(None)


def _points(**overrides):
    options = dataclasses.replace(OPTIONS, **overrides)
    return [
        SimPoint(spec, options=options, lhb_entries=entries)
        for spec in LAYERS
        for entries in (64, None)
    ]


def _streamed() -> int:
    return obs.counters_with_prefix("executor.").get(
        "executor.streamed_points", 0
    )


def test_cold_fast_points_stream_once_per_layer(tmp_path):
    """Cold sweep: first point of each layer streams, the rest replay
    the trace the stream teed into the store."""
    cache = DiskCache(tmp_path / "cache")
    SweepExecutor(jobs=1, cache=cache, backend="serial").run(_points())
    assert _streamed() == len(LAYERS)
    # The tee persisted every layer's trace for later warm replays.
    from repro.runtime import trace_key

    for spec in LAYERS:
        p = _points()[0]
        assert cache.has_trace(
            trace_key(spec, p.gpu, p.kernel, p.options)
        )


def _direct(points):
    """The materialising reference: ``simulate_layer`` per point."""
    return [
        simulate_layer(
            p.spec, p.mode, lhb_entries=p.lhb_entries,
            lhb_assoc=p.lhb_assoc, gpu=p.gpu, kernel=p.kernel,
            options=p.options,
        )
        for p in points
    ]


def _assert_same(expected, got):
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)
        assert (a.cycles, a.time_ms) == (b.cycles, b.time_ms)


def test_streaming_results_bit_identical(tmp_path):
    on = SweepExecutor(
        jobs=1, cache=DiskCache(tmp_path / "on"), backend="serial"
    ).run(_points())
    assert _streamed() == len(LAYERS)
    clear_trace_cache()
    _assert_same(_direct(_points()), on)


def test_cacheless_chunk_synthesizes_its_trace_once():
    """Regression: with no store to catch a streamed trace, a
    multi-point chunk must materialise its trace once and replay it
    for every point — streaming each point would synthesize it anew
    every time."""
    chunk = [
        SimPoint(LAYERS[0], options=OPTIONS, lhb_entries=entries)
        for entries in (64, 256, 1024, None)
    ] + [SimPoint(LAYERS[0], mode=EliminationMode.BASELINE, options=OPTIONS)]
    (rows,) = SweepExecutor(jobs=1).run_chunks([chunk])
    counters = obs.snapshot()["counters"]
    assert counters["gen.traces"] == 1
    assert _streamed() == 0
    clear_trace_cache()
    _assert_same(_direct(chunk), rows)


def test_warm_store_suppresses_streaming(tmp_path):
    """Traces already persisted are replayed from the store, never
    regenerated through the streaming entry."""
    cache = DiskCache(tmp_path / "cache")
    points = _points()
    SweepExecutor(jobs=1, cache=cache, backend="serial").run(points)
    clear_trace_cache()
    obs.reset()
    for p in points:
        # Drop persisted results so the executor must re-simulate —
        # cold results, warm traces: nothing may stream.
        path = cache._path("results", p.cache_key())
        if path.exists():
            path.unlink()
    SweepExecutor(jobs=1, cache=cache, backend="serial").run(points)
    assert _streamed() == 0


def test_non_fast_tiers_never_stream(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    for p in _points(engine="analytic") + _points(engine="event"):
        assert not _stream_cold(p, cache)


_RSS_CHILD = """\
import dataclasses, json, sys
from repro import obs
from repro.conv.workloads import layers_for_network
from repro.gpu.config import SimulationOptions
from repro.gpu.ldst import EliminationMode
from repro.runtime.executor import SimPoint, SweepExecutor

obs.enable()
points = [
    SimPoint(
        spec=dataclasses.replace(spec, batch=16),
        mode=EliminationMode.DUPLO,
        options=SimulationOptions(engine="fast"),
    )
    for spec in layers_for_network("yolo")
]
results = SweepExecutor(jobs=1, backend="serial").run(points)
manifest = obs.collect_manifest("rss_child", argv=sys.argv)
streamed = obs.counters_with_prefix("executor.streamed_points")
json.dump({
    "n": len(results),
    "streamed": streamed.get("executor.streamed_points", 0),
    "peak_rss_bytes": manifest.peak_rss_bytes,
}, sys.stdout)
"""


@pytest.mark.slow
def test_full_network_cold_sweep_rss_bounded():
    """Executor-driven cold yolo sweep stays under the committed RSS
    cap (the same invariant the perf-gate streaming lane enforces)."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    env["REPRO_TRACE_BLOCK"] = "65536"
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD],
        capture_output=True, text=True, env=env, check=True,
    )
    payload = json.loads(proc.stdout)
    assert payload["n"] == 6
    assert payload["streamed"] == payload["n"]
    assert payload["peak_rss_bytes"] is None or (
        payload["peak_rss_bytes"] < 512 * 2**20
    )
