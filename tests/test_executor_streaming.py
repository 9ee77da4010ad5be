"""Sweep-path streaming dispatch (the PR 8 follow-up).

``simulate_point(..., streaming=True)`` must route *cold fast-tier*
points through the bounded-RSS
:func:`~repro.gpu.simulator.simulate_layer_streaming` entry — and
ONLY those: warm traces (in-process LRU or disk store) keep the
cheaper replay-from-store path, and the analytic/event tiers cannot
stream.  Results are bit-identical either way; the routing itself is
pinned by the ``executor.streamed_points`` counter.
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
from repro.gpu.simulator import clear_trace_cache
from repro.runtime import DiskCache, SimPoint, SweepExecutor
from repro.runtime.executor import STREAM_ENV, _stream_cold

LAYERS = [
    make_spec(name="st-plain"),
    make_spec(name="st-strided", h=9, w=9, pad=0, stride=2),
]
OPTIONS = SimulationOptions(max_ctas=2, engine="fast")


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv(STREAM_ENV, raising=False)
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


def test_streaming_off_never_streams(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    executor = SweepExecutor(
        jobs=1, cache=cache, backend="serial", streaming="off"
    )
    executor.run(_points())
    assert _streamed() == 0


def test_env_override_disables_streaming(tmp_path, monkeypatch):
    monkeypatch.setenv(STREAM_ENV, "off")
    cache = DiskCache(tmp_path / "cache")
    SweepExecutor(jobs=1, cache=cache, backend="serial").run(_points())
    assert _streamed() == 0


def test_streaming_results_bit_identical(tmp_path):
    off = SweepExecutor(
        jobs=1, cache=DiskCache(tmp_path / "off"), backend="serial",
        streaming="off",
    ).run(_points())
    clear_trace_cache()
    obs.reset()
    on = SweepExecutor(
        jobs=1, cache=DiskCache(tmp_path / "on"), backend="serial"
    ).run(_points())
    assert _streamed() == len(LAYERS)
    for a, b in zip(off, on):
        assert dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)
        assert (a.cycles, a.time_ms) == (b.cycles, b.time_ms)


def test_warm_store_suppresses_streaming(tmp_path):
    """Traces already persisted are replayed from the store (the mmap
    hand-off), never regenerated through the streaming entry."""
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


def test_streaming_validation():
    with pytest.raises(ValueError, match="streaming"):
        SweepExecutor(streaming="sometimes")


def test_process_workers_stream(tmp_path):
    """The streaming flag crosses the process-pool job tuple."""
    cache = DiskCache(tmp_path / "cache")
    executor = SweepExecutor(
        jobs=2, cache=cache, backend="processes", cutover=0
    )
    # One chunk per layer (the executor's natural chunking): the
    # chunk's first point streams, later points of the same layer find
    # the teed trace warm in the store.
    options = dataclasses.replace(OPTIONS)
    chunks = [
        [
            SimPoint(spec, options=options, lhb_entries=entries)
            for entries in (64, None)
        ]
        for spec in LAYERS
    ]
    executor.run_chunks(chunks)
    # Worker metrics merge back into this process's registry.
    assert _streamed() == len(LAYERS)


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
