"""Cold sweeps through the executor: one synthesis per chunk, no trace
left behind.

Every sweep point replays through ``simulate_layer``, which keeps the
worker thread's one trace.  A chunk is one layer, so its trace is
synthesized once whatever the mix of modes and LHBs, with or without a
result store; the runner empties the slot when the chunk ends, and the
store only ever holds results.  A full-network cold sweep stays under
the committed RSS cap.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from tests.conftest import make_spec
from repro import obs
from repro.gpu import fastpath
from repro.gpu.config import SimulationOptions
from repro.gpu.ldst import EliminationMode
from repro.gpu.simulator import clear_trace_cache, simulate_layer
from repro.runtime import DiskCache, SimPoint, SweepExecutor

LAYERS = [
    make_spec(name="st-plain"),
    make_spec(name="st-strided", h=9, w=9, pad=0, stride=2),
]
OPTIONS = SimulationOptions(max_ctas=2)


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


def _points(**overrides):
    options = dataclasses.replace(OPTIONS, **overrides)
    return [
        SimPoint(spec, options=options, lhb_entries=entries)
        for spec in LAYERS
        for entries in (64, None)
    ]


def _direct(points):
    """The reference: one ``simulate_layer`` call per point."""
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


def test_cacheless_chunk_synthesizes_its_trace_once():
    """Regression: a multi-point chunk must synthesize its trace once
    and replay it for every point."""
    chunk = [
        SimPoint(LAYERS[0], options=OPTIONS, lhb_entries=entries)
        for entries in (64, 256, 1024, None)
    ] + [SimPoint(LAYERS[0], mode=EliminationMode.BASELINE, options=OPTIONS)]
    (rows,) = SweepExecutor(jobs=1).run_chunks([chunk])
    counters = obs.snapshot()["counters"]
    assert counters["gen.traces"] == 1
    clear_trace_cache()
    _assert_same(_direct(chunk), rows)


@pytest.mark.parametrize("store", [False, True])
def test_mixed_mode_chunk_synthesizes_once(tmp_path, store):
    """A baseline + Duplo + WIR chunk shares one synthesis, with and
    without a result store."""
    chunk = [
        SimPoint(LAYERS[1], mode=mode, options=OPTIONS)
        for mode in (EliminationMode.BASELINE, EliminationMode.DUPLO,
                     EliminationMode.WIR)
    ]
    cache = DiskCache(tmp_path / "cache") if store else None
    (rows,) = SweepExecutor(jobs=1, cache=cache).run_chunks([chunk])
    assert obs.snapshot()["counters"]["gen.traces"] == 1
    clear_trace_cache()
    _assert_same(_direct(chunk), rows)


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_thread_holds_a_trace_after_run_chunks(monkeypatch, jobs):
    """Every chunk runner, inline or pooled, empties its slot; the
    caller's thread is left as it was."""
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    holders = []
    release = fastpath.release_fed_memo

    def recording_release():
        holders.append(fastpath._fed_memo)
        entry = getattr(fastpath._fed_memo, "entry", None)
        assert entry is not None and entry[2] is not None
        release()
        assert getattr(fastpath._fed_memo, "entry", None) is None

    monkeypatch.setattr(
        "repro.runtime.executor.release_fed_memo", recording_release
    )
    chunks = [[p for p in _points() if p.spec == spec] for spec in LAYERS]
    SweepExecutor(jobs=jobs).run_chunks(chunks)
    assert len(holders) == len(chunks)
    assert getattr(fastpath._fed_memo, "entry", None) is None


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_chunk_synthesizes_its_trace_once(monkeypatch, jobs):
    """Inline or on a pool, a sweep synthesizes one trace per chunk —
    each chunk's points reuse it on whichever worker runs the chunk."""
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    chunks = [
        [dataclasses.replace(p, mode=mode) for p in _points()
         if p.spec == spec for mode in EliminationMode]
        for spec in LAYERS
    ]
    rows = SweepExecutor(jobs=jobs).run_chunks(chunks)
    counters = obs.snapshot()["counters"]
    assert counters["gen.traces"] == len(LAYERS)
    assert counters["sim.layers_simulated"] == sum(map(len, chunks))
    clear_trace_cache()
    for chunk, row in zip(chunks, rows):
        _assert_same(_direct(chunk), row)


def test_cold_sweep_persists_results_only(tmp_path):
    """A cold sweep on a store writes results and nothing under
    ``traces/``; its results equal direct simulation."""
    cache = DiskCache(tmp_path / "cache")
    swept = SweepExecutor(jobs=1, cache=cache).run(_points())
    assert not (tmp_path / "cache" / "traces").exists()
    files = [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]
    assert files and all(p.suffix == ".pkl" for p in files)
    assert cache.stats().result_files == len(_points())
    clear_trace_cache()
    _assert_same(_direct(_points()), swept)


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
        options=SimulationOptions(),
    )
    for spec in layers_for_network("yolo")
]
results = SweepExecutor(jobs=1, backend="serial").run(points)
manifest = obs.collect_manifest("rss_child", argv=sys.argv)
json.dump({
    "n": len(results),
    "peak_rss_bytes": manifest.peak_rss_bytes,
}, sys.stdout)
"""


@pytest.mark.slow
def test_full_network_cold_sweep_rss_bounded():
    """Executor-driven cold yolo sweep stays under the committed RSS
    cap (the same invariant the perf gate's cold_sweep enforces)."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_ENGINE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD],
        capture_output=True, text=True, env=env, check=True,
    )
    payload = json.loads(proc.stdout)
    assert payload["n"] == 6
    assert payload["peak_rss_bytes"] is None or (
        payload["peak_rss_bytes"] < 512 * 2**20
    )
