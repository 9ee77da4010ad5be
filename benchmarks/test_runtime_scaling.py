"""Runtime scaling: thread fan-out and warm cache.

Runs the Figure 9 sweep over the bench subset three ways — serial
(jobs=1, cold cache), threads (jobs=4, cold cache), and a warm-cache
rerun — and times the vectorised trace replay against the
event-level one on a single layer.  All ratios land in
``results/runtime_scaling.json``, each annotated with the core count
it was measured under and whether it is *meaningful* on this host (a
4-worker pool on one core cannot beat serial; recording that ratio as
a headline number is how the old ``parallel_speedup: 0.58``
confusion happened).

Assertions:

* warm-cache rerun must be >= 10x faster than serial — holds on any
  machine, the warm path reads pickled results and never touches the
  simulator;
* the jobs=4 sweep must be no slower than serial on *any* host (small
  tolerance for timer noise): the executor opens a thread pool only
  when the host has a second core, so parallel mode never loses;
* the jobs=4 sweep must be >= 2x faster than serial *when the machine
  can express it* (>= 4 cores); on smaller hosts the ratio is
  recorded with ``meaningful: false`` and the assertion is skipped;
* the vectorised replay must be >= 10x faster than the event replay
  on the reference layer *and* produce bit-identical LayerStats —
  both run on the same trace in the same process, so the ratio is
  machine-independent.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.sweeps import lhb_size_sweep
from repro.conv.workloads import get_layer
from repro.gpu.config import BASELINE_KERNEL, SimulationOptions, TITAN_V
from repro.gpu.fastpath import replay_trace_fast
from repro.gpu.kernel import generate_sm_trace
from repro.gpu.ldst import EliminationMode, replay_trace
from repro.gpu.simulator import clear_trace_cache, make_lhb
from repro.runtime import DiskCache, SweepExecutor

CORES = os.cpu_count() or 1
PARALLEL_JOBS = 4

RESULTS = Path("results") / "runtime_scaling.json"

#: Keys earlier versions wrote flat; superseded by the annotated form.
_STALE_KEYS = ("serial_s", "parallel_s", "warm_s", "parallel_speedup",
               "warm_speedup", "adaptive", "parallel_forced")


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _merge_results(update: dict) -> None:
    """Fold ``update`` into runtime_scaling.json (tests run in any order)."""
    RESULTS.parent.mkdir(exist_ok=True)
    data = {}
    if RESULTS.exists():
        try:
            data = json.loads(RESULTS.read_text())
        except ValueError:
            data = {}
    for stale in _STALE_KEYS:
        data.pop(stale, None)
    data.update(update)
    RESULTS.write_text(json.dumps(data, indent=1) + "\n")


def test_thread_parallel_and_warm_cache_scaling(
    bench_layers, bench_options, tmp_path
):
    sweep = lambda executor: lhb_size_sweep(
        bench_layers, options=bench_options, executor=executor
    )

    def run(name, **kwargs):
        clear_trace_cache()
        return _timed(
            lambda: sweep(
                SweepExecutor(cache=DiskCache(tmp_path / name), **kwargs)
            )
        )

    serial, t_serial = run("serial", jobs=1)
    threads, t_threads = run("threads", jobs=PARALLEL_JOBS)
    clear_trace_cache()
    warm, t_warm = _timed(
        lambda: sweep(
            SweepExecutor(
                jobs=PARALLEL_JOBS, cache=DiskCache(tmp_path / "serial")
            )
        )
    )

    # The three paths must agree exactly before any ratio means much.
    for a, b, c in zip(serial.rows, threads.rows, warm.rows):
        assert a.improvement == b.improvement == c.improvement
        assert a.hit_rate == b.hit_rate == c.hit_rate

    can_scale = CORES >= PARALLEL_JOBS
    ratios = {
        "cores": CORES,
        "jobs": PARALLEL_JOBS,
        "layers": len(bench_layers),
        "serial": {"seconds": round(t_serial, 4), "cores": CORES},
        "threads": {
            "seconds": round(t_threads, 4),
            "speedup": round(t_serial / max(t_threads, 1e-9), 2),
            "cores": CORES,
            "meaningful": can_scale,
            "note": (
                "4-worker thread pool"
                if can_scale
                else f"{PARALLEL_JOBS} jobs on {CORES} core(s) cannot "
                "reach 2x; must still never lose to serial"
            ),
        },
        "warm": {
            "seconds": round(t_warm, 4),
            "speedup": round(t_serial / max(t_warm, 1e-9), 2),
            "cores": CORES,
            "meaningful": True,
            "note": "fully cached rerun (no simulation)",
        },
    }
    _merge_results(ratios)
    print(f"\nruntime scaling: {json.dumps(ratios, indent=1)}")

    assert ratios["warm"]["speedup"] >= 10, ratios
    # Parallel mode never loses to serial (15% slack absorbs
    # wall-clock noise on shared CI runners).
    assert ratios["threads"]["speedup"] >= 0.85, ratios
    if can_scale:
        assert ratios["threads"]["speedup"] >= 2, ratios
    else:
        pytest.skip(
            f"only {CORES} core(s): thread speedup "
            f"{ratios['threads']['speedup']}x recorded as "
            f"meaningful=false (needs >= {PARALLEL_JOBS} cores)"
        )


def test_fast_path_replay_speedup():
    """Vectorised replay: >= 10x over the event path, bit-identical.

    YOLO C2 is the paper's flagship layer (Section IV-D); both replays
    consume the same pre-generated trace, so the ratio compares pure
    replay implementations with trace generation excluded.
    """
    spec = get_layer("yolo", "C2")
    options = SimulationOptions(max_ctas=8)
    trace = generate_sm_trace(spec, TITAN_V, BASELINE_KERNEL, options)

    def best_of(replay, reps):
        best, stats = float("inf"), None
        for _ in range(reps):
            lhb = make_lhb(1024, 1, options.lhb_lifetime, options.lhb_hashed_index)
            t0 = time.perf_counter()
            stats = replay(
                trace, spec, TITAN_V, options, EliminationMode.DUPLO, lhb
            )
            best = min(best, time.perf_counter() - t0)
        return best, stats

    t_event, s_event = best_of(replay_trace, 3)
    t_fast, s_fast = best_of(replay_trace_fast, 5)

    # Bit-identical on every LayerStats counter, or the ratio is moot.
    assert dataclasses.asdict(s_event) == dataclasses.asdict(s_fast)

    ratios = {
        "fast_path_layer": spec.qualified_name,
        "fast_path_events": int(trace.kind.size),
        "fast_path_cores": CORES,
        "event_replay_s": round(t_event, 4),
        "fast_replay_s": round(t_fast, 4),
        "fast_path_speedup": round(t_event / max(t_fast, 1e-9), 2),
    }
    _merge_results(ratios)
    print(f"\nfast path: {ratios}")
    assert ratios["fast_path_speedup"] >= 10, ratios
