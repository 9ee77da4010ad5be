"""CI perf-regression gate over the not-slow benchmark kernel set.

Runs a fixed suite of micro-benchmarks (closed-form trace
generation, fast- and event-path replays — direct-mapped and 8-way
set-associative — a PID-tagged multi-kernel shared-LHB replay in both
implementations, an end-to-end baseline/Duplo pair, a warm-cache sweep
rerun, a cold fast-path query, an analytic-tier geometry sweep, a cold
sweep run serially and with ``jobs=4`` worker threads, a subprocess
cold sweep — driven through the SweepExecutor — whose manifest
peak RSS must stay under a committed cap, and a warm-service QPS run
through the full ``repro.serve`` HTTP stack with every response
checked bit-identical against ``simulate_point``), takes the
**median over N repeats**, and either records a baseline or checks
the current build against one.

Record a fresh baseline (after an intentional perf-relevant change)::

    PYTHONPATH=src python scripts/perf_gate.py --record

which writes ``BENCH_<date>.json`` at the repository root — commit it
together with the change.  Recording refuses to run from a dirty git
tree (the baseline must describe a committed state); pass
``--allow-dirty`` to override deliberately.  Check against the committed baseline (the
lexicographically newest ``BENCH_*.json``)::

    PYTHONPATH=src python scripts/perf_gate.py --check

The check applies three rules, strictest first:

1. **counters** must match the baseline exactly — they are
   deterministic model outputs (LHB hits, events replayed), so any
   drift is a correctness regression, not noise;
2. **derived ratios** (``fast_path_speedup`` /
   ``assoc_fast_path_speedup`` / ``multikernel_fast_path_speedup`` —
   event replay over fast replay — ``trace_gen_events_per_s`` — the
   closed-form synthesizer's absolute generation rate — and
   ``analytic_speedup`` — a cold
   fast-path query over one warm-profile analytic query, target
   >= 100x — all measured in the same process on the same inputs —
   and ``parallel_efficiency``, the ``jobs=4`` thread sweep's speedup
   over the serial one per usable worker) must stay within ``--tolerance`` (default 25%) of the
   baseline, because ratios cancel host speed and are comparable
   across machines — except the host-shaped rates
   (``parallel_efficiency``, ``serve_warm_qps`` and
   ``trace_gen_events_per_s``), which are compared only against a
   baseline recorded with this host's ``cpu_count`` and otherwise
   printed as not comparable;
3. **absolute medians** must stay under ``baseline * --time-tolerance``
   (default 3.0x) — a loose catastrophic-regression backstop, since CI
   runners and developer machines differ widely in absolute speed.

Artifacts: ``--metrics-out`` / ``--manifest-out`` dump the
:mod:`repro.obs` metrics snapshot and run manifest (the CI perf lane
uploads both).  See ``docs/OBSERVABILITY.md`` for how to read a
failure.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

SCHEMA_VERSION = 1
DEFAULT_REPEATS = 5
DEFAULT_TOLERANCE = 0.25
DEFAULT_TIME_TOLERANCE = 3.0
#: Worker count for the parallel_sweep.threads benchmark; the derived
#: ``parallel_efficiency`` divides the thread sweep's speedup by
#: ``min(PARALLEL_SWEEP_JOBS, cpu_count)`` so the ratio is an
#: efficiency per *usable* worker, not per requested one.
PARALLEL_SWEEP_JOBS = 4
#: Geometry queries per timed analytic_sweep run (32 distinct
#: geometries x 10 passes, so the timed body is long enough for a
#: stable median); the derived ``analytic_speedup`` divides the
#: cold-query median by the per-query analytic median.
ANALYTIC_SWEEP_GEOMETRIES = 32
ANALYTIC_SWEEP_PASSES = 10
ANALYTIC_SWEEP_QUERIES = ANALYTIC_SWEEP_GEOMETRIES * ANALYTIC_SWEEP_PASSES
#: Generations per timed ``trace_gen`` run.  One synthesized trace is
#: ~2 ms — far too short for a stable median on a busy runner — so the
#: body repeats the identical generation; the derived
#: ``trace_gen_events_per_s`` counts every pass.
TRACE_GEN_PASSES = 5
#: Batch size for the cold_sweep full-network run — large enough that
#: the extrapolated grids dwarf the traced slice, exercising the
#: bounded-memory claim on a workload whose traces are the biggest
#: allocations in the process.
COLD_SWEEP_BATCH = 64
#: Warm-query passes per timed serve_warm_qps run: each pass answers
#: the full query set once over HTTP against the in-process server, so
#: one timed body is ``SERVE_WARM_PASSES * len(set)`` round-trips —
#: long enough for a stable median through the socket stack.
SERVE_WARM_PASSES = 25
#: Committed peak-RSS cap for the cold_sweep child process, read from
#: its obs run manifest (``VmHWM``: the child's own peak, not the
#: gate's).  Measured ~211 MB on the reference host (interpreter +
#: NumPy import dominate); the cap is a regression tripwire for
#: unbounded buffering, not a tight budget.
COLD_SWEEP_RSS_CAP_BYTES = 512 * 2**20
#: Derived rates shaped by the host rather than cancelling it (worker
#: count, socket stack, interpreter speed): a baseline recorded with a
#: different ``host.cpu_count`` says nothing about them.
HOST_SHAPED_RATES = (
    "parallel_efficiency", "serve_warm_qps", "trace_gen_events_per_s",
)

#: Child body for the cold_sweep benchmark: a full-network large-batch
#: cold sweep *through the SweepExecutor* in its own interpreter so the
#: manifest's ``peak_rss_bytes`` (a high-water mark, never resettable
#: in-process) measures exactly this workload and nothing else.
#: Driving the executor locks its trace residency: each worker holds
#: one trace at a time and none after its chunk.
_COLD_SWEEP_CHILD = """\
import dataclasses
import json
import sys

from repro import obs
from repro.conv.workloads import layers_for_network
from repro.gpu.config import SimulationOptions
from repro.gpu.ldst import EliminationMode
from repro.runtime.executor import SimPoint, SweepExecutor

batch = json.loads(sys.argv[1])
obs.enable()
obs.reset()
points = [
    SimPoint(
        spec=dataclasses.replace(spec, batch=batch),
        mode=EliminationMode.DUPLO,
        options=SimulationOptions(),
    )
    for spec in layers_for_network("yolo")
]
results = SweepExecutor(jobs=1, backend="serial").run(points)
rows = [
    [
        result.cycles,
        int(result.stats.lhb_hits),
        int(result.stats.lhb_lookups),
        int(result.stats.eliminated_fragments),
    ]
    for result in results
]
manifest = obs.collect_manifest("cold_sweep", argv=sys.argv)
json.dump(
    {"rows": rows, "peak_rss_bytes": manifest.peak_rss_bytes},
    sys.stdout,
)
"""


# ----------------------------------------------------------------------
# Benchmark definitions
# ----------------------------------------------------------------------

def _bench_suite() -> Dict[str, Callable[[], Tuple[Callable, Callable]]]:
    """Name → setup() returning ``(timed_fn, counters_fn)``.

    ``setup`` runs once (untimed); ``timed_fn`` is the measured body,
    repeated N times; ``counters_fn`` extracts the deterministic
    counters from the last run's return value.
    """
    from repro.analysis.sweeps import lhb_size_sweep
    from repro.conv.workloads import get_layer
    from repro.gpu.config import BASELINE_KERNEL, SimulationOptions, TITAN_V
    from repro.gpu.fastpath import replay_trace_fast
    from repro.gpu.kernel import generate_sm_trace
    from repro.gpu.ldst import EliminationMode, replay_trace
    from repro.gpu.simulator import clear_trace_cache, make_lhb, simulate_pair
    from repro.runtime import DiskCache, SweepExecutor

    yolo_c2 = get_layer("yolo", "C2")
    gan_tc3 = get_layer("gan", "TC3")
    replay_options = SimulationOptions(max_ctas=8)

    def trace_gen_setup():
        # max_ctas=8 keeps the timed body large enough that the
        # synthesizer's fixed per-plan overhead is amortised — the
        # regime trace_gen_events_per_s is meant to price.
        options = SimulationOptions(max_ctas=8)

        def run():
            for _ in range(TRACE_GEN_PASSES - 1):
                generate_sm_trace(yolo_c2, TITAN_V, BASELINE_KERNEL, options)
            return generate_sm_trace(yolo_c2, TITAN_V, BASELINE_KERNEL, options)

        def counters(trace):
            return {
                "events": int(trace.kind.size),
                "traced_ctas": int(trace.traced_ctas),
            }

        return run, counters

    def cold_sweep_setup():
        """Full-network large-batch cold sweep, bounded peak RSS.

        The timed body launches a child interpreter running a
        :class:`~repro.runtime.executor.SweepExecutor` over every yolo
        layer at batch ``COLD_SWEEP_BATCH``, then reads the child's
        obs run manifest: ``peak_rss_bytes`` must stay under the
        committed ``COLD_SWEEP_RSS_CAP_BYTES`` and the swept results
        must equal the direct :func:`simulate_layer` reference
        computed untimed here.  Both checks land in the deterministic
        counters (``rss_under_cap`` / ``matches_inmemory``); the
        actual high-water mark is kept outside ``counters`` (in
        ``extra``) because absolute RSS is host-shaped.
        """
        import dataclasses
        import subprocess

        from repro.conv.workloads import layers_for_network
        from repro.gpu.simulator import simulate_layer

        specs = [
            dataclasses.replace(spec, batch=COLD_SWEEP_BATCH)
            for spec in layers_for_network("yolo")
        ]
        reference = []
        for spec in specs:
            result = simulate_layer(
                spec,
                mode=EliminationMode.DUPLO,
                options=SimulationOptions(),
            )
            reference.append([
                result.cycles,
                int(result.stats.lhb_hits),
                int(result.stats.lhb_lookups),
                int(result.stats.eliminated_fragments),
            ])
        clear_trace_cache()

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")
            ) if p
        )
        child_args = json.dumps(COLD_SWEEP_BATCH)

        def run():
            proc = subprocess.run(
                [sys.executable, "-c", _COLD_SWEEP_CHILD, child_args],
                capture_output=True, text=True, env=env, check=True,
            )
            return json.loads(proc.stdout)

        def counters(payload):
            peak = payload["peak_rss_bytes"]
            return {
                "rows": len(payload["rows"]),
                "rss_under_cap": int(
                    peak is None or peak < COLD_SWEEP_RSS_CAP_BYTES
                ),
                "matches_inmemory": int(payload["rows"] == reference),
            }

        def extra(payload):
            return {
                "peak_rss_bytes": payload["peak_rss_bytes"],
                "rss_cap_bytes": COLD_SWEEP_RSS_CAP_BYTES,
            }

        return run, counters, extra

    def _replay_setup(replay, assoc=1):
        trace = generate_sm_trace(
            yolo_c2, TITAN_V, BASELINE_KERNEL, replay_options
        )

        def run():
            lhb = make_lhb(
                1024,
                assoc,
                replay_options.lhb_lifetime,
                replay_options.lhb_hashed_index,
            )
            return replay(
                trace, yolo_c2, TITAN_V, replay_options,
                EliminationMode.DUPLO, lhb,
            )

        def counters(stats):
            return {
                "events": int(trace.kind.size),
                "lhb_lookups": int(stats.lhb_lookups),
                "lhb_hits": int(stats.lhb_hits),
                "eliminated_fragments": int(stats.eliminated_fragments),
            }

        return run, counters

    def _multikernel_setup(fast):
        """Shared-LHB replay of a two-kernel interleave, PID-tagged.

        The streams and their round-robin interleave are prepared
        untimed (both implementations consume the identical arrays);
        the measured body is purely the buffer resolution — closed
        form vs. the event-level state machine.
        """
        from repro.gpu.fastpath import simulate_lhb_stream
        from repro.gpu.multikernel import _interleave, _workspace_stream

        options = SimulationOptions(max_ctas=4)
        streams = [
            _workspace_stream(spec, TITAN_V, BASELINE_KERNEL, options)
            for spec in (yolo_c2, gan_tc3)
        ]
        batch_i, element_i, pid_i = _interleave(streams, 256)
        element_l = element_i.tolist()
        batch_l = batch_i.tolist()
        pid_l = pid_i.tolist()

        def fresh():
            return make_lhb(
                1024, 1, options.lhb_lifetime, options.lhb_hashed_index
            )

        def run_fast():
            lhb = fresh()
            simulate_lhb_stream(element_i, batch_i, lhb, pid=pid_i)
            return lhb

        def run_event():
            lhb = fresh()
            access = lhb.access
            for e, b, p in zip(element_l, batch_l, pid_l):
                access(e, b, 0, pid=p)
            return lhb

        def counters(lhb):
            return {
                "lookups": int(lhb.stats.lookups),
                "hits": int(lhb.stats.hits),
                "compulsory_misses": int(lhb.stats.compulsory_misses),
            }

        return (run_fast if fast else run_event), counters

    def simulate_pair_setup():
        options = SimulationOptions(max_ctas=2)

        def run():
            # Trace generation is part of the measured end-to-end cost.
            clear_trace_cache()
            return simulate_pair(gan_tc3, lhb_entries=1024, options=options)

        def counters(pair):
            base, duplo = pair
            return {
                "baseline_lhb_hits": int(base.stats.lhb_hits),
                "duplo_lhb_hits": int(duplo.stats.lhb_hits),
                "duplo_lhb_lookups": int(duplo.stats.lhb_lookups),
            }

        return run, counters

    def cold_query_setup():
        """One cold exact query: trace generation plus fast replay.

        This is the cost the analytic tier displaces; the
        ``analytic_speedup`` ratio divides it by one warm-profile
        analytic query.
        """
        options = SimulationOptions(max_ctas=4)

        def run():
            trace = generate_sm_trace(
                yolo_c2, TITAN_V, BASELINE_KERNEL, options
            )
            lhb = make_lhb(
                1024, 1, options.lhb_lifetime, options.lhb_hashed_index
            )
            return replay_trace_fast(
                trace, yolo_c2, TITAN_V, options,
                EliminationMode.DUPLO, lhb,
            )

        def counters(stats):
            return {
                "lhb_lookups": int(stats.lhb_lookups),
                "lhb_hits": int(stats.lhb_hits),
                "eliminated_fragments": int(stats.eliminated_fragments),
            }

        return run, counters

    def analytic_sweep_setup():
        """32 LHB-geometry queries answered from one warm profile.

        The profile build (the only trace-stream work the analytic
        tier ever does) runs once, untimed — matching how sweeps use
        it: amortised per layer, O(1) per geometry afterwards.
        """
        from repro.analytic import clear_profile_cache, layer_profile, predict_stats
        from repro.core.lhb import LoadHistoryBuffer

        options = SimulationOptions(max_ctas=4)
        clear_profile_cache()
        profile = layer_profile(
            yolo_c2, EliminationMode.DUPLO, TITAN_V, BASELINE_KERNEL, options
        )
        geometries = [
            (sets * assoc, assoc, lifetime, True)
            for sets in (64, 256, 1024, 4096)
            for assoc in (1, 2, 4, 8)
            for lifetime in (4096, None)
        ]
        assert len(geometries) == ANALYTIC_SWEEP_GEOMETRIES

        def run():
            total_hits = 0
            for _ in range(ANALYTIC_SWEEP_PASSES):
                for entries, assoc, lifetime, hashed in geometries:
                    stats = predict_stats(
                        profile,
                        LoadHistoryBuffer(
                            num_entries=entries, assoc=assoc,
                            lifetime=lifetime, hashed_index=hashed,
                        ),
                    )
                    total_hits += stats.lhb_hits
            return total_hits

        run()  # untimed warm-up: builds the profile's lazy level tables

        def counters(total_hits):
            return {
                "queries": ANALYTIC_SWEEP_QUERIES,
                "total_lhb_hits": int(total_hits),
            }

        return run, counters

    def _parallel_sweep_setup(jobs):
        """Cold Figure 9 sweep with ``jobs`` worker threads.

        Every timed run gets a fresh cache directory and a cleared
        in-process trace LRU, so both variants (serial and threads)
        price the identical cold workload and their min_s values
        divide into an honest speedup.
        """
        import atexit
        import itertools
        import shutil
        import tempfile

        options = SimulationOptions(max_ctas=1)
        layers = [get_layer("resnet", "C2"), get_layer("gan", "C4")]
        tmp = tempfile.mkdtemp(prefix="perf_gate_psweep_")
        atexit.register(shutil.rmtree, tmp, True)
        fresh_dir = itertools.count()

        def run():
            clear_trace_cache()
            cache = DiskCache(os.path.join(tmp, str(next(fresh_dir))))
            return lhb_size_sweep(
                layers, options=options,
                executor=SweepExecutor(jobs=jobs, cache=cache),
            )

        def counters(exp):
            return {"rows": len(exp.rows)}

        return run, counters

    def serve_warm_setup():
        """Warm-cache QPS through the full service + HTTP stack.

        An in-process :class:`~repro.serve.QueryService` (fresh cache
        dir) serves the load harness's default query set; the warm-up
        pass and per-query reference payloads are computed untimed.
        The timed body answers the whole set ``SERVE_WARM_PASSES``
        times over real localhost HTTP, comparing every response to
        its reference — so ``bit_identical`` is a deterministic
        counter while the achieved QPS lands in ``extra`` (absolute
        throughput is host-shaped; the 3x median backstop still
        catches a collapse).
        """
        import atexit
        import shutil
        import tempfile
        import threading
        import urllib.request

        from repro.runtime.executor import simulate_point
        from repro.serve import QueryService, ServiceConfig, make_server
        from repro.serve.schema import parse_query, query_point, result_payload

        sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))
        from load_test import DEFAULT_QUERIES

        tmp = tempfile.mkdtemp(prefix="perf_gate_serve_")
        atexit.register(shutil.rmtree, tmp, True)
        service = QueryService(ServiceConfig(cache_dir=tmp))
        server = make_server("127.0.0.1", 0, service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        atexit.register(server.shutdown)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}/query"

        def ask(body):
            req = urllib.request.Request(
                url,
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=60) as resp:
                return json.loads(resp.read())

        queries = list(DEFAULT_QUERIES)
        reference = []
        for body in queries:
            ask(body)  # untimed warm-up: caches + analytic profile
            q = parse_query(body)
            reference.append(
                json.loads(
                    json.dumps(result_payload(q, simulate_point(query_point(q))))
                )
            )

        def run():
            identical = 0
            for _ in range(SERVE_WARM_PASSES):
                for body, expect in zip(queries, reference):
                    if ask(body) == expect:
                        identical += 1
            return identical

        total = SERVE_WARM_PASSES * len(queries)

        def counters(identical):
            return {
                "queries": total,
                "bit_identical": int(identical == total),
            }

        def extra(identical):
            return {"note": "qps = queries / median_s (host-shaped)"}

        return run, counters, extra

    def warm_sweep_setup():
        import atexit
        import shutil
        import tempfile

        options = SimulationOptions(max_ctas=1)
        layers = [get_layer("resnet", "C2"), get_layer("gan", "C4")]
        tmp = tempfile.mkdtemp(prefix="perf_gate_cache_")
        atexit.register(shutil.rmtree, tmp, True)
        cache = DiskCache(tmp)
        # Populate once; the timed body is the fully warm rerun.
        lhb_size_sweep(
            layers, options=options,
            executor=SweepExecutor(jobs=1, cache=cache),
        )

        def run():
            clear_trace_cache()
            return lhb_size_sweep(
                layers, options=options,
                executor=SweepExecutor(jobs=1, cache=cache),
            )

        def counters(exp):
            return {"rows": len(exp.rows)}

        return run, counters

    return {
        "trace_gen.yolo_c2": trace_gen_setup,
        "cold_sweep.yolo": cold_sweep_setup,
        "replay_fast.yolo_c2": lambda: _replay_setup(replay_trace_fast),
        "replay_event.yolo_c2": lambda: _replay_setup(replay_trace),
        "replay_fast_assoc8.yolo_c2":
            lambda: _replay_setup(replay_trace_fast, assoc=8),
        "replay_event_assoc8.yolo_c2":
            lambda: _replay_setup(replay_trace, assoc=8),
        "multikernel_fast.yolo_gan": lambda: _multikernel_setup(True),
        "multikernel_event.yolo_gan": lambda: _multikernel_setup(False),
        "simulate_pair.gan_tc3": simulate_pair_setup,
        "sweep.warm_cache": warm_sweep_setup,
        "serve_warm_qps.default_set": serve_warm_setup,
        "parallel_sweep.serial": lambda: _parallel_sweep_setup(1),
        "parallel_sweep.threads":
            lambda: _parallel_sweep_setup(PARALLEL_SWEEP_JOBS),
        "cold_query.yolo_c2": cold_query_setup,
        "analytic_sweep.yolo_c2": analytic_sweep_setup,
    }


def run_suite(repeats: int) -> Dict[str, dict]:
    results: Dict[str, dict] = {}
    for name, setup in _bench_suite().items():
        # setup() returns (run, counters) or (run, counters, extra);
        # ``extra`` carries host-shaped diagnostics (e.g. the
        # cold sweep's actual peak RSS) that the checker must
        # never compare across machines.
        run, counters, *rest = setup()
        times: List[float] = []
        last = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            last = run()
            times.append(time.perf_counter() - t0)
        results[name] = {
            "median_s": round(statistics.median(times), 5),
            "min_s": round(min(times), 5),
            "counters": counters(last),
        }
        if rest:
            results[name]["extra"] = rest[0](last)
        print(
            f"  {name:28s} median {results[name]['median_s']:.4f}s "
            f"(min {results[name]['min_s']:.4f}s)"
        )
    return results


def derived_ratios(benchmarks: Dict[str, dict]) -> Dict[str, float]:
    ratios: Dict[str, float] = {}
    pairs = {
        "fast_path_speedup":
            ("replay_event.yolo_c2", "replay_fast.yolo_c2"),
        "assoc_fast_path_speedup":
            ("replay_event_assoc8.yolo_c2", "replay_fast_assoc8.yolo_c2"),
        "multikernel_fast_path_speedup":
            ("multikernel_event.yolo_gan", "multikernel_fast.yolo_gan"),
    }
    for name, (event_key, fast_key) in pairs.items():
        fast = benchmarks.get(fast_key, {}).get("median_s")
        event = benchmarks.get(event_key, {}).get("median_s")
        if fast and event:
            ratios[name] = round(event / fast, 2)
    # Closed-form synthesis rate in events/second — host-shaped, like
    # serve_warm_qps below.
    gen = benchmarks.get("trace_gen.yolo_c2", {})
    gen_events = gen.get("counters", {}).get("events")
    if gen.get("median_s") and gen_events:
        ratios["trace_gen_events_per_s"] = round(
            gen_events * TRACE_GEN_PASSES / gen["median_s"]
        )
    cold = benchmarks.get("cold_query.yolo_c2", {}).get("median_s")
    sweep = benchmarks.get("analytic_sweep.yolo_c2", {}).get("median_s")
    if cold and sweep:
        # Cold exact query vs ONE analytic query off the warm profile.
        ratios["analytic_speedup"] = round(
            cold / (sweep / ANALYTIC_SWEEP_QUERIES), 2
        )
    # Warm service throughput in queries/second.  Like
    # parallel_efficiency this is host-shaped (localhost socket stack
    # plus interpreter speed); the 25% floor catches a serving-path
    # regression while a faster runner sails through.
    serve = benchmarks.get("serve_warm_qps.default_set", {})
    serve_queries = serve.get("counters", {}).get("queries")
    if serve.get("median_s") and serve_queries:
        ratios["serve_warm_qps"] = round(serve_queries / serve["median_s"], 1)
    # The parallel-sweep ratio uses min_s, not median_s: pool start-up
    # and scheduler jitter skew single-run wall clocks upward, and the
    # best-of-N run is the closest observable to each venue's true
    # cost.  It is per usable worker and therefore host-shaped: on one
    # core the thread sweep runs inline, so the ratio sits near 1.0.
    serial_min = benchmarks.get("parallel_sweep.serial", {}).get("min_s")
    threads_min = benchmarks.get("parallel_sweep.threads", {}).get("min_s")
    if serial_min and threads_min:
        workers = min(PARALLEL_SWEEP_JOBS, os.cpu_count() or 1)
        ratios["parallel_efficiency"] = round(
            (serial_min / threads_min) / workers, 2
        )
    return ratios


def build_report(repeats: int) -> dict:
    from repro.obs.manifest import git_revision, host_fingerprint

    print(f"running perf suite ({repeats} repeats per benchmark)...")
    benchmarks = run_suite(repeats)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "duplo-perf-baseline",
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repeats": repeats,
        "host": host_fingerprint(),
        "git": git_revision(REPO_ROOT),
        "benchmarks": benchmarks,
        "derived": derived_ratios(benchmarks),
    }


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------

def dirty_tree_entries(root: str) -> List[str]:
    """``git status --porcelain`` lines, or [] when clean / not a repo.

    A recorded baseline embeds the git revision; recording from a
    dirty tree would pin numbers no commit can reproduce.
    """
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return []
    if proc.returncode != 0:
        return []
    return [line for line in proc.stdout.splitlines() if line.strip()]


def find_baseline(path: Optional[str]) -> str:
    if path:
        return path
    candidates = sorted(glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))
    if not candidates:
        raise SystemExit(
            "no BENCH_*.json baseline found; record one with --record"
        )
    return candidates[-1]


def check_against(
    report: dict,
    baseline: dict,
    tolerance: float,
    time_tolerance: float,
) -> List[str]:
    """Compare a fresh report to the baseline; returns failure lines."""
    failures: List[str] = []
    base_benchmarks = baseline.get("benchmarks", {})
    for name, current in report["benchmarks"].items():
        ref = base_benchmarks.get(name)
        if ref is None:
            print(f"  {name}: no baseline entry (new benchmark) — skipped")
            continue
        for key, expected in ref.get("counters", {}).items():
            got = current["counters"].get(key)
            if got != expected:
                failures.append(
                    f"counter drift in {name}: {key} = {got}, "
                    f"baseline {expected} (deterministic — investigate "
                    "a model/behavior change, not noise)"
                )
        limit = ref["median_s"] * time_tolerance
        if current["median_s"] > limit:
            failures.append(
                f"time regression in {name}: median {current['median_s']:.4f}s "
                f"> {limit:.4f}s ({time_tolerance:.1f}x baseline "
                f"{ref['median_s']:.4f}s)"
            )
    cores = report["host"].get("cpu_count")
    base_cores = baseline.get("host", {}).get("cpu_count")
    for name, expected in baseline.get("derived", {}).items():
        got = report["derived"].get(name)
        if got is None:
            continue
        if name in HOST_SHAPED_RATES and cores != base_cores:
            print(
                f"  {name} = {got}: not comparable (baseline recorded "
                f"with cpu_count {base_cores}, this host has {cores})"
            )
            continue
        floor = expected * (1.0 - tolerance)
        if got < floor:
            failures.append(
                f"ratio regression: {name} = {got:.2f}, below "
                f"{floor:.2f} (baseline {expected:.2f} - {tolerance:.0%})"
            )
    return failures


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="record or check the perf-regression baseline"
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--record", action="store_true",
        help="run the suite and write a BENCH_<date>.json baseline",
    )
    mode.add_argument(
        "--check", action="store_true",
        help="run the suite and compare against the committed baseline",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline path (default: newest BENCH_*.json in repo root)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path for --record (default BENCH_<date>.json)",
    )
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional drop in derived ratios (default 0.25)",
    )
    parser.add_argument(
        "--time-tolerance", type=float, default=DEFAULT_TIME_TOLERANCE,
        help="allowed multiple of baseline median seconds (default 3.0)",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="also write the repro.obs metrics snapshot as JSON",
    )
    parser.add_argument(
        "--manifest-out", default=None,
        help="also write a run manifest next to the gate output",
    )
    parser.add_argument(
        "--allow-dirty", action="store_true",
        help="let --record overwrite the baseline from a dirty git tree",
    )
    args = parser.parse_args(argv)

    if args.record and not args.allow_dirty:
        dirty = dirty_tree_entries(REPO_ROOT)
        if dirty:
            print(
                "refusing to record a perf baseline from a dirty git tree\n"
                "(the baseline embeds the git revision; uncommitted changes "
                "would make it\nirreproducible). Uncommitted entries:"
            )
            for line in dirty[:20]:
                print(f"  {line}")
            if len(dirty) > 20:
                print(f"  ... and {len(dirty) - 20} more")
            print(
                "\nInspect with `git diff`, commit or stash first, or rerun "
                "with --allow-dirty\nto record anyway."
            )
            return 1

    from repro import obs

    if args.metrics_out or args.manifest_out:
        obs.enable()
        obs.reset()
    with obs.span("perf_gate", mode="record" if args.record else "check"):
        report = build_report(args.repeats)

    if args.metrics_out:
        payload = {"schema_version": 1, "command": "perf_gate"}
        payload.update(obs.snapshot())
        with open(args.metrics_out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.manifest_out:
        obs.collect_manifest("perf_gate", argv=sys.argv).write(
            args.manifest_out
        )

    if args.record:
        out = args.out or os.path.join(
            REPO_ROOT, time.strftime("BENCH_%Y-%m-%d.json", time.gmtime())
        )
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"baseline written: {out}")
        return 0

    baseline_path = find_baseline(args.baseline)
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    print(f"checking against {baseline_path}")
    failures = check_against(
        report, baseline, args.tolerance, args.time_tolerance
    )
    if failures:
        print("\nPERF GATE FAILED:")
        for line in failures:
            print(f"  - {line}")
        print(
            "\nIf the regression is intentional, refresh the baseline "
            "(scripts/perf_gate.py --record) and commit the new "
            "BENCH_*.json; see docs/OBSERVABILITY.md."
        )
        return 1
    print("perf gate OK: counters exact, ratios and medians within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
