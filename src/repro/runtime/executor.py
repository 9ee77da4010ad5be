"""Adaptive parallel experiment executor with persistent result caching.

The sweep engine fans ``(layer, configuration)`` points out across
workers.  Work is submitted as *chunks* — all configuration points of
one layer form one chunk, and a chunk never splits across workers — so
each worker generates a layer's trace once and reuses it for every
configuration point, exactly like the serial path did.

Dispatch is *adaptive*.  Pool startup and job pickling are fixed costs
that dominated small sweeps once per-layer simulation got fast (the
``parallel_speedup: 0.58`` regression this module's cutover fixes), so
the executor prices every chunk first — closed-form event-count
estimate from the kernel geometry, times a per-event rate for the tier
that will answer it (fast vectorised replay vs. event-level Python
loop), plus trace generation when neither the in-process LRU nor the
disk store holds the trace — and only opens a pool when the estimated
parallel saving exceeds the pool's startup cost.  Small sweeps run
inline; the decision picks the *venue* only and can never change
results.

Three worker venues exist (``backend=``):

``threads``
    ``ThreadPoolExecutor`` workers in this process.  The fast tier is
    NumPy-vectorised and releases the GIL for the bulk of its time, so
    threads get real parallelism there at zero serialisation cost —
    workers share the parent's trace LRU and metrics registry
    directly.  Thread workers must **not** export/merge their
    instrumentation: they already record onto the parent's registry,
    and merging would double-count (the regression suite pins this).

``processes``
    ``multiprocessing.Pool`` (``fork`` where available).  The event
    tier holds the GIL in a Python loop, so it needs processes.  Trace
    hand-off is zero-copy: workers never receive a pickled
    :class:`KernelTrace` — they receive the points plus
    content-addressed store keys and open the shared
    :class:`~repro.runtime.store.DiskCache` with ``mmap_traces=True``,
    memory-mapping the persisted columnar events so every worker on
    the host shares one copy of the pages through the OS page cache.

``shared-store``
    Multi-host groundwork: executors on different machines pointed at
    one cache directory coordinate *purely through the filesystem*.
    Each chunk is claimed with an atomic ``O_CREAT | O_EXCL`` claim
    file (:meth:`DiskCache.try_claim`); the winner computes and
    persists results, losers poll the result keys and adopt them,
    stealing the chunk if the winner exceeds ``shared_timeout_s``.

``auto`` picks the venue per chunk (event-tier chunks → processes,
fast-tier chunks → threads, both pools may run concurrently);
``serial`` forces inline.

Cold fast-tier points **stream**: when neither the in-process LRU nor
the disk store holds a point's trace, :func:`simulate_point` routes it
through :func:`~repro.gpu.simulator.simulate_layer_streaming` — trace
blocks flow straight from the closed-form synthesizer into the
replay's incremental accumulator (and, when a store is attached, into
its streaming sidecar writer), so a full-network cold sweep never
materialises any layer's event columns.  Peak RSS stays bounded by one
block plus the replay's compact derived streams, which the
``streaming_sweep`` perf-gate benchmark asserts end to end through
this executor.  Warm traces keep the cheaper replay-from-store path
(mmap zero-copy where enabled).  ``streaming="off"`` (or
``$REPRO_SWEEP_STREAM=off``) restores the materialising path; results
are bit-identical either way (the PR 8 equivalence suite pins this at
any block size).

Determinism contract: a point's :class:`LayerResult` is a pure
function of the point (the simulator has no hidden state beyond its
caches, which only ever return artifacts produced by the same pure
function).  Results are therefore bit-identical whether computed
inline, by a thread, by a worker process, adopted from another host,
or read back from the on-disk cache; ``tests/test_executor_backends.py``
and ``tests/test_runtime_equivalence.py`` enforce this for every
backend and elimination mode.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.conv.layer import ConvLayerSpec
from repro.gpu.config import (
    BASELINE_KERNEL,
    GPUConfig,
    KernelConfig,
    SimulationOptions,
    TITAN_V,
)
from repro.gpu.ldst import EliminationMode
from repro.runtime.cachekey import chunk_claim_key, result_key, trace_key
from repro.runtime.store import DiskCache

#: Valid ``SweepExecutor(backend=...)`` values.
BACKENDS = ("auto", "serial", "threads", "processes", "shared-store")

#: Valid ``SweepExecutor(streaming=...)`` values.  ``auto`` streams
#: cold fast-tier points (bounded RSS); ``off`` always materialises.
STREAMING_MODES = ("auto", "off")

#: Environment override for the streaming dispatch: ``on``/``off``
#: apply when the executor was constructed with ``streaming="auto"``.
STREAM_ENV = "REPRO_SWEEP_STREAM"


@dataclass(frozen=True)
class SimPoint:
    """One unit of sweep work: a layer under one configuration.

    ``mode=DUPLO`` with ``lhb_entries=None`` is the paper's oracle
    (unbounded LHB).  Points are frozen and picklable so they can
    cross process boundaries and feed content-addressed cache keys.
    """

    spec: ConvLayerSpec
    mode: EliminationMode = EliminationMode.DUPLO
    lhb_entries: Optional[int] = 1024
    lhb_assoc: int = 1
    gpu: GPUConfig = TITAN_V
    kernel: KernelConfig = BASELINE_KERNEL
    options: SimulationOptions = SimulationOptions()

    def cache_key(self) -> str:
        return result_key(
            self.spec,
            self.gpu,
            self.kernel,
            self.options,
            self.mode.value,
            self.lhb_entries,
            self.lhb_assoc,
        )


def _resolves_analytic(point: SimPoint) -> bool:
    """True when this point will be answered by the analytic tier.

    Analytic answers are approximate: they bypass the result cache in
    both directions (never served from exact results persisted
    earlier, never persisted where an exact tier would read them).
    The cache key normalises ``engine`` away, so without this bypass
    the two tiers would share keys.
    """
    from repro.analytic.engine import analytic_resolves

    return analytic_resolves(
        point.kernel,
        point.options,
        point.mode,
        point.lhb_entries,
        point.lhb_assoc,
    )


def _stream_cold(point: SimPoint, cache: Optional[DiskCache]) -> bool:
    """Should this point stream instead of materialising its trace?

    Streaming pays off exactly when the trace does not exist anywhere
    yet: the closed-form synthesizer then feeds the replay (and the
    store's sidecar writer) blockwise, so nothing ever holds the full
    event columns.  A trace already in the in-process LRU or the disk
    store is cheaper to replay from (mmap zero-copy where enabled) —
    and keeps RSS flat anyway, since it is materialised at most once.
    Only the fast tier can stream (the accumulator is the vectorised
    replay's).
    """
    from repro.gpu import simulator

    if _point_tier(point) != "fast":
        return False
    if simulator.trace_is_cached(
        point.spec, point.gpu, point.kernel, point.options
    ):
        return False
    store = cache if cache is not None else simulator.get_trace_store()
    if store is not None and store.has_trace(
        trace_key(point.spec, point.gpu, point.kernel, point.options)
    ):
        return False
    return True


def simulate_point(
    point: SimPoint,
    cache: Optional[DiskCache] = None,
    key: Optional[str] = None,
    streaming: bool = False,
):
    """Get-or-compute one point's :class:`LayerResult`.

    ``key`` is the precomputed result key when the caller already paid
    for it (the executor's prefilter ships keys with the points so
    workers never recompute the digest).  ``streaming=True`` routes
    cold fast-tier points through the bounded-RSS
    :func:`~repro.gpu.simulator.simulate_layer_streaming` entry,
    teeing the synthesized trace into ``cache`` (or the simulator's
    attached trace store) so later points find it warm; results are
    bit-identical to the materialising path.
    """
    from repro.gpu import simulator
    from repro.gpu.simulator import simulate_layer

    if cache is not None and _resolves_analytic(point):
        cache = None
    if cache is not None:
        if key is None:
            key = point.cache_key()
        hit = cache.get_result(key)
        if hit is not None:
            return hit
    if streaming and _stream_cold(point, cache):
        tee = cache if cache is not None else simulator.get_trace_store()
        obs.add("executor.streamed_points")
        result = simulator.simulate_layer_streaming(
            point.spec,
            point.mode,
            lhb_entries=point.lhb_entries,
            lhb_assoc=point.lhb_assoc,
            gpu=point.gpu,
            kernel=point.kernel,
            options=point.options,
            store=tee,
        )
    else:
        result = simulate_layer(
            point.spec,
            point.mode,
            lhb_entries=point.lhb_entries,
            lhb_assoc=point.lhb_assoc,
            gpu=point.gpu,
            kernel=point.kernel,
            options=point.options,
        )
    if cache is not None:
        cache.put_result(key, result)
    return result


# ----------------------------------------------------------------------
# Cost model: what will this chunk cost, and which venue fits it?
# ----------------------------------------------------------------------
#
# The constants below are wall-clock rates measured on the benchmark
# layers (order-of-magnitude calibration; the cutover only needs the
# *ratio* of work to pool overhead to be roughly right, and the
# decision can never change results — only where they are computed).

#: Seconds per traced event to *generate* a trace.  Re-calibrated for
#: the closed-form columnar synthesizer (measured 1.2–2.2e-8 s/event on
#: the benchmark layers; priced with headroom so small hosts still
#: stay inline for now-cheap generation-bound chunks).
SEC_PER_EVENT_GENERATE = 4e-8
#: Seconds per event for one fast-tier (vectorised) replay.
SEC_PER_EVENT_FAST = 1.5e-7
#: Seconds per event for one event-tier (Python state machine) replay.
SEC_PER_EVENT_EVENT = 1.5e-6
#: Seconds for one analytic-tier query (profile build amortised).
SEC_PER_ANALYTIC_POINT = 2e-3

#: Pool startup cost by multiprocessing start method (fork is cheap,
#: spawn re-imports the world in every worker).
POOL_OVERHEAD_S = {"fork": 0.10, "forkserver": 0.35, "spawn": 0.8}
#: Thread-pool startup cost (threads are nearly free to start).
THREAD_OVERHEAD_S = 0.01


def estimate_trace_events(point: SimPoint) -> int:
    """Closed-form event count of ``point``'s trace (no generation).

    Mirrors the kernel's emission arithmetic — per traced CTA, each
    warp issues ``octet_duplication`` A- and B-fragment load
    instructions per *valid* owned tile per k-step (``tile_m``
    fragment events per A tile, ``tile_n`` per B tile) plus one
    ``tile_m``-event store block per valid output tile pair, where
    tiles past the matrix edge are guarded off exactly as
    ``_plan_cta`` does — so for the explicit kernel this is not an
    estimate at all: it equals the traced event count.  Implicit mode
    adds staging fetches approximated at one input fragment per four
    workspace fragments; the estimator only needs ordinal accuracy
    there (implicit chunks price high enough to pool either way).
    """
    from repro.gpu.kernel import gemm_geometry, sm_cta_blocks

    k = point.kernel
    gpu = point.gpu
    geom = gemm_geometry(point.spec, gpu)
    blocks, _total = sm_cta_blocks(
        geom, k, gpu, point.options.representative_sm
    )
    if point.options.max_ctas is not None:
        blocks = blocks[: point.options.max_ctas]
    k_steps = geom.k_pad // gpu.tile_k
    warps_n = k.cta_tile_n // k.warp_tile_n

    def valid_tiles(origin: int, tiles: int, extent: int, tile: int) -> int:
        """Owned tiles whose base index lies inside the matrix."""
        if origin >= extent:
            return 0
        return min(tiles, -(-(extent - origin) // tile))

    events = 0
    for cta_m, cta_n in blocks:
        for w in range(k.warps_per_cta):
            wm, wn = divmod(w, warps_n)
            m0 = cta_m * k.cta_tile_m + wm * k.warp_tile_m
            n0 = cta_n * k.cta_tile_n + wn * k.warp_tile_n
            a_tiles = valid_tiles(
                m0, k.warp_tile_m // gpu.tile_m, geom.m, gpu.tile_m
            )
            b_tiles = valid_tiles(
                n0, k.warp_tile_n // gpu.tile_n, geom.n, gpu.tile_n
            )
            loads = (
                (a_tiles * gpu.tile_m + b_tiles * gpu.tile_n)
                * k.octet_duplication
                * k_steps
            )
            events += loads + a_tiles * b_tiles * gpu.tile_m
            if k.implicit:
                events += loads // 4
    return events


def _point_tier(point: SimPoint) -> str:
    """Which engine tier will answer ``point``: analytic/fast/event.

    A *pure* mirror of the simulator's tier selection — it must not
    touch ``repro.obs`` (a cost estimate is not a simulation).  Points
    always reach ``simulate_layer`` with a fresh LHB, so the only
    route to the event tier is the explicit ``engine="event"`` pin
    (or its env override).
    """
    from repro.analytic.engine import resolve_engine

    if _resolves_analytic(point):
        return "analytic"
    if resolve_engine(point.options) == "event":
        return "event"
    return "fast"


@dataclass
class _ChunkPlan:
    """One pending chunk, priced and routed."""

    index: int  # position in the submitted chunk list
    missing: List[Tuple[int, SimPoint, Optional[str]]]  # (pi, point, key)
    est_s: float
    venue: str  # "threads" | "processes"


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------

_log = logging.getLogger(__name__)

_worker_cache: Optional[DiskCache] = None


def _init_worker(cache_root: Optional[str], obs_enabled: bool = False) -> None:
    """Pool initializer: open the shared store, hook the trace cache.

    The worker's store is opened with ``mmap_traces=True`` — the
    zero-copy hand-off: persisted columnar traces are memory-mapped,
    not unpickled or inflated, so N workers replaying one layer share
    a single copy of its event pages.
    """
    global _worker_cache
    from repro.gpu import simulator

    if cache_root is not None:
        _worker_cache = DiskCache(cache_root, mmap_traces=True)
        simulator.set_trace_store(_worker_cache)
    else:
        _worker_cache = None
    if obs_enabled:
        # Start from a clean slate: under ``fork`` the child inherits
        # the parent's recorded state, which must not be shipped back
        # (the parent already holds it — merging would double-count).
        obs.enable()
        obs.reset()


def _run_chunk(job):
    """Process-worker body: one layer's points, in order (trace reuse).

    Returns ``(index, results, payload)`` where ``payload`` is the
    chunk's instrumentation delta (spans + metrics recorded while the
    chunk ran) or ``None`` when observability is off.  The recorded
    state is reset after export so a worker serving many chunks ships
    each delta exactly once.
    """
    index, points, streaming = job
    if not obs.enabled():
        return (
            index,
            [
                simulate_point(p, _worker_cache, key, streaming=streaming)
                for _, p, key in points
            ],
            None,
        )
    t0 = time.perf_counter()
    layer = points[0][1].spec.qualified_name if points else "?"
    with obs.span(
        "executor.chunk", layer=layer, points=len(points), backend="processes"
    ):
        results = [
            simulate_point(p, _worker_cache, key, streaming=streaming)
            for _, p, key in points
        ]
    payload = obs.export_state()
    payload["busy_s"] = time.perf_counter() - t0
    payload["pid"] = os.getpid()
    obs.reset()
    return index, results, payload


def _run_chunk_threaded(
    plan: _ChunkPlan, cache: Optional[DiskCache], streaming: bool = False
):
    """Thread-worker body: records straight onto the shared registry.

    No ``export_state`` / ``merge_state`` / ``reset`` here: the thread
    shares the parent's metrics registry, so its spans and counters
    are already in place the moment they are recorded.  Exporting and
    merging (the process-worker protocol) would re-add everything the
    parent can already see — the double-count the regression suite
    guards against — and a ``reset`` would wipe the *parent's* state.
    """
    t0 = time.perf_counter()
    layer = plan.missing[0][1].spec.qualified_name if plan.missing else "?"
    with obs.span(
        "executor.chunk",
        layer=layer,
        points=len(plan.missing),
        backend="threads",
    ):
        out = [
            (pi, simulate_point(p, cache, key, streaming=streaming))
            for pi, p, key in plan.missing
        ]
    return plan.index, out, time.perf_counter() - t0


class SweepExecutor:
    """Fans sweep chunks across workers; caches traces and results.

    Parameters
    ----------
    jobs:
        Worker count ceiling.  ``1`` (default) runs inline in the
        calling process — the serial reference path.
    cache:
        Optional :class:`DiskCache`.  When set, layer results are
        served from / persisted to disk and workers route trace
        generation through the same store.  Required for
        ``backend="shared-store"``.
    backend:
        ``"auto"`` (price each chunk, pick threads for the vectorised
        tiers and processes for the event tier), ``"serial"`` (always
        inline), ``"threads"``, ``"processes"``, or ``"shared-store"``
        (multi-host coordination through the cache directory).
    cutover:
        ``"auto"`` opens a pool only when the estimated work saved
        exceeds the pool's startup cost; a number is an estimated-
        seconds threshold — pools open when the pending work prices at
        or above it (``0`` forces pooling, ``math.inf`` forces
        inline).  Venue only: the decision can never change results.
    streaming:
        ``"auto"`` (default) streams cold fast-tier points through the
        bounded-RSS :func:`simulate_layer_streaming` entry (teeing
        fresh traces into the store); ``"off"`` always materialises.
        ``$REPRO_SWEEP_STREAM=off`` pins it off when left at auto.
        Bit-identical either way — this knob only moves memory.
    shared_timeout_s / shared_poll_s:
        Shared-store patience: how long to wait for another host's
        claimed chunk before stealing it, and the poll interval.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[DiskCache] = None,
        backend: str = "auto",
        cutover: Union[str, float] = "auto",
        streaming: str = "auto",
        shared_timeout_s: float = 300.0,
        shared_poll_s: float = 0.05,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if streaming not in STREAMING_MODES:
            raise ValueError(
                f"streaming must be one of {STREAMING_MODES}, "
                f"got {streaming!r}"
            )
        if cutover != "auto":
            cutover = float(cutover)
            if math.isnan(cutover) or cutover < 0:
                raise ValueError(f"cutover must be 'auto' or >= 0, got {cutover}")
        if backend == "shared-store" and cache is None:
            raise ValueError("backend='shared-store' requires a cache")
        self.jobs = jobs
        self.cache = cache
        self.backend = backend
        self.cutover = cutover
        self.streaming = streaming
        self.shared_timeout_s = shared_timeout_s
        self.shared_poll_s = shared_poll_s

    def _stream(self) -> bool:
        """Resolved streaming dispatch (constructor + env override)."""
        if self.streaming == "off":
            return False
        return os.environ.get(STREAM_ENV, "").strip().lower() != "off"

    # -- public API -----------------------------------------------------

    def run(self, points: Sequence[SimPoint]) -> List:
        """Run independent points (each its own chunk)."""
        return [chunk[0] for chunk in self.run_chunks([[p] for p in points])]

    def run_chunks(self, chunks: Sequence[Sequence[SimPoint]]) -> List[List]:
        """Run chunked points, preserving submission order.

        All points of one chunk run on one worker, in order.  Results
        come back as one list per chunk, aligned with the input.
        """
        chunks = [list(c) for c in chunks]
        results: Dict[Tuple[int, int], object] = {}
        sweep_span = obs.span(
            "executor.run_chunks",
            chunks=len(chunks),
            points=sum(len(c) for c in chunks),
            jobs=self.jobs,
            backend=self.backend,
        )
        with sweep_span:
            pending = self._prefilter(chunks, results)
            if pending:
                if self.backend == "shared-store":
                    self._run_shared(pending, results)
                else:
                    self._run_local(pending, results)
        return [
            [results[(ci, pi)] for pi in range(len(chunk))]
            for ci, chunk in enumerate(chunks)
        ]

    # -- prefilter ------------------------------------------------------

    def _prefilter(self, chunks, results) -> List[Tuple[int, list]]:
        """Resolve warm and analytic points inline; return the rest.

        A point is resolved here — and its chunk therefore shrinks —
        when the result cache already holds it, or when the analytic
        tier answers it (closed forms over a memoised layer profile;
        cheaper than any dispatch).  A chunk whose *every* point
        resolves never reaches a worker (``executor.chunks_skipped``).
        """
        pending: List[Tuple[int, list]] = []
        cache_hits = 0
        analytic_hits = 0
        skipped = 0
        for ci, chunk in enumerate(chunks):
            missing = []
            for pi, point in enumerate(chunk):
                if _resolves_analytic(point):
                    results[(ci, pi)] = simulate_point(point, None)
                    analytic_hits += 1
                    continue
                key = None
                if self.cache is not None:
                    key = point.cache_key()
                    hit = self.cache.get_result(key)
                    if hit is not None:
                        results[(ci, pi)] = hit
                        cache_hits += 1
                        continue
                missing.append((pi, point, key))
            if missing:
                pending.append((ci, missing))
            elif chunk:
                skipped += 1
        obs.add("executor.chunks", len(chunks))
        obs.add("executor.points", sum(len(c) for c in chunks))
        obs.add("executor.prefilter_hits", cache_hits)
        obs.add("executor.analytic_prefilter", analytic_hits)
        obs.add("executor.chunks_skipped", skipped)
        _log.info(
            "sweep: %d chunk(s), %d point(s), %d cached, %d analytic, "
            "%d chunk(s) skipped, jobs=%d backend=%s",
            len(chunks),
            sum(len(c) for c in chunks),
            cache_hits,
            analytic_hits,
            skipped,
            self.jobs,
            self.backend,
        )
        return pending

    # -- cost model -----------------------------------------------------

    def _plan(self, ci: int, missing: list) -> _ChunkPlan:
        """Price one chunk and pick its natural venue."""
        from repro.gpu import simulator

        first = missing[0][1]
        events = estimate_trace_events(first)
        warm = simulator.trace_is_cached(
            first.spec, first.gpu, first.kernel, first.options
        )
        if not warm and self.cache is not None:
            warm = self.cache.has_trace(
                trace_key(first.spec, first.gpu, first.kernel, first.options)
            )
        est = 0.0 if warm else events * SEC_PER_EVENT_GENERATE
        venue = "threads"
        for _pi, point, _key in missing:
            tier = _point_tier(point)
            if tier == "event":
                venue = "processes"
                est += events * SEC_PER_EVENT_EVENT
            elif tier == "analytic":
                est += SEC_PER_ANALYTIC_POINT
            else:
                est += events * SEC_PER_EVENT_FAST
        return _ChunkPlan(index=ci, missing=missing, est_s=est, venue=venue)

    def _should_pool(self, plans: List[_ChunkPlan], overhead_s: float) -> bool:
        """The cutover: is a pool worth its startup cost for ``plans``?

        ``auto`` compares the wall-clock the pool would *save* —
        ``est_total * (1 - 1/effective_workers)``, with effective
        workers capped by jobs, pending chunks, and host cores —
        against the pool's startup overhead.  On a single-core host
        the effective worker count is 1, the saving is 0, and the pool
        never opens: parallel mode can no longer lose to serial.
        """
        est_total = sum(p.est_s for p in plans)
        if self.cutover != "auto":
            return est_total >= self.cutover
        effective = min(self.jobs, len(plans), os.cpu_count() or 1)
        if effective < 2:
            return False
        saving = est_total * (1.0 - 1.0 / effective)
        return saving > overhead_s

    def _pool_overhead_s(self) -> float:
        return POOL_OVERHEAD_S.get(self._context().get_start_method(), 0.8)

    # -- local dispatch -------------------------------------------------

    def _run_local(self, pending, results) -> None:
        """Adaptive dispatch: inline, threads, processes, or a mix."""
        plans = [self._plan(ci, missing) for ci, missing in pending]
        if self.backend == "threads":
            for p in plans:
                p.venue = "threads"
        elif self.backend == "processes":
            for p in plans:
                p.venue = "processes"

        thread_plans = [p for p in plans if p.venue == "threads"]
        proc_plans = [p for p in plans if p.venue == "processes"]
        if self.backend == "serial" or self.jobs == 1:
            inline, thread_plans, proc_plans = plans, [], []
        else:
            inline = []
            if thread_plans and not self._should_pool(
                thread_plans, THREAD_OVERHEAD_S
            ):
                inline += thread_plans
                thread_plans = []
            if proc_plans and not self._should_pool(
                proc_plans, self._pool_overhead_s()
            ):
                inline += proc_plans
                proc_plans = []
        obs.add("executor.cutover.inline", len(inline))
        obs.add("executor.cutover.pool", len(thread_plans) + len(proc_plans))

        t0 = time.perf_counter()
        busy_s = 0.0
        nworkers = 0

        # Kick the process pool off first: imap_unordered dispatches
        # from a handler thread, so event-tier chunks simulate in the
        # workers while this process drives the thread pool.
        pool = None
        proc_iter = None
        if proc_plans:
            ctx = self._context()
            root = str(self.cache.root) if self.cache is not None else None
            nprocs = min(self.jobs, len(proc_plans))
            nworkers += nprocs
            obs.add("executor.dispatch.processes", len(proc_plans))
            pool = ctx.Pool(
                processes=nprocs,
                initializer=_init_worker,
                initargs=(root, obs.enabled()),
            )
            stream = self._stream()
            proc_iter = pool.imap_unordered(
                _run_chunk,
                [(p.index, p.missing, stream) for p in proc_plans],
            )

        from repro.gpu import simulator

        prev = simulator.get_trace_store()
        if self.cache is not None:
            simulator.set_trace_store(self.cache)
        try:
            if thread_plans:
                nthreads = min(self.jobs, len(thread_plans))
                nworkers += nthreads
                obs.add("executor.dispatch.threads", len(thread_plans))
                with ThreadPoolExecutor(max_workers=nthreads) as tpool:
                    for ci, out, chunk_busy in tpool.map(
                        lambda p: _run_chunk_threaded(
                            p, self.cache, self._stream()
                        ),
                        thread_plans,
                    ):
                        busy_s += chunk_busy
                        for pi, result in out:
                            results[(ci, pi)] = result
            if inline:
                obs.add("executor.inline_chunks", len(inline))
                for plan in inline:
                    layer = plan.missing[0][1].spec.qualified_name
                    with obs.span(
                        "executor.chunk", layer=layer,
                        points=len(plan.missing), inline=True,
                    ):
                        for pi, point, key in plan.missing:
                            results[(plan.index, pi)] = simulate_point(
                                point, self.cache, key,
                                streaming=self._stream(),
                            )
        finally:
            if self.cache is not None:
                simulator.set_trace_store(prev)
            if pool is not None:
                by_index = {p.index: p.missing for p in proc_plans}
                with pool:
                    for ci, outs, payload in proc_iter:
                        for (pi, _, _), result in zip(by_index[ci], outs):
                            results[(ci, pi)] = result
                        if payload is not None:
                            busy_s += payload.pop("busy_s", 0.0)
                            obs.merge_state(
                                payload,
                                pid=payload.pop("pid", None),
                                chunk=ci,
                            )

        if nworkers and obs.enabled():
            wall = time.perf_counter() - t0
            obs.gauge(
                "executor.worker_utilization",
                busy_s / (wall * nworkers) if wall > 0 else 0.0,
            )

    # -- shared-store dispatch ------------------------------------------

    def _run_shared(self, pending, results) -> None:
        """Multi-host mode: claim chunks through the cache directory.

        Every participant walks the same pending list.  For each
        chunk, exactly one executor wins the atomic claim and computes
        it (through the normal adaptive local dispatch); the others
        poll the chunk's result keys and adopt the persisted results.
        A winner that dies is survivable: after ``shared_timeout_s``
        a waiter steals the chunk and computes it locally — results
        are pure functions of the point, so duplicated work is wasted
        time, never wrong answers.
        """
        assert self.cache is not None
        owned: List[Tuple[int, list]] = []
        waiting: List[Tuple[int, list]] = []
        for ci, missing in pending:
            claim = chunk_claim_key([key for _, _, key in missing])
            if self.cache.try_claim(claim):
                owned.append((ci, missing))
            else:
                waiting.append((ci, missing))
        obs.add("executor.shared.chunks_owned", len(owned))
        obs.add("executor.shared.chunks_waited", len(waiting))
        if owned:
            self._run_local(owned, results)

        deadline = time.monotonic() + self.shared_timeout_s
        while waiting:
            still_waiting = []
            for ci, missing in waiting:
                done = []
                for pi, point, key in missing:
                    hit = (
                        self.cache.get_result(key)
                        if self.cache.has_result(key)
                        else None
                    )
                    if hit is None:
                        break
                    done.append((pi, hit))
                if len(done) == len(missing):
                    for pi, hit in done:
                        results[(ci, pi)] = hit
                else:
                    still_waiting.append((ci, missing))
            waiting = still_waiting
            if not waiting:
                break
            if time.monotonic() >= deadline:
                # The claim holder is too slow or gone — steal.
                obs.add("executor.shared.chunks_stolen", len(waiting))
                _log.warning(
                    "shared-store: stealing %d unclaimed chunk(s) after "
                    "%.0fs timeout", len(waiting), self.shared_timeout_s,
                )
                self._run_local(waiting, results)
                return
            obs.add("executor.shared.polls")
            time.sleep(self.shared_poll_s)

    # -- plumbing -------------------------------------------------------

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
