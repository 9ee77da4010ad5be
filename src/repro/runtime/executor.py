"""Sweep executor: chunked layer × configuration points, run inline or
on threads, with persistent result caching.

Every figure of the evaluation is a sweep of ``(layer, configuration)``
points.  Work is submitted as *chunks* — all configuration points of
one layer form one chunk, and a chunk runs start to finish on one
worker — so a layer's trace is generated once and reused for every
configuration point.

Dispatch has one design.  Repeated points (equal to an earlier point
of the same submission, counted as ``executor.duplicate_points``),
warm points (the result cache holds them) and analytic points (closed
forms, cheaper than any dispatch) resolve inline first — the
*prefilter*.  A repeat runs nothing: its position receives the first
occurrence's result object.  Every chunk still pending then runs
through one chunk runner, called inline, or mapped over a
``ThreadPoolExecutor`` when ``min(jobs, pending chunks,
os.cpu_count()) >= 2``.  The fast tier is NumPy-vectorised and
releases the GIL for the bulk of its time, so threads get real
parallelism there while sharing the parent's metrics registry
directly.  ``backend="serial"`` forces inline.  The venue can never
change results.

Every point replays through
:func:`~repro.gpu.simulator.simulate_layer`, which synthesizes the
layer's trace into the worker thread's one trace slot unless the slot
already holds it.  A chunk is one layer, so its first point
synthesizes the trace and every later point replays it; the runner
empties the slot when the chunk ends, so no thread holds a trace
between chunks.  Only results are persisted.

Determinism contract: a point's :class:`LayerResult` is a pure
function of the point (the simulator has no hidden state beyond its
caches, which only ever return artifacts produced by the same pure
function).  Results are therefore bit-identical whether computed
inline, by a thread, or read back from the on-disk cache;
``tests/test_executor_backends.py`` and
``tests/test_runtime_equivalence.py`` enforce this for both venues and
every elimination mode.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.conv.layer import ConvLayerSpec
from repro.gpu.config import (
    BASELINE_KERNEL,
    GPUConfig,
    KernelConfig,
    SimulationOptions,
    TITAN_V,
)
from repro.gpu.fastpath import release_fed_memo
from repro.gpu.ldst import EliminationMode
from repro.runtime.cachekey import result_key
from repro.runtime.store import DiskCache

#: Valid ``SweepExecutor(backend=...)`` values: ``auto`` applies the
#: thread-pool rule, ``serial`` always runs inline.
BACKENDS = ("auto", "serial")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimPoint:
    """One unit of sweep work: a layer under one configuration.

    ``mode=DUPLO`` with ``lhb_entries=None`` is the paper's oracle
    (unbounded LHB).  Points are frozen and hashable so they can feed
    content-addressed cache keys.
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


def simulate_point(
    point: SimPoint,
    cache: Optional[DiskCache] = None,
    key: Optional[str] = None,
):
    """Get-or-compute one point's :class:`LayerResult`.

    ``key`` is the precomputed result key when the caller already paid
    for it (the executor's prefilter ships keys with the points so
    chunks never recompute the digest).
    """
    from repro.gpu.simulator import simulate_layer

    if cache is not None and _resolves_analytic(point):
        cache = None
    if cache is not None:
        if key is None:
            key = point.cache_key()
        hit = cache.get_result(key)
        if hit is not None:
            return hit
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


#: One pending chunk: its index in the submitted list, and its
#: uncached points as ``(position in chunk, point, result key)``.
_Pending = Tuple[int, List[Tuple[int, SimPoint, Optional[str]]]]
#: One repeated point: its ``(chunk, position)`` and the ``(chunk,
#: position)`` of the first equal point in the same submission.
_Duplicate = Tuple[Tuple[int, int], Tuple[int, int]]


class SweepExecutor:
    """Runs sweep chunks inline or on threads; caches results.

    Parameters
    ----------
    jobs:
        Worker-thread ceiling.  ``1`` (default) runs inline in the
        calling thread — the serial reference path.
    cache:
        Optional :class:`DiskCache`.  When set, layer results are
        served from / persisted to disk.
    backend:
        ``"auto"`` (default) opens a thread pool when
        ``min(jobs, pending chunks, os.cpu_count()) >= 2``;
        ``"serial"`` always runs inline.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[DiskCache] = None,
        backend: str = "auto",
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.jobs = jobs
        self.cache = cache
        self.backend = backend

    # -- public API -----------------------------------------------------

    def run(self, points: Sequence[SimPoint]) -> List:
        """Run independent points (each its own chunk)."""
        return [chunk[0] for chunk in self.run_chunks([[p] for p in points])]

    def run_chunks(self, chunks: Sequence[Sequence[SimPoint]]) -> List[List]:
        """Run chunked points, preserving submission order.

        All points of one chunk run on one worker, in order.  Results
        come back as one list per chunk, aligned with the input.
        Equal points run once per call: the first occurrence runs, and
        every later position receives the same (read-only) result
        object.
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
            pending, duplicates = self._prefilter(chunks, results)
            if pending:
                self._dispatch(pending, results)
        for position, first in duplicates:
            results[position] = results[first]
        return [
            [results[(ci, pi)] for pi in range(len(chunk))]
            for ci, chunk in enumerate(chunks)
        ]

    def workers(self, pending_chunks: int) -> int:
        """Threads for ``pending_chunks`` chunks; below 2 runs inline."""
        if self.backend == "serial":
            return 1
        return min(self.jobs, pending_chunks, os.cpu_count() or 1)

    # -- prefilter ------------------------------------------------------

    def _prefilter(
        self, chunks, results
    ) -> Tuple[List[_Pending], List[_Duplicate]]:
        """Resolve warm and analytic points inline; return the rest.

        A point is resolved here — and its chunk therefore shrinks —
        when it repeats an earlier point of the submission, when the
        result cache already holds it, or when the analytic tier
        answers it (closed forms over a memoised layer profile;
        cheaper than any dispatch).  A chunk whose *every* point
        resolves never reaches a worker (``executor.chunks_skipped``).
        Returns the pending chunks and the repeats.
        """
        pending: List[_Pending] = []
        first_seen: Dict[SimPoint, Tuple[int, int]] = {}
        duplicates: List[_Duplicate] = []
        cache_hits = 0
        analytic_hits = 0
        skipped = 0
        for ci, chunk in enumerate(chunks):
            missing = []
            for pi, point in enumerate(chunk):
                first = first_seen.setdefault(point, (ci, pi))
                if first != (ci, pi):
                    duplicates.append(((ci, pi), first))
                    continue
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
        if analytic_hits:
            # A profile build takes its trace through this thread's
            # slot, and no chunk end releases the prefilter's.
            release_fed_memo()
        obs.add("executor.chunks", len(chunks))
        obs.add("executor.points", sum(len(c) for c in chunks))
        obs.add("executor.duplicate_points", len(duplicates))
        obs.add("executor.prefilter_hits", cache_hits)
        obs.add("executor.analytic_prefilter", analytic_hits)
        obs.add("executor.chunks_skipped", skipped)
        _log.info(
            "sweep: %d chunk(s), %d point(s), %d duplicate, %d cached, "
            "%d analytic, %d chunk(s) skipped, jobs=%d backend=%s",
            len(chunks),
            sum(len(c) for c in chunks),
            len(duplicates),
            cache_hits,
            analytic_hits,
            skipped,
            self.jobs,
            self.backend,
        )
        return pending, duplicates

    # -- dispatch -------------------------------------------------------

    def _dispatch(self, pending: List[_Pending], results) -> None:
        """Run every pending chunk inline or on a thread pool."""
        workers = self.workers(len(pending))
        t0 = time.perf_counter()
        if workers < 2:
            obs.add("executor.inline_chunks", len(pending))
            done = [self._run_chunk(job) for job in pending]
        else:
            obs.add("executor.dispatch.threads", len(pending))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                done = list(pool.map(self._run_chunk, pending))
        for (ci, missing), (out, _busy_s) in zip(pending, done):
            for (pi, _point, _key), result in zip(missing, out):
                results[(ci, pi)] = result
        if workers >= 2 and obs.enabled():
            wall = time.perf_counter() - t0
            busy = sum(busy_s for _out, busy_s in done)
            obs.gauge(
                "executor.worker_utilization",
                busy / (wall * workers) if wall > 0 else 0.0,
            )

    def _run_chunk(self, job: _Pending):
        """The chunk runner: one layer's pending points, in order.

        Returns ``(results, busy seconds)``.  Threads record straight
        onto the shared metrics registry, so nothing is exported or
        merged.  The thread's trace slot lives no longer than the
        chunk.
        """
        _ci, missing = job
        t0 = time.perf_counter()
        try:
            with obs.span(
                "executor.chunk",
                layer=missing[0][1].spec.qualified_name,
                points=len(missing),
            ):
                out = [
                    simulate_point(point, self.cache, key)
                    for _pi, point, key in missing
                ]
        finally:
            release_fed_memo()
        return out, time.perf_counter() - t0
