"""Async job queue for cold sweeps.

A single ``/query`` blocks its client for one point — fine warm or
analytic, but a cold full-network sweep is seconds of work and would
hold an HTTP worker thread (and the client) hostage.  ``/sweep``
instead enqueues the batch here and returns a job ID immediately; the
client polls ``/jobs/<id>`` for chunk-granular progress and collects
the full result list when the state reaches ``done``.

The queue is deliberately small: daemon worker threads, FIFO order,
states ``queued -> running -> done|error``, everything guarded by one
lock.  The *work* itself is injected by the service (so the queue
stays free of simulator imports and the service owns cache/executor
wiring); the runner reports progress through a callback so pollers
see points land as each layer's chunk completes.
"""

from __future__ import annotations

import itertools
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.serve.schema import Query

#: Runner contract: ``run(queries, progress)`` answers every query in
#: order and calls ``progress(n)`` as batches of ``n`` points finish.
Runner = Callable[[List[Query], Callable[[int], None]], List[Dict[str, Any]]]


@dataclass
class Job:
    """One submitted sweep and its lifecycle (mutated under the queue lock)."""

    id: str
    queries: List[Query]
    total: int
    state: str = "queued"
    done: int = 0
    error: Optional[str] = None
    results: Optional[List[Dict[str, Any]]] = field(default=None, repr=False)


class JobQueue:
    """FIFO sweep queue with polling-friendly status snapshots."""

    def __init__(self, run: Runner, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._run = run
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-serve-job-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- client surface -------------------------------------------------

    def submit(self, queries: List[Query]) -> str:
        """Enqueue a sweep; returns its job ID without blocking."""
        if not queries:
            raise ValueError("a sweep needs at least one query")
        with self._lock:
            job_id = f"job-{next(self._seq):06d}"
            self._jobs[job_id] = Job(
                id=job_id, queries=list(queries), total=len(queries)
            )
        self._queue.put(job_id)
        obs.add("serve.jobs_submitted")
        self._publish_depth()
        return job_id

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Polling snapshot; ``results`` appears only once ``done``."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            payload: Dict[str, Any] = {
                "id": job.id,
                "state": job.state,
                "done": job.done,
                "total": job.total,
            }
            if job.error is not None:
                payload["error"] = job.error
            if job.state == "done":
                payload["results"] = job.results
            return payload

    def depth(self) -> int:
        """Jobs not yet finished (queued + running)."""
        with self._lock:
            return sum(
                1 for j in self._jobs.values() if j.state in ("queued", "running")
            )

    def close(self) -> None:
        """Stop the workers (idempotent; pending jobs are abandoned)."""
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout=5.0)

    # -- worker side ----------------------------------------------------

    def _publish_depth(self) -> None:
        obs.gauge("serve.queue_depth", self.depth())

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs[job_id]
                job.state = "running"

            def progress(n: int, job: Job = job) -> None:
                with self._lock:
                    job.done += n

            try:
                results = self._run(job.queries, progress)
                with self._lock:
                    job.results = results
                    job.done = job.total
                    job.state = "done"
            except Exception as exc:  # surfaced to pollers, not raised
                with self._lock:
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.state = "error"
                obs.add("serve.job_errors")
            finally:
                self._queue.task_done()
                self._publish_depth()
