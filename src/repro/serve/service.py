"""The query service: coalescing, tier dispatch, cache hygiene, metrics.

:class:`QueryService` is the transport-free core the HTTP layer (and
the tests, and the perf-gate benchmark) drive directly.  One instance
owns the :class:`~repro.runtime.store.DiskCache` (with the service's
byte cap, so eviction hygiene is enforced on every write), a
:class:`~repro.serve.jobs.JobQueue` for cold sweeps, and the
``serve.*`` instrumentation.

Coalescing
----------
Concurrent queries that resolve to the same simulation share one
execution: the first arrival becomes the *leader* and computes; every
follower that lands while the leader is in flight blocks on the
leader's slot and adopts its result (counted under
``serve.coalesced``).  The coalescing key is the point's
content-addressed result key *prefixed with the answering tier* —
cache keys deliberately normalise ``engine`` away, but an analytic
(approximate) answer must never be handed to a client that would have
received an exact one, so the two tiers never share a slot.

Metrics
-------
The service keeps its own always-on counters and latency histogram
(the :mod:`repro.obs` registry is a no-op unless explicitly enabled)
and mirrors every bump into ``obs`` so manifests and ``--metrics-out``
see the same numbers when observability is on.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.runtime.executor import (
    SimPoint,
    SweepExecutor,
    _resolves_analytic,
    simulate_point,
)
from repro.runtime.store import DiskCache
from repro.serve.jobs import JobQueue
from repro.serve.schema import (
    SCHEMA_VERSION,
    Query,
    parse_query,
    query_point,
    result_payload,
)

#: Latency histogram bucket upper bounds, seconds.  Spans the analytic
#: tier (sub-ms warm) through a cold full-network layer; the last bucket
#: is open-ended.
LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
)


class _LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated percentiles."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(LATENCY_BUCKETS_S) + 1)
        self._sum = 0.0
        self._n = 0

    def observe(self, seconds: float) -> None:
        idx = bisect.bisect_left(LATENCY_BUCKETS_S, seconds)
        with self._lock:
            self._counts[idx] += 1
            self._sum += seconds
            self._n += 1

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the p-th percentile."""
        with self._lock:
            if not self._n:
                return 0.0
            rank = p * self._n
            seen = 0
            for idx, count in enumerate(self._counts):
                seen += count
                if seen >= rank:
                    if idx < len(LATENCY_BUCKETS_S):
                        return LATENCY_BUCKETS_S[idx]
                    return float("inf")
            return float("inf")

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, n = self._sum, self._n
        return {
            "buckets_s": list(LATENCY_BUCKETS_S),
            "counts": counts,
            "count": n,
            "sum_s": total,
            "p50_s": self.percentile(0.50),
            "p90_s": self.percentile(0.90),
            "p99_s": self.percentile(0.99),
        }


class _InFlight:
    """One leader's slot; followers block on ``event`` and adopt."""

    __slots__ = ("event", "payload", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None


@dataclass
class ServiceConfig:
    """Construction knobs (mirrors the ``repro serve`` CLI flags)."""

    cache_dir: Optional[str] = None
    no_cache: bool = False
    store_max_bytes: Optional[int] = None
    sweep_jobs: int = 1
    job_workers: int = 1


class QueryService:
    """Transport-free service core; one instance per server process."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.cache: Optional[DiskCache] = None
        if not self.config.no_cache:
            kwargs: Dict[str, Any] = {"max_bytes": self.config.store_max_bytes}
            if self.config.cache_dir:
                kwargs["root"] = self.config.cache_dir
            self.cache = DiskCache(**kwargs)
        self._executor = SweepExecutor(
            jobs=self.config.sweep_jobs,
            cache=self.cache,
        )
        self._inflight: Dict[str, _InFlight] = {}
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "serve.requests": 0,
            "serve.coalesced": 0,
            "serve.simulations": 0,
            "serve.sweeps": 0,
            "serve.errors": 0,
        }
        self.latency = _LatencyHistogram()
        self.jobs = JobQueue(self._run_sweep, workers=self.config.job_workers)

    # -- instrumentation ------------------------------------------------

    def _bump(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta
        obs.add(name, delta)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def metrics(self) -> Dict[str, Any]:
        """The ``/metrics`` payload: serve, store, and obs views."""
        payload: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "serve": dict(
                self.counters(),
                queue_depth=self.jobs.depth(),
                latency=self.latency.as_dict(),
            ),
        }
        if self.cache is not None:
            payload["store"] = self.cache.stats().as_dict()
        if obs.enabled():
            payload["obs"] = obs.snapshot()
        return payload

    # -- query path -----------------------------------------------------

    @staticmethod
    def _coalesce_key(point: SimPoint) -> str:
        tier = "analytic" if _resolves_analytic(point) else "exact"
        return f"{tier}:{point.cache_key()}"

    def query(self, payload: Any) -> Dict[str, Any]:
        """Answer one query (validates, coalesces, simulates)."""
        started = time.perf_counter()
        self._bump("serve.requests")
        try:
            query = parse_query(payload)
            result = self._answer(query)
        except BaseException:
            self._bump("serve.errors")
            raise
        finally:
            self.latency.observe(time.perf_counter() - started)
        return result

    def _answer(self, query: Query) -> Dict[str, Any]:
        point = query_point(query)
        key = self._coalesce_key(point)
        with self._lock:
            slot = self._inflight.get(key)
            leader = slot is None
            if leader:
                slot = _InFlight()
                self._inflight[key] = slot
        assert slot is not None
        if not leader:
            self._bump("serve.coalesced")
            slot.event.wait()
            if slot.error is not None:
                raise slot.error
            assert slot.payload is not None
            # Followers share the leader's bit-identical payload but
            # echo their own (equal) query object back.
            return dict(slot.payload, query=query.as_dict())
        try:
            self._bump("serve.simulations")
            result = simulate_point(point, self.cache)
            slot.payload = result_payload(query, result)
            return slot.payload
        except BaseException as exc:
            slot.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            slot.event.set()

    # -- sweep path -----------------------------------------------------

    def submit_sweep(self, payload: Any) -> str:
        """Validate a ``{"queries": [...]}`` batch and enqueue it."""
        from repro.serve.schema import SchemaError

        if not isinstance(payload, dict) or "queries" not in payload:
            raise SchemaError(
                "sweep body must be an object with a 'queries' array"
            )
        raw = payload["queries"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError("'queries' must be a non-empty array")
        queries = [parse_query(item) for item in raw]
        self._bump("serve.sweeps")
        return self.jobs.submit(queries)

    def _run_sweep(
        self, queries: List[Query], progress: Callable[[int], None]
    ) -> List[Dict[str, Any]]:
        """Job-queue runner: one executor chunk per layer.

        Points sharing a layer form one executor chunk (the trace is
        generated once and reused), and chunks run one executor call
        at a time so pollers see progress at chunk granularity.
        Results come back in submission order.
        """
        order: List[List[int]] = []
        by_layer: Dict[Any, List[int]] = {}
        points = [query_point(q) for q in queries]
        for idx, point in enumerate(points):
            bucket = by_layer.get(point.spec)
            if bucket is None:
                bucket = by_layer[point.spec] = []
                order.append(bucket)
            bucket.append(idx)
        payloads: List[Optional[Dict[str, Any]]] = [None] * len(queries)
        for bucket in order:
            chunk = [points[i] for i in bucket]
            results = self._executor.run_chunks([chunk])[0]
            for i, result in zip(bucket, results):
                payloads[i] = result_payload(queries[i], result)
            progress(len(bucket))
        return [p for p in payloads if p is not None]

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self.jobs.close()
