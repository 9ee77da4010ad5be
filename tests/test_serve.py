"""The query service: schema, coalescing, eviction, jobs, HTTP.

The two load-bearing contracts:

1. **Bit-identity** — a served payload equals the payload built from a
   direct :func:`~repro.runtime.executor.simulate_point` call, field
   for field, after the JSON round-trip.
2. **Coalescing** — N concurrent identical cold queries trigger
   exactly one simulation (``serve.simulations == 1``,
   ``serve.coalesced == N-1``), and the analytic tier never shares a
   slot with the exact tiers even though their cache keys collide by
   design.

Eviction hygiene (the byte cap the service enforces on its store) is
pinned here too: the store may never exceed ``max_bytes`` after any
put, under a randomized put sequence, and reads refresh recency.
"""

import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.gpu.config import ARCHS
from repro.gpu.simulator import clear_trace_cache
from repro.runtime import DiskCache
from repro.runtime.executor import simulate_point
from repro.serve import (
    QueryService,
    SchemaError,
    ServiceConfig,
    make_server,
    parse_query,
    result_payload,
)
from repro.serve.jobs import JobQueue
from repro.serve.schema import SCHEMA_VERSION, Query, query_point
from repro.serve.service import _LatencyHistogram

BODY = {"network": "yolo", "layer": "C2", "max_ctas": 1}


@pytest.fixture(autouse=True)
def _fresh():
    obs.disable()
    obs.reset()
    clear_trace_cache()
    yield
    obs.disable()
    obs.reset()
    clear_trace_cache()


@pytest.fixture
def service(tmp_path):
    svc = QueryService(ServiceConfig(cache_dir=str(tmp_path / "cache")))
    yield svc
    svc.close()


def _reference(body):
    """The payload the bit-identity contract demands, JSON round-tripped."""
    query = parse_query(body)
    local = result_payload(query, simulate_point(query_point(query)))
    return json.loads(json.dumps(local))


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------

@pytest.mark.parametrize("body,fragment", [
    ([1, 2], "JSON object"),
    ({}, "'network'"),
    ({"network": "vgg", "layer": "C1"}, "'network'"),
    ({"network": "yolo"}, "'layer'"),
    ({"network": "yolo", "layer": "nope"}, "no layer"),
    (dict(BODY, mode="magic"), "'mode'"),
    (dict(BODY, lhb_entries="big"), "'lhb_entries'"),
    (dict(BODY, lhb_entries=True), "'lhb_entries'"),
    (dict(BODY, lhb_assoc=0), "'lhb_assoc'"),
    (dict(BODY, max_ctas=0), "'max_ctas'"),
    (dict(BODY, engine="warp"), "'engine'"),
    (dict(BODY, fast_path="auto"), "'fast_path'"),  # not a field
    (dict(BODY, arch="kepler"), "'arch'"),
    (dict(BODY, arch=1), "'arch'"),
    (dict(BODY, frobnicate=1), "unknown field"),
    # The event-level oracle is no runtime tier; "fast" aliased "auto".
    (dict(BODY, engine="fast"), "'engine'"),
    (dict(BODY, engine="event"), "'engine'"),
    # The buffer would raise mid-simulation; the schema says 400 first.
    (dict(BODY, lhb_entries=1024, lhb_assoc=3), "'lhb_assoc' 3 must divide"),
    (dict(BODY, lhb_entries=8, lhb_assoc=16), "'lhb_assoc' 16 must divide"),
])
def test_schema_rejects(body, fragment):
    with pytest.raises(SchemaError, match=fragment):
        parse_query(body)


def test_schema_defaults_and_oracle_normalisation():
    q = parse_query({"network": "yolo", "layer": "C2"})
    assert q == Query(network="yolo", layer="C2")
    # 0 and null both mean the paper's oracle (unbounded) buffer.
    assert parse_query(dict(BODY, lhb_entries=0)).lhb_entries is None
    assert parse_query(dict(BODY, lhb_entries=None)).lhb_entries is None
    # The oracle has no sets, so any associativity stands with it.
    assert parse_query(dict(BODY, lhb_entries=None, lhb_assoc=3)).lhb_assoc == 3
    assert parse_query(dict(BODY, lhb_entries=1024, lhb_assoc=8)).lhb_assoc == 8


def test_query_point_round_trip():
    q = parse_query(dict(BODY, mode="baseline", engine="analytic"))
    p = query_point(q)
    assert p.spec.qualified_name == "yolo/C2"
    assert p.mode.value == "baseline"
    assert p.options.engine == "analytic"
    assert p.options.max_ctas == 1


def test_arch_selects_preset_machine():
    q = parse_query(dict(BODY, arch="ampere-int8"))
    p = query_point(q)
    assert p.gpu == ARCHS["ampere-int8"].gpu
    assert p.kernel == ARCHS["ampere-int8"].kernel
    # Default body simulates the Volta preset.
    assert query_point(parse_query(BODY)).gpu.name == "volta"


def test_attention_network_servable():
    q = parse_query({"network": "attention", "layer": "QK", "max_ctas": 1})
    assert query_point(q).spec.qualified_name == "attention/QK"


# ----------------------------------------------------------------------
# Service: bit-identity and coalescing
# ----------------------------------------------------------------------

def test_served_payload_bit_identical(service):
    for body in (
        BODY,
        dict(BODY, engine="analytic"),
        dict(BODY, mode="baseline"),
        dict(BODY, lhb_entries=None, lhb_assoc=4),
        dict(BODY, arch="turing"),
    ):
        served = json.loads(json.dumps(service.query(body)))
        assert served == _reference(body)


def test_arch_echoed_verbatim_and_changes_the_answer(service):
    volta = service.query(BODY)
    turing = service.query(dict(BODY, arch="turing"))
    assert volta["query"]["arch"] == "volta"
    assert turing["query"]["arch"] == "turing"
    # Different fragment geometry -> different measured traffic.
    assert turing["stats"] != volta["stats"]


def _counter(name):
    return obs.registry().counter(name)


def test_query_validation_errors_counted(service):
    with pytest.raises(SchemaError):
        service.query({"network": "yolo"})
    assert _counter("serve.errors") == 1
    assert _counter("serve.requests") == 1
    serve = service.metrics()["serve"]
    assert serve["serve.errors"] == serve["serve.requests"] == 1


def test_concurrent_identical_cold_queries_coalesce(service, monkeypatch):
    """N identical cold queries -> exactly one simulation."""
    import repro.serve.service as service_mod

    n = 6
    gate = threading.Event()
    calls = []
    real = simulate_point

    def gated(point, cache=None, key=None):
        calls.append(point)
        assert gate.wait(30), "test gate never opened"
        return real(point, cache, key)

    monkeypatch.setattr(service_mod, "simulate_point", gated)
    payloads = [None] * n
    errors = []

    def client(i):
        try:
            payloads[i] = service.query(BODY)
        except Exception as exc:  # pragma: no cover - fails the test
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    # Open the gate only after every follower has parked on the
    # leader's slot, so the count below is deterministic.
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if _counter("serve.coalesced") == n - 1:
            break
        time.sleep(0.005)
    gate.set()
    for t in threads:
        t.join(30)
    assert not errors
    assert len(calls) == 1
    assert _counter("serve.simulations") == 1
    assert _counter("serve.coalesced") == n - 1
    assert _counter("serve.requests") == n
    assert all(p == payloads[0] for p in payloads)


def test_analytic_and_exact_never_share_a_slot(monkeypatch):
    # ``auto`` is exact only without the analytic lane's override.
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    exact = query_point(parse_query(dict(BODY, engine="auto")))
    analytic = query_point(parse_query(dict(BODY, engine="analytic")))
    # The result cache key normalises the engine away by design...
    assert exact.cache_key() == analytic.cache_key()
    # ...so the coalescing key must re-introduce the tier.
    assert QueryService._coalesce_key(exact) != (
        QueryService._coalesce_key(analytic)
    )


def test_archs_never_share_a_slot():
    """Unlike the engine tiers, two archs differ in *result*: both the
    result cache key and the coalescing key must separate them — for
    every preset pair, and regardless of tier."""
    points = {
        name: query_point(parse_query(dict(BODY, arch=name)))
        for name in ARCHS
    }
    cache_keys = {p.cache_key() for p in points.values()}
    coalesce_keys = {QueryService._coalesce_key(p) for p in points.values()}
    assert len(cache_keys) == len(ARCHS)
    assert len(coalesce_keys) == len(ARCHS)
    # The analytic tier of one arch must not collide with the exact
    # tier of another.
    analytic = query_point(
        parse_query(dict(BODY, arch="ampere", engine="analytic"))
    )
    assert QueryService._coalesce_key(analytic) != (
        QueryService._coalesce_key(points["volta"])
    )


def test_leader_failure_propagates_to_followers(service, monkeypatch):
    import repro.serve.service as service_mod

    gate = threading.Event()

    def boom(point, cache=None, key=None):
        assert gate.wait(30)
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(service_mod, "simulate_point", boom)
    errors = []

    def client():
        try:
            service.query(BODY)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(3)]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if _counter("serve.coalesced") == 2:
            break
        time.sleep(0.005)
    gate.set()
    for t in threads:
        t.join(30)
    assert len(errors) == 3
    assert all("engine exploded" in str(e) for e in errors)
    assert _counter("serve.errors") == 3


# ----------------------------------------------------------------------
# Store eviction: the cap the service enforces
# ----------------------------------------------------------------------

def _family_bytes(cache):
    total = 0
    for family in ("traces", "results"):
        base = cache.root / family
        if base.is_dir():
            total += sum(
                f.stat().st_size for f in base.rglob("*") if f.is_file()
            )
    return total


def test_store_never_exceeds_cap_under_random_puts(tmp_path):
    cap = 64 * 1024
    cache = DiskCache(tmp_path / "capped", max_bytes=cap)
    rng = random.Random(0xD0B10)
    for i in range(60):
        payload = rng.randbytes(rng.randrange(1024, 16 * 1024))
        cache.put_result(f"{i:064x}", payload)
        assert _family_bytes(cache) <= cap, f"cap violated after put {i}"
    stats = cache.stats()
    assert stats.evictions > 0
    assert stats.result_files > 0


def test_store_admits_oversized_artifact_but_reclaims_it(tmp_path):
    cache = DiskCache(tmp_path / "tiny", max_bytes=4096)
    cache.put_result("ff" * 32, bytes(64 * 1024))
    # The caller's put succeeded, but the store fits its cap again.
    assert _family_bytes(cache) <= 4096
    assert cache.stats().evictions >= 1


def test_store_eviction_is_lru_and_reads_touch(tmp_path):
    import os

    cache = DiskCache(tmp_path / "lru", max_bytes=40 * 1024)
    keys = [f"{i:02d}" * 32 for i in range(3)]
    for i, key in enumerate(keys[:2]):
        cache.put_result(key, bytes(15 * 1024))
        # Backdate so recency order is unambiguous: keys[0] oldest.
        path = cache._path("results", key)
        os.utime(path, (1_000_000 + i, 1_000_000 + i))
    # Reading keys[0] refreshes it, leaving keys[1] as the LRU victim.
    assert cache.get_result(keys[0]) is not None
    cache.put_result(keys[2], bytes(15 * 1024))
    assert cache.has_result(keys[0])
    assert not cache.has_result(keys[1])
    assert cache.has_result(keys[2])


def test_service_enforces_cap_on_its_store(tmp_path):
    svc = QueryService(
        ServiceConfig(
            cache_dir=str(tmp_path / "svc"), store_max_bytes=32 * 1024
        )
    )
    try:
        for entries in (64, 128, 256, 512, 1024, None):
            svc.query(dict(BODY, lhb_entries=entries))
            assert _family_bytes(svc.cache) <= 32 * 1024
    finally:
        svc.close()


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------

def _wait_job(jobs, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = jobs.status(job_id)
        if status["state"] in ("done", "error"):
            return status
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never finished")


def test_sweep_job_results_match_direct(service):
    bodies = [dict(BODY, lhb_entries=e) for e in (64, 256, None)]
    job_id = service.submit_sweep({"queries": bodies})
    status = _wait_job(service.jobs, job_id)
    assert status["state"] == "done"
    assert status["done"] == status["total"] == len(bodies)
    for body, payload in zip(bodies, status["results"]):
        assert json.loads(json.dumps(payload)) == _reference(body)


def test_sweep_job_worker_holds_no_trace(service, monkeypatch):
    """Each layer of a sweep job synthesizes its trace once on the job
    worker, which empties its trace slot when the layer's chunk ends."""
    # Chunks run only on the exact tier: under the analytic lane's
    # override the prefilter answers every point.
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    import repro.runtime.executor as executor_mod
    from repro.gpu import fastpath

    released = []
    release = fastpath.release_fed_memo

    def recording():
        entry = getattr(fastpath._fed_memo, "entry", None)
        release()
        released.append((entry is not None,
                         getattr(fastpath._fed_memo, "entry", None)))

    monkeypatch.setattr(executor_mod, "release_fed_memo", recording)
    bodies = [dict(BODY, lhb_entries=e) for e in (64, 256)]
    bodies += [dict(BODY, layer="C3", lhb_entries=e) for e in (64, 256)]
    status = _wait_job(
        service.jobs, service.submit_sweep({"queries": bodies})
    )
    assert status["state"] == "done"
    assert released == [(True, None), (True, None)]  # one per layer


def test_sweep_validation():
    svc = QueryService(ServiceConfig(no_cache=True))
    try:
        with pytest.raises(SchemaError, match="queries"):
            svc.submit_sweep({"points": []})
        with pytest.raises(SchemaError, match="non-empty"):
            svc.submit_sweep({"queries": []})
        with pytest.raises(SchemaError, match="unknown field"):
            svc.submit_sweep({"queries": [dict(BODY, nope=1)]})
        # A geometry the LHB rejects is refused before anything queues.
        with pytest.raises(SchemaError, match="must divide"):
            svc.submit_sweep(
                {"queries": [BODY, dict(BODY, lhb_entries=1024, lhb_assoc=3)]}
            )
        assert svc.jobs.depth() == 0
    finally:
        svc.close()


def test_job_queue_error_and_unknown():
    def boom(queries, progress):
        raise RuntimeError("sweep failed")

    jobs = JobQueue(boom)
    try:
        assert jobs.status("job-999999") is None
        with pytest.raises(ValueError):
            jobs.submit([])
        job_id = jobs.submit([parse_query(BODY)])
        status = _wait_job(jobs, job_id)
        assert status["state"] == "error"
        assert "sweep failed" in status["error"]
        assert "results" not in status
        assert jobs.depth() == 0
    finally:
        jobs.close()


# ----------------------------------------------------------------------
# Latency histogram
# ----------------------------------------------------------------------

def test_latency_histogram_percentiles():
    hist = _LatencyHistogram()
    assert hist.percentile(0.99) == 0.0
    for _ in range(90):
        hist.observe(0.0004)  # first bucket (<= 0.5 ms)
    for _ in range(10):
        hist.observe(0.2)  # the 0.25 s bucket
    snap = hist.as_dict()
    assert snap["count"] == 100
    assert snap["p50_s"] == 0.0005
    assert snap["p99_s"] == 0.25
    assert sum(snap["counts"]) == 100


# ----------------------------------------------------------------------
# HTTP end to end
# ----------------------------------------------------------------------

@pytest.fixture
def server(tmp_path):
    svc = QueryService(ServiceConfig(cache_dir=str(tmp_path / "http")))
    srv = make_server("127.0.0.1", 0, svc)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    yield f"http://{host}:{port}", svc
    srv.shutdown()
    srv.server_close()
    svc.close()


def _http(url, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data,
        headers={} if data is None else {"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_http_query_and_errors(server):
    base, _svc = server
    assert _http(base + "/healthz") == (200, {"ok": True})
    status, payload = _http(base + "/query", BODY)
    assert status == 200
    assert payload == _reference(BODY)
    assert payload["schema_version"] == SCHEMA_VERSION == 3
    assert _http(base + "/query", dict(BODY, frob=1))[0] == 400
    for engine in ("fast", "event"):
        status, err = _http(base + "/query", dict(BODY, engine=engine))
        assert status == 400
        assert "engine" in err["error"]
    status, err = _http(base + "/query", dict(BODY, arch="kepler"))
    assert status == 400
    assert "arch" in err["error"]
    # An LHB geometry the buffer rejects is a 400, not a 500.
    bad_geometry = dict(BODY, lhb_entries=1024, lhb_assoc=3)
    for path, body in (("/query", bad_geometry),
                       ("/sweep", {"queries": [bad_geometry]})):
        status, err = _http(base + path, body)
        assert status == 400, path
        assert "lhb_assoc" in err["error"]
    assert _http(base + "/nope")[0] == 404
    assert _http(base + "/jobs/job-424242")[0] == 404


def test_fresh_service_metrics_zero_fill_every_serve_counter(server):
    """``/metrics`` reads its counters from the registry; before any
    request each of the five reads 0 rather than going missing."""
    base, _svc = server
    status, metrics = _http(base + "/metrics")
    assert status == 200
    names = {
        "serve.requests", "serve.coalesced", "serve.simulations",
        "serve.sweeps", "serve.errors",
    }
    assert set(metrics["serve"]) == names | {"queue_depth", "latency"}
    assert {name: metrics["serve"][name] for name in names} == (
        dict.fromkeys(names, 0)
    )


def test_http_sweep_lifecycle_and_metrics(server):
    base, svc = server
    bodies = [dict(BODY, lhb_entries=e) for e in (64, None)]
    status, accepted = _http(base + "/sweep", {"queries": bodies})
    assert status == 202
    job_id = accepted["job"]
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        status, snap = _http(base + f"/jobs/{job_id}")
        assert status == 200
        if snap["state"] == "done":
            break
        time.sleep(0.01)
    assert snap["state"] == "done"
    assert [json.loads(json.dumps(r)) for r in snap["results"]] == [
        _reference(b) for b in bodies
    ]
    status, metrics = _http(base + "/metrics")
    assert status == 200
    serve = metrics["serve"]
    assert serve["serve.sweeps"] == 1
    assert serve["queue_depth"] == 0
    assert serve["latency"]["count"] == serve["serve.requests"]
    assert metrics["store"]["root"] == str(svc.cache.root)
