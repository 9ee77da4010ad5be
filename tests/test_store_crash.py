"""Crash consistency of the trace store's one on-disk format.

A trace is an ``.events.npy`` record array plus its ``.meta.json``
commit marker.  Whatever happens to a writer — killed mid-append,
files truncated or overwritten with garbage, a put racing an eviction
in another process — :meth:`DiskCache.get_trace` must return either
the exact trace that was written or ``None``: it never raises and
never returns a partial trace.  Killed writers leave ``*.tmp`` files
that :meth:`DiskCache.clear` must reclaim, and eviction must drop the
commit marker before the events so a crash mid-eviction cannot leave
``has_trace`` promising a trace ``get_trace`` cannot serve.

Crashing processes are real child interpreters killed with SIGKILL.
"""

import json
import os
import signal
import subprocess
import sys

import numpy as np

from repro.gpu.isa import KernelTrace
from repro.runtime.store import DiskCache

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EVENTS = 3000


def synthetic_trace(seed: int, events: int = EVENTS) -> KernelTrace:
    """A deterministic trace whose every column and scalar depends on
    ``seed``, so a mix-up between two keys cannot go unnoticed."""
    rng = np.random.default_rng(seed)
    return KernelTrace(
        kind=rng.integers(0, 6, events),
        address=rng.integers(0, 1 << 40, events),
        warp=rng.integers(0, 1 << 16, events),
        instr=rng.integers(0, 1 << 31, events),
        mma_ops=seed,
        traced_ctas=seed + 1,
        total_ctas=seed + 2,
        grid_ctas=seed + 3,
        lda=seed + 4,
        ldb=seed + 5,
        ldd=seed + 6,
        concurrent_warps=seed + 7,
    )


def key_of(seed: int) -> str:
    return f"{seed:02x}" * 32


def assert_same(got, want) -> None:
    assert got is not None
    for name in ("kind", "address", "warp", "instr"):
        np.testing.assert_array_equal(
            getattr(got, name), getattr(want, name), err_msg=name
        )
    assert got.meta() == want.meta()


def pair_paths(cache: DiskCache, key: str):
    return (
        cache._path("traces", key, suffix=".events.npy"),
        cache._path("traces", key, suffix=".meta.json"),
    )


def pair_bytes(cache: DiskCache, key: str) -> int:
    return sum(p.stat().st_size for p in pair_paths(cache, key))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH"))
        if p
    )
    return env


def spawn(code: str, *args) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", code, *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT,
    )


_KILLED_MID_APPEND = """\
import sys, time
from repro.runtime.store import DiskCache
from tests.test_store_crash import key_of, synthetic_trace

root, seed = sys.argv[1], int(sys.argv[2])
trace = synthetic_trace(seed)
writer = DiskCache(root).trace_stream_writer(
    key_of(seed), trace.meta(), len(trace)
)
blocks = trace.iter_blocks(500)
writer.append(next(blocks))
writer.append(next(blocks))
print("appending", flush=True)
time.sleep(120)
"""

_KILLED_MID_EVICTION = """\
import os, pathlib, signal, sys
from repro.runtime.store import DiskCache
from tests.test_store_crash import key_of, synthetic_trace

root, cap, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cache = DiskCache(root, max_bytes=cap)
unlink = pathlib.Path.unlink

def unlink_then_die(self, *args, **kwargs):
    unlink(self, *args, **kwargs)
    os.kill(os.getpid(), signal.SIGKILL)

pathlib.Path.unlink = unlink_then_die
cache.put_trace(key_of(seed), synthetic_trace(seed))
"""


def test_kill_mid_put_leaves_a_miss_and_clear_reclaims_tmp(tmp_path):
    cache = DiskCache(tmp_path)
    neighbour = synthetic_trace(2)
    cache.put_trace(key_of(2), neighbour)

    # A writer SIGKILLed between appends.
    child = spawn(_KILLED_MID_APPEND, tmp_path, 1)
    try:
        assert child.stdout.readline().strip() == "appending"
    finally:
        child.kill()
        child.communicate()
    assert child.returncode == -signal.SIGKILL
    assert list(tmp_path.rglob("*.tmp")), "killed writer left no temp file"
    assert not cache.has_trace(key_of(1))
    assert cache.get_trace(key_of(1)) is None
    assert_same(cache.get_trace(key_of(2)), neighbour)

    # `repro cache clear` reclaims what the killed writer left behind.
    assert cache.clear() == 3  # the neighbour's pair + the temp file
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    # A writer SIGKILLed part-way through evicting another trace's
    # group: the commit marker went first, so the half-evicted trace
    # reads as absent everywhere — never "present but unservable".
    victim, newcomer = synthetic_trace(3), synthetic_trace(4)
    cache.put_trace(key_of(3), victim)
    cap = pair_bytes(cache, key_of(3)) * 3 // 2
    child = spawn(_KILLED_MID_EVICTION, tmp_path, cap, 4)
    child.communicate(timeout=120)
    assert child.returncode == -signal.SIGKILL
    events, marker = pair_paths(cache, key_of(3))
    assert events.exists() and not marker.exists()
    assert not cache.has_trace(key_of(3))
    assert cache.get_trace(key_of(3)) is None
    assert_same(cache.get_trace(key_of(4)), newcomer)


def test_truncated_events_is_a_miss(tmp_path):
    trace = synthetic_trace(5)
    cache = DiskCache(tmp_path)
    cache.put_trace(key_of(5), trace)
    events, _ = pair_paths(cache, key_of(5))
    blob = events.read_bytes()
    header = len(blob) - 15 * len(trace)
    # Empty, inside the header, right after it, mid-record, one short.
    for cut in (0, 10, header, header + 15 * 7 + 3, len(blob) - 1):
        cache.put_trace(key_of(5), trace)
        events.write_bytes(blob[:cut])
        assert cache.get_trace(key_of(5)) is None, cut
        # The torn pair is dropped, so the probe agrees with the read.
        assert not cache.has_trace(key_of(5)), cut
    cache.put_trace(key_of(5), trace)
    assert_same(cache.get_trace(key_of(5)), trace)


def test_truncated_or_garbage_meta_is_a_miss(tmp_path):
    trace = synthetic_trace(6)
    cache = DiskCache(tmp_path)
    cache.put_trace(key_of(6), trace)
    _, marker = pair_paths(cache, key_of(6))
    text = marker.read_bytes()
    bad = [text[:cut] for cut in (0, 1, len(text) // 2, len(text) - 1)]
    bad += [
        b"\x00\xffgarbage",
        b"[]",
        b"{}",
        json.dumps(dict(trace.meta(), mma_ops="many")).encode(),
    ]
    for blob in bad:
        cache.put_trace(key_of(6), trace)
        marker.write_bytes(blob)
        assert cache.get_trace(key_of(6)) is None, blob
        assert not cache.has_trace(key_of(6)), blob
    # A marker whose events vanished is a miss as well.
    cache.put_trace(key_of(6), trace)
    pair_paths(cache, key_of(6))[0].unlink()
    assert cache.get_trace(key_of(6)) is None
    assert not cache.has_trace(key_of(6))


_RACER = """\
import json, random, sys
from repro.runtime.store import DiskCache
from tests.test_store_crash import assert_same, key_of, synthetic_trace

root, cap, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = random.Random(seed)
cache = DiskCache(root, max_bytes=cap)
traces = {s: synthetic_trace(s) for s in range(10, 16)}
hits = misses = 0
for _ in range(150):
    s = rng.choice(sorted(traces))
    if rng.random() < 0.5:
        cache.put_trace(key_of(s), traces[s])
        continue
    got = cache.get_trace(key_of(s))
    if got is None:
        misses += 1
    else:
        assert_same(got, traces[s])
        hits += 1
json.dump({"hits": hits, "misses": misses,
           "evictions": cache.stats().evictions}, sys.stdout)
"""


def test_racing_puts_and_evictions_never_serve_a_wrong_trace(tmp_path):
    """Two processes hammer one capped store (room for about two of
    six traces): every read they make is exact or a miss."""
    probe = DiskCache(tmp_path / "probe")
    probe.put_trace(key_of(10), synthetic_trace(10))
    cap = pair_bytes(probe, key_of(10)) * 5 // 2
    store = tmp_path / "store"
    racers = [spawn(_RACER, store, cap, seed) for seed in (1, 2)]
    reports = []
    for racer in racers:
        out, err = racer.communicate(timeout=300)
        assert racer.returncode == 0, err
        reports.append(json.loads(out))
    assert sum(r["hits"] for r in reports) > 0, reports
    assert sum(r["evictions"] for r in reports) > 0, reports
    # What the race left behind is still exact-or-miss.
    cache = DiskCache(store)
    for seed in range(10, 16):
        got = cache.get_trace(key_of(seed))
        if got is not None:
            assert_same(got, synthetic_trace(seed))
