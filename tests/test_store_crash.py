"""Crash consistency of the result store.

A result is one pickle written through a temp file and ``os.replace``.
Whatever happens to a writer — killed mid-write, its file truncated or
overwritten with garbage, a put racing an eviction in another process
— :meth:`DiskCache.get_result` returns the exact result that was
written or ``None``: it never raises and never returns a wrong one.
A killed writer leaves only its ``*.tmp`` file, which
:meth:`DiskCache.clear` reclaims.

Crashing and racing processes are real child interpreters.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.runtime.store import DiskCache

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def key_of(seed: int) -> str:
    return f"{seed:02x}" * 32


def result_of(seed: int, size: int = 3000) -> dict:
    """A deterministic result whose every byte depends on ``seed``, so
    a mix-up between two keys cannot go unnoticed."""
    return {"seed": seed, "payload": bytes([seed % 256]) * size}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH"))
        if p
    )
    return env


_KILLED_MID_PUT = """\
import pickle, sys, time
from repro.runtime.store import DiskCache
from tests.test_store_crash import key_of

root, seed = sys.argv[1], int(sys.argv[2])

def dump_then_hang(obj, fh, protocol=None):
    fh.write(pickle.dumps(obj, protocol=protocol)[:7])
    fh.flush()
    print("writing", flush=True)
    time.sleep(120)

pickle.dump = dump_then_hang
DiskCache(root).put_result(key_of(seed), {"seed": seed})
"""


def spawn(code: str, *args) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", code, *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT,
    )


def test_kill_mid_put_leaves_a_miss_and_clear_reclaims_tmp(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put_result(key_of(2), {"seed": 2})

    # A writer SIGKILLed part-way through its pickle.
    child = spawn(_KILLED_MID_PUT, tmp_path, 1)
    try:
        assert child.stdout.readline().strip() == "writing"
    finally:
        child.kill()
        child.communicate()
    assert child.returncode == -signal.SIGKILL
    assert list(tmp_path.rglob("*.tmp")), "killed writer left no temp file"
    assert not cache.has_result(key_of(1))
    assert cache.get_result(key_of(1)) is None
    assert cache.get_result(key_of(2)) == {"seed": 2}

    # `repro cache clear` reclaims what the killed writer left behind.
    assert cache.clear() == 2  # the neighbour's result + the temp file
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


@pytest.mark.parametrize("cut", ["empty", "one byte", "half", "one short"])
def test_truncated_result_is_a_miss(tmp_path, cut):
    cache = DiskCache(tmp_path)
    cache.put_result(key_of(5), result_of(5))
    path = cache._path("results", key_of(5))
    blob = path.read_bytes()
    size = {"empty": 0, "one byte": 1, "half": len(blob) // 2,
            "one short": len(blob) - 1}[cut]
    path.write_bytes(blob[:size])
    assert cache.get_result(key_of(5)) is None
    # The torn file is dropped, so the probe agrees with the read.
    assert not cache.has_result(key_of(5))
    cache.put_result(key_of(5), result_of(5))
    assert cache.get_result(key_of(5)) == result_of(5)


def test_garbage_result_is_a_miss(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put_result(key_of(6), result_of(6))
    cache._path("results", key_of(6)).write_bytes(b"\x00\xffgarbage")
    assert cache.get_result(key_of(6)) is None
    assert not cache.has_result(key_of(6))


_RACER = """\
import json, random, sys
from repro.runtime.store import DiskCache
from tests.test_store_crash import key_of, result_of

root, cap, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = random.Random(seed)
cache = DiskCache(root, max_bytes=cap)
hits = misses = 0
for _ in range(300):
    s = rng.randrange(10, 16)
    if rng.random() < 0.5:
        cache.put_result(key_of(s), result_of(s))
        continue
    got = cache.get_result(key_of(s))
    if got is None:
        misses += 1
    else:
        assert got == result_of(s), s
        hits += 1
json.dump({"hits": hits, "misses": misses,
           "evictions": cache.stats().evictions}, sys.stdout)
"""


def test_racing_puts_and_evictions_never_serve_a_wrong_result(tmp_path):
    """Two processes hammer one capped store (room for about two of
    six results): every read they make is exact or a miss."""
    probe = DiskCache(tmp_path / "probe")
    probe.put_result(key_of(10), result_of(10))
    cap = probe._path("results", key_of(10)).stat().st_size * 5 // 2
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
        got = cache.get_result(key_of(seed))
        assert got is None or got == result_of(seed)
