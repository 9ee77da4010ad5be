"""Persistent on-disk result store under ``results/cache/``.

Layout (content-addressed, two-level fan-out to keep directories
small)::

    results/cache/
      results/9f/9fe312....pkl        pickled LayerResult

The store holds layer results only.  Traces are never persisted:
synthesizing one in closed form is cheaper than reading it back
(:mod:`repro.gpu.simulator`).

Writes are atomic (temp file + ``os.replace``), so a reader sees the
old artifact, the new one or none.  A writer killed mid-write leaves
only its ``*.tmp`` file, which :meth:`DiskCache.clear` removes.
Unpickling failures (truncated file, version skew) degrade to a miss
and the offending file is dropped.

A store opened with ``max_bytes=N`` enforces a **size-capped
admission/eviction policy**: after every write the on-disk total is
brought back under the cap by deleting artifacts in least-recently-used
order.  Recency is the artifact's mtime: reads touch the files they
serve, so a hot working set survives while stale sweep residue is
reclaimed.  Evicted artifacts count into ``store.evictions`` (and
``CacheStats.evictions``); the artifact just written is never a
candidate.  The long-running query server (:mod:`repro.serve`) runs
its shared store capped so unbounded design-space exploration cannot
fill the disk.

The default location is ``$REPRO_CACHE_DIR`` or ``results/cache``
relative to the working directory; the CLI and
:class:`repro.runtime.executor.SweepExecutor` both construct stores
explicitly so tests can point them at temporary directories.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro import obs

_log = logging.getLogger(__name__)

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Pickle protocol pinned for cross-run stability.
_PICKLE_PROTOCOL = 4


def _atomic_write(path: Path, mode: str, write) -> None:
    """Write ``path`` through a temp file and ``os.replace``.

    Readers see the old file, the new one, or no file — never a torn
    one.  ``write(fh)`` fills the temp file.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``results/cache`` under the CWD."""
    return Path(os.environ.get(CACHE_DIR_ENV, os.path.join("results", "cache")))


@dataclass
class CacheStats:
    """Hit/miss counters (this process) plus on-disk totals."""

    result_hits: int = 0
    result_misses: int = 0
    result_files: int = 0
    disk_bytes: int = 0
    evictions: int = 0
    root: str = ""

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class DiskCache:
    """Content-addressed store for layer results.

    ``max_bytes`` (``None`` = unbounded, the default) caps the on-disk
    total: every write is followed by an LRU-by-mtime eviction pass
    that deletes artifacts until the store fits the cap again.  Reads
    touch the artifacts they serve so the hot working set stays
    resident.  An artifact *larger than the whole cap* is never
    admitted — it is written (the caller's result is unaffected) and
    reclaimed in the same pass.
    """

    root: Path = field(default_factory=default_cache_dir)
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise ValueError(
                f"max_bytes must be positive or None, got {self.max_bytes}"
            )
        self._stats = CacheStats(root=str(self.root))

    # -- path arithmetic ------------------------------------------------

    def _path(self, family: str, key: str, suffix: str = ".pkl") -> Path:
        return self.root / family / key[:2] / f"{key}{suffix}"

    def _files(self):
        """Every stored result file (empty before the first put)."""
        base = self.root / "results"
        return base.rglob("*.pkl") if base.is_dir() else ()

    # -- size-capped admission/eviction ---------------------------------

    def _touch(self, key: str) -> None:
        """Refresh a result's mtime — the LRU recency signal.

        Only capped stores pay the ``utime`` call; unbounded stores
        never evict, so recency is meaningless there.
        """
        if self.max_bytes is None:
            return
        now = time.time()
        try:
            os.utime(self._path("results", key), (now, now))
        except OSError:
            pass

    def _admit(self, key: str) -> None:
        """Post-write hook: bring the store back under ``max_bytes``.

        The result just written (``key``) is evicted only as a last
        resort (when it alone exceeds the whole cap), so a hot put can
        never be starved by its own admission pass.
        """
        if self.max_bytes is None:
            return
        files = []
        total = 0
        for p in self._files():
            try:
                st = p.stat()
            except OSError:
                continue
            files.append((p, st.st_size, st.st_mtime))
            total += st.st_size
        if total <= self.max_bytes:
            return
        protect = self._path("results", key)
        # Oldest first; the fresh put last in line.
        files.sort(key=lambda f: (f[0] == protect, f[2]))
        evicted = 0
        for path, size, _mtime in files:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
                total -= size
            except OSError:
                pass
            evicted += 1
        if evicted:
            self._stats.evictions += evicted
            obs.add("store.evictions", evicted)
            _log.debug(
                "evicted %d result(s); store now ~%d bytes (cap %d)",
                evicted, total, self.max_bytes,
            )

    # -- typed API ------------------------------------------------------

    def has_result(self, key: str) -> bool:
        """Cheap existence probe (no read)."""
        return self._path("results", key).exists()

    def get_result(self, key: str):
        path = self._path("results", key)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            result = None
        except Exception:
            # Torn/stale artifact: drop it and report a miss.
            try:
                path.unlink()
            except OSError:
                pass
            result = None
        if result is None:
            self._stats.result_misses += 1
            obs.add("store.result_misses")
        else:
            self._stats.result_hits += 1
            self._touch(key)
            obs.add("store.result_hits")
            if obs.enabled():
                obs.add("store.result_bytes_read", self._size(key))
        return result

    def put_result(self, key: str, result) -> None:
        path = self._path("results", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(
            path, "wb",
            lambda fh: pickle.dump(result, fh, protocol=_PICKLE_PROTOCOL),
        )
        self._admit(key)
        obs.add("store.result_puts")
        if obs.enabled():
            obs.add("store.result_bytes_written", self._size(key))

    def _size(self, key: str) -> int:
        """On-disk size of one result (metrics only)."""
        try:
            return self._path("results", key).stat().st_size
        except OSError:
            return 0

    # -- maintenance ----------------------------------------------------

    def stats(self) -> CacheStats:
        """Process-local hit/miss counters plus on-disk inventory."""
        s = self._stats
        s.result_files, s.disk_bytes = 0, 0
        for p in self._files():
            s.result_files += 1
            try:
                s.disk_bytes += p.stat().st_size
            except OSError:
                pass
        return s

    def clear(self) -> int:
        """Delete every stored result plus the ``*.tmp`` files killed
        writers left behind; returns files removed."""
        base = self.root / "results"
        if not base.is_dir():
            return 0
        removed = 0
        for pattern in ("*.pkl", "*.tmp"):
            for p in base.rglob(pattern):
                try:
                    p.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def open_cache(path: Optional[str] = None) -> DiskCache:
    """Construct a :class:`DiskCache` at ``path`` (or the default)."""
    return DiskCache(Path(path) if path is not None else default_cache_dir())


# bench/tracing.py (frozen) wraps these names by attribute.  Traces are
# no longer persisted, so nothing calls them.
def _retired(*_args, **_kwargs):
    raise NotImplementedError("traces are not persisted")


for _name in ("get_trace", "put_trace"):
    setattr(DiskCache, _name, _retired)


class TraceStreamWriter:
    append = commit = _retired
