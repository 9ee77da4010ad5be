"""Persistent on-disk artifact store under ``results/cache/``.

Layout (content-addressed, two-level fan-out to keep directories
small)::

    results/cache/
      traces/ab/abcdef....events.npy  columnar KernelTrace events
      traces/ab/abcdef....meta.json   the trace's scalar fields
      results/9f/9fe312....pkl        pickled LayerResult

A trace has exactly one on-disk form: the **sidecar pair**.  The
``.events.npy`` file is the uncompressed 15-byte/event record array
(:meth:`repro.gpu.isa.KernelTrace.save_npy`) and ``.meta.json`` holds
the scalar fields.  Loading needs no pickle and reads the record array
densely.  :meth:`DiskCache.trace_stream_writer` produces the same pair
*incrementally* — trace blocks are appended behind a closed-form-sized
``.npy`` header as they are generated, so persisting a trace never
requires materialising it.

``.meta.json`` is the **commit marker**.  Writes are atomic (temp file
+ ``os.replace``) and the events file always lands first, so a reader
that finds the marker can rely on the events being complete.
Eviction unlinks the marker first for the same reason.  A pair that
still fails to load — a truncated events file, a garbage marker, an
events file evicted under a concurrent put — is dropped and reported
as a miss: ``get_trace`` returns the exact trace written or ``None``,
never a partial one.  A writer killed mid-write leaves only its
``*.tmp`` file, which :meth:`DiskCache.clear` removes.  Unpickling
failures of results (truncated file, version skew) likewise degrade
to a miss and the offending file is dropped.

A store opened with ``max_bytes=N`` enforces a **size-capped
admission/eviction policy**: after every write the on-disk total is
brought back under the cap by deleting whole artifact *groups* (all
suffixes sharing one content key) in least-recently-used order.
Recency is the artifact's mtime: reads touch the files they serve, so
a hot working set survives while stale sweep residue is reclaimed.
Evicted groups count into ``store.evictions`` (and
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

import json
import logging
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import obs

_log = logging.getLogger(__name__)

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Pickle protocol pinned for cross-run stability.
_PICKLE_PROTOCOL = 4

#: Suffix of a trace's commit marker: its presence promises a complete
#: ``.events.npy`` next to it.
_COMMIT_SUFFIX = ".meta.json"


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

    trace_hits: int = 0
    trace_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    trace_files: int = 0
    result_files: int = 0
    disk_bytes: int = 0
    evictions: int = 0
    root: str = ""

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class DiskCache:
    """Content-addressed store for traces and layer results.

    ``max_bytes`` (``None`` = unbounded, the default) caps the on-disk
    total: every write is followed by an LRU-by-mtime eviction pass
    that deletes whole artifact groups until the store fits the cap
    again.  Reads touch the artifacts they serve so the hot working
    set stays resident.  An artifact *larger than the whole cap* is
    never admitted — it is written (the caller's result is unaffected)
    and reclaimed in the same pass.
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

    # -- size-capped admission/eviction ---------------------------------

    #: Per-family suffixes forming one artifact *group* — eviction,
    #: byte accounting and the LRU touch always treat a key's files as
    #: a unit.
    _GROUP_SUFFIXES = {
        "traces": (".meta.json", ".events.npy"),
        "results": (".pkl",),
    }

    def _touch(self, family: str, key: str) -> None:
        """Refresh an artifact group's mtime — the LRU recency signal.

        Only capped stores pay the ``utime`` calls; unbounded stores
        never evict, so recency is meaningless there.
        """
        if self.max_bytes is None:
            return
        now = time.time()
        for suffix in self._GROUP_SUFFIXES[family]:
            try:
                os.utime(self._path(family, key, suffix), (now, now))
            except OSError:
                pass

    def _admit(self, family: str, key: str) -> None:
        """Post-write hook: bring the store back under ``max_bytes``.

        ``(family, key)`` — the artifact just written — is evicted
        only as a last resort (when it alone exceeds the whole cap),
        so a hot put can never be starved by its own admission pass.
        """
        if self.max_bytes is None:
            return
        self._evict_over_cap(protect=(family, key))

    def _evict_over_cap(
        self, protect: Optional[Tuple[str, str]] = None
    ) -> None:
        groups: Dict[Tuple[str, str], List[Tuple[Path, int]]] = {}
        recency: Dict[Tuple[str, str], float] = {}
        total = 0
        for family in self._GROUP_SUFFIXES:
            base = self.root / family
            if not base.is_dir():
                continue
            for pattern in self._FAMILY_PATTERNS[family]:
                for p in base.rglob(pattern):
                    try:
                        st = p.stat()
                    except OSError:
                        continue
                    group = (family, p.name.split(".", 1)[0])
                    groups.setdefault(group, []).append((p, st.st_size))
                    recency[group] = max(
                        recency.get(group, 0.0), st.st_mtime
                    )
                    total += st.st_size
        if self.max_bytes is None or total <= self.max_bytes:
            return
        victims = sorted(groups, key=lambda g: recency[g])
        if protect in groups:
            # Last in line: evicted only if everything else was not
            # enough (an artifact bigger than the whole cap).
            victims.remove(protect)
            victims.append(protect)
        evicted = 0
        for group in victims:
            if total <= self.max_bytes:
                break
            # Commit marker first: a crash part-way through a group
            # leaves an orphaned events file (a miss), never a marker
            # that promises events which are gone.
            files = sorted(
                groups[group],
                key=lambda f: not f[0].name.endswith(_COMMIT_SUFFIX),
            )
            for path, size in files:
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
                "evicted %d artifact group(s); store now ~%d bytes "
                "(cap %d)", evicted, total, self.max_bytes,
            )

    # -- generic get/put ------------------------------------------------

    def _get(self, family: str, key: str):
        path = self._path(family, key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            # Torn/stale artifact: drop it and report a miss.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _put(self, family: str, key: str, obj) -> None:
        path = self._path(family, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(
            path, "wb",
            lambda fh: pickle.dump(obj, fh, protocol=_PICKLE_PROTOCOL),
        )

    def trace_stream_writer(self, key: str, meta: dict, total_events: int):
        """Open a :class:`TraceStreamWriter` for ``key``.

        The streaming twin of :meth:`put_trace`: trace blocks are
        appended straight into the ``.events.npy`` sidecar
        as they are generated — the full trace is never materialised
        in memory.  ``total_events`` sizes the ``.npy`` header up
        front (``TracePlan.event_count()`` provides it in closed
        form); ``meta`` is the scalar-field dict
        (``TracePlan.meta()`` / ``KernelTrace.meta()``) persisted as
        the committing ``.meta.json``.

        The pair is byte-identical to the one :meth:`put_trace`
        writes for the materialised trace.
        """
        events = self._path("traces", key, suffix=".events.npy")
        meta_path = self._path("traces", key, suffix=_COMMIT_SUFFIX)
        events.parent.mkdir(parents=True, exist_ok=True)
        return TraceStreamWriter(
            events, meta_path, meta, total_events,
            on_commit=lambda: self._trace_written(key),
        )

    def _get_trace_sidecar(self, key: str):
        from repro.gpu.isa import KernelTrace

        meta_path = self._path("traces", key, suffix=_COMMIT_SUFFIX)
        events_path = self._path("traces", key, suffix=".events.npy")
        if not meta_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text())
            return KernelTrace.load_npy(str(events_path), meta)
        except Exception:
            # Torn, truncated or half-evicted pair: drop both files
            # and report a miss.
            for p in (meta_path, events_path):
                try:
                    p.unlink()
                except OSError:
                    pass
            return None

    # -- typed API ------------------------------------------------------

    def get_trace(self, key: str):
        trace = self._get_trace_sidecar(key)
        if trace is None:
            self._stats.trace_misses += 1
            obs.add("store.trace_misses")
        else:
            self._stats.trace_hits += 1
            self._touch("traces", key)
            obs.add("store.trace_hits")
            if obs.enabled():
                obs.add("store.trace_bytes_read", self._artifact_bytes(
                    "traces", key))
        return trace

    def put_trace(self, key: str, trace) -> None:
        events = self._path("traces", key, suffix=".events.npy")
        events.parent.mkdir(parents=True, exist_ok=True)
        # Events first, then the commit marker.
        _atomic_write(events, "wb", trace.save_npy)
        _atomic_write(
            self._path("traces", key, suffix=_COMMIT_SUFFIX), "w",
            lambda fh: json.dump(trace.meta(), fh),
        )
        self._trace_written(key)
        obs.add("store.trace_puts")
        _log.debug("stored trace %s", key[:12])

    def _trace_written(self, key: str) -> None:
        """Post-commit hook shared by :meth:`put_trace` and the stream
        writer: count the pair's bytes, then enforce the cap."""
        if obs.enabled():
            obs.add("store.trace_bytes_written", self._artifact_bytes(
                "traces", key))
        self._admit("traces", key)

    def has_trace(self, key: str) -> bool:
        """Cheap existence probe (no read) — the streaming decision's view."""
        return self._path("traces", key, suffix=_COMMIT_SUFFIX).exists()

    def has_result(self, key: str) -> bool:
        """Cheap existence probe (no read)."""
        return self._path("results", key).exists()

    def get_result(self, key: str):
        result = self._get("results", key)
        if result is None:
            self._stats.result_misses += 1
            obs.add("store.result_misses")
        else:
            self._stats.result_hits += 1
            self._touch("results", key)
            obs.add("store.result_hits")
            if obs.enabled():
                obs.add("store.result_bytes_read", self._artifact_bytes(
                    "results", key))
        return result

    def put_result(self, key: str, result) -> None:
        self._put("results", key, result)
        self._admit("results", key)
        obs.add("store.result_puts")
        if obs.enabled():
            obs.add("store.result_bytes_written", self._artifact_bytes(
                "results", key))

    def _artifact_bytes(self, family: str, key: str) -> int:
        """On-disk size of one artifact group (metrics only)."""
        total = 0
        for suffix in self._GROUP_SUFFIXES[family]:
            try:
                total += self._path(family, key, suffix).stat().st_size
            except OSError:
                pass
        return total

    # -- maintenance ----------------------------------------------------

    #: rglob patterns per family for inventory/clear.
    _FAMILY_PATTERNS = {
        "traces": ("*.events.npy", "*.meta.json"),
        "results": ("*.pkl",),
    }

    def stats(self) -> CacheStats:
        """Process-local hit/miss counters plus on-disk inventory."""
        s = self._stats
        s.trace_files, s.result_files, s.disk_bytes = 0, 0, 0
        for family, attr in (("traces", "trace_files"), ("results", "result_files")):
            base = self.root / family
            if not base.is_dir():
                continue
            for pattern in self._FAMILY_PATTERNS[family]:
                for p in base.rglob(pattern):
                    setattr(s, attr, getattr(s, attr) + 1)
                    try:
                        s.disk_bytes += p.stat().st_size
                    except OSError:
                        pass
        return s

    def clear(self) -> int:
        """Delete every cached artifact plus the ``*.tmp`` files killed
        writers left behind; returns files removed."""
        removed = 0
        for family, patterns in self._FAMILY_PATTERNS.items():
            base = self.root / family
            if not base.is_dir():
                continue
            for pattern in patterns + ("*.tmp",):
                for p in base.rglob(pattern):
                    try:
                        p.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed


class TraceStreamWriter:
    """Incremental writer of one trace's ``.events.npy`` sidecar pair.

    Append blocks in emission order, then :meth:`commit`::

        writer = cache.trace_stream_writer(key, plan.meta(), plan.event_count())
        try:
            for block in plan.iter_blocks(block_events):
                writer.append(block)
            writer.commit()
        except BaseException:
            writer.abort()
            raise

    The ``.npy`` header is written first from the closed-form event
    count, each block's records are appended behind it, and the file
    is byte-identical to :meth:`~repro.gpu.isa.KernelTrace.save_npy`
    of the materialised trace.  Writes land in a temp file; commit
    atomically publishes events first, then ``.meta.json`` (the
    commit marker ``get_trace`` keys off), so readers never observe a
    torn pair.  Committing with a block shortfall or overshoot raises
    and leaves no artifact.
    """

    def __init__(
        self,
        events_path,
        meta_path,
        meta: dict,
        total_events: int,
        on_commit=None,
    ):
        import numpy as np

        self._events_path = events_path
        self._meta_path = meta_path
        self._meta = dict(meta)
        self._total = int(total_events)
        self._on_commit = on_commit
        self._written = 0
        fd, self._tmp = tempfile.mkstemp(
            dir=events_path.parent, suffix=".tmp"
        )
        self._fh = os.fdopen(fd, "wb")
        from repro.gpu.isa import EVENT_DTYPE

        np.lib.format.write_array_header_1_0(
            self._fh,
            {
                "descr": np.lib.format.dtype_to_descr(EVENT_DTYPE),
                "fortran_order": False,
                "shape": (self._total,),
            },
        )

    def append(self, block) -> None:
        """Fold one :class:`~repro.gpu.isa.TraceBlock` into the file."""
        records = block.to_columnar()
        self._written += len(records)
        if self._written > self._total:
            raise ValueError(
                f"stream overshot declared event count: {self._written} > "
                f"{self._total}"
            )
        self._fh.write(records.tobytes())

    def commit(self) -> None:
        """Publish the completed pair (events, then the meta marker)."""
        if self._written != self._total:
            self.abort()
            raise ValueError(
                f"stream ended early: wrote {self._written} of "
                f"{self._total} events"
            )
        self._fh.close()
        os.replace(self._tmp, self._events_path)
        _atomic_write(
            self._meta_path, "w", lambda fh: json.dump(self._meta, fh)
        )
        if self._on_commit is not None:
            self._on_commit()
        obs.add("store.trace_stream_puts")

    def abort(self) -> None:
        """Drop the partial file; the store is left untouched."""
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            os.unlink(self._tmp)
        except OSError:
            pass


def open_cache(path: Optional[str] = None) -> DiskCache:
    """Construct a :class:`DiskCache` at ``path`` (or the default)."""
    return DiskCache(Path(path) if path is not None else default_cache_dir())
