"""Experiment runtime: sweep executor + persistent result cache.

Public surface:

* :class:`SweepExecutor` — runs (layer, configuration) sweep points
  in layer-affine chunks, inline or on a thread pool
  (:data:`BACKENDS`).
* :class:`SimPoint` / :func:`simulate_point` — the unit of sweep work
  and its get-or-compute entry point.
* :class:`DiskCache` / :func:`open_cache` / :func:`default_cache_dir`
  — the content-addressed on-disk store under ``results/cache/``.
* :func:`result_key` / :data:`CACHE_SALT` — the stable content hash
  of a result and the code-version salt.
"""

from repro.runtime.cachekey import CACHE_SALT, result_key
from repro.runtime.executor import (
    BACKENDS,
    SimPoint,
    SweepExecutor,
    simulate_point,
)
from repro.runtime.store import (
    CACHE_DIR_ENV,
    CacheStats,
    DiskCache,
    default_cache_dir,
    open_cache,
)

__all__ = [
    "BACKENDS",
    "CACHE_SALT",
    "CACHE_DIR_ENV",
    "CacheStats",
    "DiskCache",
    "SimPoint",
    "SweepExecutor",
    "default_cache_dir",
    "open_cache",
    "result_key",
    "simulate_point",
]
