"""Counter/gauge registry the instrumented modules report into.

Two metric kinds, both named with dotted lower-case paths (see
``docs/OBSERVABILITY.md`` for the naming scheme):

* **counters** — monotonically accumulated integers (events replayed,
  LHB hits, cache hits, bytes written).  :func:`add` folds a delta in.
* **gauges** — last-write-wins floats (worker utilization, hit ratios,
  speedups).  :func:`gauge` sets the value.

The module-level registry is process-global and lock-protected, so
concurrent threads can report safely.  It is the one place a count
lives: :func:`add` and :func:`gauge` always record, whatever the
:mod:`repro.obs.state` flag says (that flag gates spans and the files
the CLI writes), and the service's ``/metrics`` and the store's
:class:`~repro.runtime.store.CacheStats` read their counts from it.
"""

from __future__ import annotations

import threading
from typing import Dict, Union

Number = Union[int, float]


class MetricsRegistry:
    """Thread-safe counters + gauges with snapshot support."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}

    def add(self, name: str, delta: int = 1) -> None:
        """Accumulate ``delta`` into counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(delta)

    def gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never written)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, Dict[str, Number]]:
        """JSON-serializable copy: ``{"counters": ..., "gauges": ...}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
            }

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """All counters whose dotted name starts with ``prefix``.

        The engine/fallback assertions in the test suite compare whole
        counter families (``engine.selected.*``, ``analytic.*``) at
        once — filtering here keeps those assertions exact: an
        *unexpected* counter appearing under the prefix fails the
        comparison instead of going unnoticed.
        """
        with self._lock:
            return {
                name: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry."""
    return _REGISTRY


def add(name: str, delta: int = 1) -> None:
    """Accumulate into a global counter."""
    _REGISTRY.add(name, delta)


def gauge(name: str, value: Number) -> None:
    """Set a global gauge."""
    _REGISTRY.gauge(name, value)


def snapshot() -> Dict[str, Dict[str, Number]]:
    """Copy of the global registry's state."""
    return _REGISTRY.snapshot()


def counters_with_prefix(prefix: str) -> Dict[str, int]:
    """Prefix-filtered counters of the global registry."""
    return _REGISTRY.counters_with_prefix(prefix)


def reset() -> None:
    """Clear the global registry."""
    _REGISTRY.reset()
