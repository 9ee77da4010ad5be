"""``repro.obs`` — spans, metrics, run manifests, logging config.

The observability layer the simulator, cache hierarchy, LHB, sweep
runtime, and disk store report into.  Three pieces:

* :func:`span` — nested wall-clock phase tracing into a
  process-global, thread-safe tree (:mod:`repro.obs.trace`);
* :func:`add` / :func:`gauge` / :class:`MetricsRegistry` — counters
  and gauges (:mod:`repro.obs.metrics`);
* :class:`RunManifest` / :func:`collect_manifest` — the run-identity
  document written next to every instrumented invocation
  (:mod:`repro.obs.manifest`).

Counters and gauges always record: the registry is the one place a
count lives, so the store's hit counts, the service's ``/metrics`` and
the run manifest read the same numbers.  Spans are a no-op until
:func:`enable` is called (or ``REPRO_OBS=1`` is exported): the
disabled fast path is a module-level flag test.  Sweep worker threads
record straight onto the same registry.

See ``docs/OBSERVABILITY.md`` for naming conventions and schemas.
"""

from __future__ import annotations

from repro.obs.logcfg import configure_logging
from repro.obs.manifest import RunManifest, collect_manifest, peak_rss_bytes
from repro.obs.metrics import (
    MetricsRegistry,
    add,
    counters_with_prefix,
    gauge,
    registry,
    snapshot,
)
from repro.obs.state import OBS_ENV, disable, enable, enabled
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    phase_timings,
    span,
    tree,
)

__all__ = [
    "MetricsRegistry",
    "NULL_SPAN",
    "OBS_ENV",
    "RunManifest",
    "Span",
    "add",
    "collect_manifest",
    "configure_logging",
    "counters_with_prefix",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "peak_rss_bytes",
    "phase_timings",
    "registry",
    "reset",
    "snapshot",
    "span",
    "tree",
]


def reset() -> None:
    """Clear recorded spans and metrics (the enable flag is kept)."""
    from repro.obs import metrics as _metrics
    from repro.obs import trace as _trace

    _metrics.reset()
    _trace.reset()

