"""Global enable flag for the observability layer.

Everything in :mod:`repro.obs` is a no-op unless instrumentation has
been switched on, so the simulator's hot paths pay only a module-level
boolean test when tracing is off.  The flag lives in its own module so
:mod:`repro.obs.trace` and :mod:`repro.obs.metrics` can share it
without import cycles.

Enable programmatically via :func:`enable` (the CLI does this when any
of ``--trace-out`` / ``--metrics-out`` / ``--manifest-out`` is given)
or by exporting ``REPRO_OBS=1`` before the process starts (handy for
ad-hoc scripts).
"""

from __future__ import annotations

import os

#: Environment variable that enables instrumentation at import time.
OBS_ENV = "REPRO_OBS"

_enabled: bool = os.environ.get(OBS_ENV, "").strip().lower() in (
    "1",
    "on",
    "true",
)


def enabled() -> bool:
    """True when spans and metrics are being recorded."""
    return _enabled


def enable() -> None:
    """Turn instrumentation on (idempotent)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off; recorded data is kept until reset."""
    global _enabled
    _enabled = False
