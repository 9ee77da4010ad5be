"""``repro.analytic`` — closed-form layer predictors over one profile.

The analytic engine tier answers a (layer, mode, LHB geometry) query
from a once-per-layer reuse profile instead of replaying the memory
trace for every geometry:

* :func:`layer_profile` builds (and caches) the
  :class:`LayerProfile` — the exact tier's fed load stream for the
  layer and mode (the same trace slot and fold the fast replay uses)
  reduced to a geometry-independent reuse table, exact traffic
  anchors, and the stream's exact counters
  (:mod:`repro.analytic.profile`);
* :func:`predict_stats` assembles a full :class:`~repro.gpu.stats
  .LayerStats` from the profile for any covered LHB geometry — exact
  LHB/elimination counters, bounded-error cache traffic
  (:mod:`repro.analytic.model`);
* :func:`resolve_engine` / :func:`analytic_fallback_reason` implement
  the engine-tier selection :func:`repro.gpu.simulator.simulate_layer`
  routes through (:mod:`repro.analytic.engine`);
* :func:`validate` is the differential harness holding the model to
  the committed error bounds (:mod:`repro.analytic.validation`).

See ``docs/ANALYTIC.md`` for the derivations and the per-metric error
bound table.
"""

from repro.analytic.engine import (
    ENGINE_ENV,
    analytic_fallback_reason,
    resolve_engine,
)
from repro.analytic.model import AnalyticUnsupported, predict_stats
from repro.analytic.profile import (
    ANCHOR_LIFETIMES,
    LayerProfile,
    clear_profile_cache,
    layer_profile,
)
from repro.analytic.validation import (
    DEFAULT_GEOMETRIES,
    GOLDEN_GEOMETRIES,
    METRIC_FLOORS,
    ValidationCase,
    ValidationReport,
    prediction_rows,
    relative_error,
    validate,
)

__all__ = [
    "ANCHOR_LIFETIMES",
    "AnalyticUnsupported",
    "DEFAULT_GEOMETRIES",
    "ENGINE_ENV",
    "GOLDEN_GEOMETRIES",
    "LayerProfile",
    "METRIC_FLOORS",
    "ValidationCase",
    "ValidationReport",
    "analytic_fallback_reason",
    "clear_profile_cache",
    "layer_profile",
    "predict_stats",
    "prediction_rows",
    "relative_error",
    "resolve_engine",
    "validate",
]
