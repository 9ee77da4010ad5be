"""Request schema and the canonical JSON result payload.

A query names a workload layer and one configuration — the same axes
``repro simulate`` exposes.  Validation is strict: unknown fields,
wrong types, and out-of-range values all raise :class:`SchemaError`
with a message the HTTP layer returns verbatim as a 400, so a client
never gets a silently-defaulted answer for a misspelled knob.

The response payload is the *full* measurement surface —
``dataclasses.asdict`` of the result's :class:`~repro.gpu.stats.LayerStats`
plus the timing headline — because the bit-identical contract is
easiest to state (and test) over everything at once: a served payload
must equal the payload built from a direct
:func:`~repro.runtime.executor.simulate_point` call, field for field,
after a JSON round-trip (floats survive exactly: JSON carries full
``repr`` precision).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.conv.workloads import WORKLOADS, get_layer
from repro.gpu.config import (
    ARCHS,
    DEFAULT_ARCH,
    SimulationOptions,
    get_arch,
)
from repro.gpu.ldst import EliminationMode
from repro.runtime.executor import SimPoint

SCHEMA_VERSION = 3

NETWORKS = tuple(sorted(WORKLOADS))
ARCH_NAMES = tuple(sorted(ARCHS))
MODES = tuple(m.value for m in EliminationMode)
ENGINES = ("auto", "analytic")

#: Every field a query may carry (anything else is rejected).
_FIELDS = (
    "network",
    "layer",
    "arch",
    "mode",
    "lhb_entries",
    "lhb_assoc",
    "max_ctas",
    "engine",
)


class SchemaError(ValueError):
    """A request failed validation; ``str(exc)`` is client-safe."""


@dataclass(frozen=True)
class Query:
    """One validated what-if query (frozen, hashable, loggable)."""

    network: str
    layer: str
    arch: str = DEFAULT_ARCH
    mode: str = "duplo"
    lhb_entries: Optional[int] = 1024  # None = the paper's oracle
    lhb_assoc: int = 1
    max_ctas: Optional[int] = None
    engine: str = "auto"

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _require_int(
    payload: Dict[str, Any],
    name: str,
    default: Optional[int],
    minimum: int,
    none_ok: bool,
) -> Optional[int]:
    value = payload.get(name, default)
    if value is None:
        if none_ok:
            return None
        raise SchemaError(f"{name!r} must be an integer, got null")
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(
            f"{name!r} must be an integer, got {type(value).__name__}"
        )
    if value < minimum:
        raise SchemaError(f"{name!r} must be >= {minimum}, got {value}")
    return value


def _require_choice(
    payload: Dict[str, Any], name: str, default: str, choices: tuple
) -> str:
    value = payload.get(name, default)
    if value not in choices:
        raise SchemaError(
            f"{name!r} must be one of {sorted(choices)}, got {value!r}"
        )
    return value


def parse_query(payload: Any) -> Query:
    """Validate a decoded JSON object into a :class:`Query`."""
    if not isinstance(payload, dict):
        raise SchemaError(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_FIELDS))
    if unknown:
        raise SchemaError(
            f"unknown field(s): {', '.join(repr(u) for u in unknown)}"
        )
    network = _require_choice(payload, "network", "", NETWORKS)
    layer = payload.get("layer")
    if not isinstance(layer, str) or not layer:
        raise SchemaError("'layer' must be a non-empty string")
    try:
        get_layer(network, layer)
    except KeyError as exc:
        raise SchemaError(str(exc.args[0])) from exc
    # lhb_entries: null means the oracle (unbounded) buffer; 0 is the
    # CLI's spelling of the same thing and normalises to null.
    entries = _require_int(payload, "lhb_entries", 1024, 0, none_ok=True)
    if entries == 0:
        entries = None
    assoc = _require_int(payload, "lhb_assoc", 1, 1, none_ok=False)
    if entries is not None and entries % assoc:
        raise SchemaError(
            f"'lhb_assoc' {assoc} must divide 'lhb_entries' {entries}"
        )
    return Query(
        network=network,
        layer=layer,
        arch=_require_choice(payload, "arch", DEFAULT_ARCH, ARCH_NAMES),
        mode=_require_choice(payload, "mode", "duplo", MODES),
        lhb_entries=entries,
        lhb_assoc=assoc,
        max_ctas=_require_int(payload, "max_ctas", None, 1, none_ok=True),
        engine=_require_choice(payload, "engine", "auto", ENGINES),
    )


def query_point(query: Query) -> SimPoint:
    """The :class:`SimPoint` this query resolves to (pure mapping).

    The arch preset supplies the point's GPU model *and* kernel
    tiling; both are frozen dataclasses serialised into the result
    cache key, so two archs (or an arch and the analytic tier) can
    never share a cache slot.
    """
    preset = get_arch(query.arch)
    return SimPoint(
        spec=get_layer(query.network, query.layer),
        mode=EliminationMode(query.mode),
        lhb_entries=query.lhb_entries,
        lhb_assoc=query.lhb_assoc,
        gpu=preset.gpu,
        kernel=preset.kernel,
        options=SimulationOptions(
            max_ctas=query.max_ctas, engine=query.engine
        ),
    )


def result_payload(query: Query, result: Any) -> Dict[str, Any]:
    """Canonical JSON body for one answered query.

    ``stats`` is the verbatim ``asdict`` of the result's full-layer
    :class:`~repro.gpu.stats.LayerStats`; the headline fields above it
    are conveniences pulled from the same result object, so equality
    of this payload *is* bit-identity of the simulation.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "query": query.as_dict(),
        "layer": result.spec.qualified_name,
        "mode": result.mode.value,
        "cycles": result.cycles,
        "time_ms": result.time_ms,
        "lhb_hit_rate": result.stats.lhb_hit_rate,
        "elimination_rate": result.stats.elimination_rate,
        "stats": dataclasses.asdict(result.stats),
    }
