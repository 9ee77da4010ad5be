"""Stable content-addressed cache keys for simulation artifacts.

Every cached artifact — a :class:`~repro.gpu.isa.KernelTrace` or a
:class:`~repro.gpu.simulator.LayerResult` — is stored under a SHA-256
digest of the *complete* configuration that produced it:

``trace_key``
    ``(ConvLayerSpec, GPUConfig, KernelConfig, SimulationOptions,
    salt)`` — the full frozen options object, not a hand-picked field
    subset.  The seed code keyed its in-process trace cache on
    ``(max_ctas, representative_sm)`` only, so two options objects
    differing elsewhere aliased to one entry; keying on the canonical
    form of the whole dataclass closes that bug surface for good (any
    field added to ``SimulationOptions`` later is picked up
    automatically).

``result_key``
    The trace key's inputs plus the replay configuration
    ``(mode, lhb_entries, lhb_assoc)``.

Keys incorporate :data:`CACHE_SALT`, a code-version salt bumped
whenever trace generation or replay semantics change, so a stale
on-disk cache can never leak results produced by older model code.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Optional, Sequence

from repro.conv.layer import ConvLayerSpec
from repro.gpu.config import GPUConfig, KernelConfig, SimulationOptions

#: Code-version salt.  Bump the trailing integer whenever
#: ``repro.gpu.kernel``, ``repro.gpu.ldst``, ``repro.gpu.timing``, or
#: anything else that shapes traces/results changes semantics, so
#: previously persisted artifacts are invalidated wholesale.
CACHE_SALT = "duplo-runtime-v3"


def _replay_invariant(options: SimulationOptions) -> SimulationOptions:
    """Normalise options fields that cannot change cached artifacts.

    ``engine`` picks the replay *implementation*; the fast and event
    tiers are bit-identical (enforced by the equivalence suite), so
    keying on it would only split the cache and make fast/event runs
    regenerate artifacts they already have.  The stored artifacts are
    always *exact*: analytic-tier results are approximate and
    therefore never enter the result cache at all (the executor
    bypasses get/put for analytically resolved points), so
    normalising the field can never alias an approximate result into
    an exact key.
    """
    return dataclasses.replace(options, engine="auto")


def canonical(obj) -> object:
    """Reduce a config object to plain JSON-serialisable structure.

    Dataclasses become ``{"__type__": name, **fields}`` with fields in
    declaration order, enums become their value, tuples become lists.
    The ``__type__`` tag keeps two configs with coincidentally equal
    field dicts (e.g. a future ``GPUConfig`` / ``KernelConfig`` field
    collision) from colliding.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for cache key")


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trace_key(
    spec: ConvLayerSpec,
    gpu: GPUConfig,
    kernel: KernelConfig,
    options: SimulationOptions,
) -> str:
    """Content hash identifying one SM trace."""
    return _digest(
        {
            "salt": CACHE_SALT,
            "kind": "trace",
            "spec": canonical(spec),
            "gpu": canonical(gpu),
            "kernel": canonical(kernel),
            "options": canonical(_replay_invariant(options)),
        }
    )


def chunk_claim_key(point_keys: Sequence[str]) -> str:
    """Content hash identifying one sweep chunk for shared-store claims.

    Derived from the (sorted) result keys of the chunk's uncached
    points, so two hosts running the same sweep against one shared
    cache directory contend for identical claim keys regardless of
    chunk submission order — and a chunk whose warm subset differs
    (because another host already persisted part of it) claims only
    the remaining work.
    """
    return _digest(
        {
            "salt": CACHE_SALT,
            "kind": "claim",
            "points": sorted(point_keys),
        }
    )


def result_key(
    spec: ConvLayerSpec,
    gpu: GPUConfig,
    kernel: KernelConfig,
    options: SimulationOptions,
    mode: str,
    lhb_entries: Optional[int],
    lhb_assoc: int,
) -> str:
    """Content hash identifying one simulated LayerResult."""
    return _digest(
        {
            "salt": CACHE_SALT,
            "kind": "result",
            "spec": canonical(spec),
            "gpu": canonical(gpu),
            "kernel": canonical(kernel),
            "options": canonical(_replay_invariant(options)),
            "mode": mode,
            "lhb_entries": lhb_entries,
            "lhb_assoc": lhb_assoc,
        }
    )
