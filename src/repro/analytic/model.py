"""Closed-form :class:`LayerStats` predictions from a layer profile.

:func:`predict_stats` is the analytic twin of
:func:`repro.gpu.fastpath.replay_trace_fast`: given a
:class:`~repro.analytic.profile.LayerProfile` and an LHB geometry it
assembles the traced-prefix ``LayerStats`` the replay would return —
without the replay.  Exactness splits per counter family:

* **LHB counters** (``lhb_lookups``, ``lhb_hits``,
  ``eliminated_fragments``) are *exact* for every covered geometry —
  direct-mapped, N-way and oracle, hashed and modular indexing, any
  lifetime — via the profile's per-level distinct-tag tables.  The
  differential suite asserts bit-equality against the replay.

* **Cache/DRAM counters** (``l1_hits``, ``l2_hits``,
  ``dram_read_bytes``) interpolate between the profile's exact oracle
  anchors along the eliminated-count axis.  Accesses stay exact
  (``l1_accesses = loads_total - eliminated``,
  ``l2_accesses = l1_accesses - l1_hits``); only the hit splits are
  approximate, within the bounds committed in
  ``tests/goldens/analytic_bounds.json``.  Baseline mode carries no
  elimination, sits exactly on the first anchor, and is therefore
  exact end to end.

* **Stream counters** (load mix, stores, instructions, unique IDs,
  MMA ops, write bytes) are the replay's own: the profile keeps the
  fed streams' scalar half and the trace's meta, and both tiers
  assemble ``LayerStats`` through
  :meth:`~repro.gpu.fastpath.StreamTotals.layer_stats`.

All identities :meth:`LayerStats.scaled` preserves on replay output
(load-mix sum, hits ≤ lookups, access chaining, byte multiples,
breakdown agreement) hold on the predicted stats too, so the
simulator's extrapolation tail treats both sources identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.ldst import EliminationMode
from repro.gpu.stats import LayerStats

from repro.analytic.engine import AnalyticUnsupported, analytic_fallback_reason
from repro.analytic.profile import LayerProfile


def _predicted_hits(
    profile: LayerProfile, lhb: LoadHistoryBuffer
) -> int:
    """Exact LHB hit count for one covered geometry, from the reuse table."""
    if lhb.is_oracle:
        return profile.oracle_hits(lhb.lifetime)
    k = lhb.num_sets.bit_length() - 1
    gaps, sds, counts = profile.level(lhb.hashed_index, k)
    mask = sds < lhb.assoc
    if lhb.lifetime is not None:
        mask = mask & (gaps < lhb.lifetime)
    return int(counts[mask].sum())


def _interpolated(
    eliminated: int, anchors: np.ndarray, ys: np.ndarray, ceiling: int
) -> int:
    """``ys`` interpolated at ``eliminated``, rounded into ``[0, ceiling]``."""
    y = np.interp(eliminated, anchors.astype(float), ys.astype(float))
    return max(0, min(int(round(float(y))), ceiling))


def predict_stats(
    profile: LayerProfile, lhb: Optional[LoadHistoryBuffer] = None
) -> LayerStats:
    """Assemble the traced-prefix :class:`LayerStats` for one geometry.

    ``lhb`` must be fresh (the closed forms assume an empty buffer,
    exactly like the fast path) and keeps counters only afterwards
    (:meth:`~repro.core.lhb.LoadHistoryBuffer.begin_closed_form`); its
    ``stats`` counters are filled
    with the exact lookup/hit/miss totals so Figure-10-style
    introspection agrees with the replay.  The structural miss
    taxonomy (compulsory / expired / conflict) is not modelled here —
    those counters stay zero and callers needing them use an exact
    tier.  ``mode=BASELINE`` profiles ignore ``lhb``.

    Raises :class:`AnalyticUnsupported` for a geometry the coverage
    rule rejects, and for a used buffer, which the rule does not
    screen (:func:`~repro.gpu.simulator.simulate_layer` always builds
    a fresh one).
    """
    lookups = hits = 0
    if profile.mode is not EliminationMode.BASELINE and lhb is not None:
        reason = analytic_fallback_reason(
            profile.kernel, profile.options, profile.mode,
            lhb.num_entries, lhb.assoc,
        )
        if reason is not None:
            raise AnalyticUnsupported(reason)
        if not lhb.is_fresh():
            raise AnalyticUnsupported(
                "analytic predictions assume a fresh LHB; replay warm "
                "buffers through the event-level oracle (lhb.access)"
            )
        lhb.begin_closed_form()
        lookups = profile.lookups
        hits = _predicted_hits(profile, lhb)
        lhb.stats.lookups += lookups
        lhb.stats.hits += hits
        lhb.stats.misses += lookups - hits

    anchors = profile.anchors
    l1_accesses = profile.totals.loads - hits
    l1_hits = _interpolated(
        hits, anchors.eliminated, anchors.l1_hits, l1_accesses
    )
    l2_hits = _interpolated(
        hits, anchors.eliminated, anchors.l2_hits, l1_accesses - l1_hits
    )
    return profile.totals.layer_stats(
        profile.meta.mma_ops,
        lookups=lookups,
        hits=hits,
        eliminated=hits,
        l1_accesses=l1_accesses,
        l1_hits=l1_hits,
        l2_hits=l2_hits,
        shared=0,
    )
