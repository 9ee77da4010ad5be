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
  MMA ops, write bytes) are closed-form identities of the tiling and
  exact by construction.

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
from repro.gpu.stats import LayerStats, MemoryBreakdown

from repro.analytic.profile import LayerProfile


class AnalyticUnsupported(ValueError):
    """Raised when a prediction is requested outside analytic coverage.

    :func:`repro.analytic.engine.analytic_fallback_reason` routes
    uncovered configurations to the exact tier *before* reaching the
    model.  A warm caller-supplied LHB is the one case it does not
    screen (:func:`~repro.gpu.simulator.simulate_layer` always builds
    a fresh buffer), so :func:`predict_stats` rejects it here.
    """


def _predicted_hits(
    profile: LayerProfile, lhb: LoadHistoryBuffer
) -> int:
    """Exact LHB hit count for one geometry, from the reuse table."""
    if lhb.is_oracle:
        return profile.oracle_hits(lhb.lifetime)
    num_sets = lhb.num_sets
    k = num_sets.bit_length() - 1
    if (1 << k) != num_sets:
        raise AnalyticUnsupported(
            f"analytic LHB model needs a power-of-two set count, got "
            f"{num_sets} ({lhb.num_entries} entries / {lhb.assoc}-way)"
        )
    gaps, sds, counts = profile.level(lhb.hashed_index, k)
    mask = sds < lhb.assoc
    if lhb.lifetime is not None:
        mask = mask & (gaps < lhb.lifetime)
    return int(counts[mask].sum())


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
    """
    c = profile.counters
    baseline = profile.mode is EliminationMode.BASELINE or lhb is None
    if baseline:
        lookups = hits = 0
    else:
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

    eliminated = hits
    l1_accesses = c.loads_total - eliminated
    anchors = profile.anchors
    l1_hits = int(
        round(
            float(
                np.interp(
                    eliminated,
                    anchors.eliminated.astype(float),
                    anchors.l1_hits.astype(float),
                )
            )
        )
    )
    l1_hits = max(0, min(l1_hits, l1_accesses))
    l2_accesses = l1_accesses - l1_hits
    l2_hits = int(
        round(
            float(
                np.interp(
                    eliminated,
                    anchors.eliminated.astype(float),
                    anchors.l2_hits.astype(float),
                )
            )
        )
    )
    l2_hits = max(0, min(l2_hits, l2_accesses))
    dram_served = l2_accesses - l2_hits
    line_bytes = profile.gpu.l1_line_bytes

    return LayerStats(
        loads_total=c.loads_total,
        loads_workspace=c.loads_workspace,
        loads_filter=c.loads_filter,
        loads_input=0,
        stores=c.stores,
        workspace_instructions=c.workspace_instructions,
        lhb_lookups=lookups,
        lhb_hits=hits,
        eliminated_fragments=eliminated,
        unique_workspace_ids=c.unique_workspace_ids,
        l1_accesses=l1_accesses,
        l1_hits=l1_hits,
        l2_accesses=l2_accesses,
        l2_hits=l2_hits,
        dram_read_bytes=dram_served * line_bytes,
        dram_write_bytes=c.stores * profile.gpu.store_frag_bytes,
        mma_ops=c.mma_ops,
        breakdown=MemoryBreakdown(
            lhb=eliminated,
            l1=l1_hits,
            l2=l2_hits,
            dram=dram_served,
            shared=0,
        ),
    )
