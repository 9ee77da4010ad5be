"""Vectorised columnar replay: the array-based simulation fast path.

:func:`replay_trace_fast` produces **bit-identical** :class:`LayerStats`
to the event-level :func:`repro.gpu.ldst.replay_trace` for every
elimination mode, but replaces the per-event Python loop with a handful
of NumPy passes over the trace's columnar arrays.  It rests on three
exact closed forms:

* **Direct-mapped / oracle LHB** — after any access the set holds the
  tag of that access with its lifetime window freshly anchored, so an
  access hits iff the *previous access to the same set* carried the
  same tag within the retirement window.  One stable sort by set index
  resolves every lookup; the same recurrence with "set = tag" is the
  oracle buffer.  Set-associative LHBs (Figure 12's 2/4/8-way sweep)
  resolve offline too: the buffer's dead-entry-preferring eviction
  *is* plain LRU (an expired entry's ``last_use`` is always older than
  any live entry's, so ``min(alive, last_use)`` equals
  ``min(last_use)``), which restores the stack-distance
  characterisation — an entry is still resident iff fewer than
  ``assoc`` distinct tags touched its set since its previous access,
  and a resident entry hits iff its retirement window also holds.
  PID-tagged multi-kernel interleavings
  (:mod:`repro.gpu.multikernel`) fold the PID into the tag key and
  resolve in the same recurrences.  All of them assume the buffer
  starts empty, so the replay takes fresh buffers only.

* **LRU inclusion property** — an access to a set-associative LRU cache
  hits iff its *stack distance* (distinct lines referenced in the same
  set since the previous reference to this line) is below the
  associativity.  Stack distances are computed offline: immediate
  same-line re-references collapse first (they are hits at any
  associativity and provably do not disturb other distances), windows
  shorter than the associativity short-circuit to hits, and the
  residual distances come from a windowed count over a merge-sort tree
  (:func:`window_counts`) whose depth is bounded by the longest
  window, built entirely from sorts and ``searchsorted`` — no
  per-event state machine.

* **Serve-order identity** — a load is served by exactly one of
  LHB / shared memory / L1 / L2 / DRAM, so the hierarchy's streams are
  plain boolean-mask filters of the trace once the LHB verdicts are
  known.

``LayerStats`` counters never depend on MSHR-merge attribution or on
the physical registers the LHB records, which is what keeps the closed
forms sufficient; the fast path fills the caller's
:class:`~repro.core.lhb.LHBStats` counters so introspection agrees with
the event path, but keeps no LHB entries.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.conv.layer import ConvLayerSpec
from repro.core.compiler import build_convolution_info
from repro.core.idgen import IDGenerator
from repro.core.lhb import LoadHistoryBuffer, vector_set_indices
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig, SimulationOptions, TITAN_V
from repro.gpu.isa import (
    KernelTrace,
    LOAD_A,
    LOAD_A_SHARED,
    LOAD_B_SHARED,
    LOAD_INPUT,
    STORE_D,
    WORKSPACE_BASE,
)
from repro.gpu.ldst import EliminationMode, load_ids_for
from repro.gpu.stats import LayerStats, MemoryBreakdown


# ----------------------------------------------------------------------
# Generic vectorised building blocks
# ----------------------------------------------------------------------

def stable_order(values: np.ndarray) -> np.ndarray:
    """Stable argsort tuned for int keys.

    A span that fits 16 bits (L1/L2 set indices, direct-mapped LHB
    sets) shifts to a ``uint16`` key, whose ``kind="stable"`` argsort
    is NumPy's radix sort — the fastest tier.  Wider int keys sort
    stably with timsort, ~4x slower than introsort, so when the value
    range permits we fold the position into a composite key —
    ``(value - min) * n + position`` — whose uniqueness makes the
    default sort's order stable by construction.  Extreme ranges
    (strict-mode element IDs) fall back to the stable kind — kept
    deliberately, and counted under ``fastpath.stable_sort_fallback``
    so the slow tier is observable.
    """
    n = len(values)
    if n < 2:
        return np.arange(n, dtype=np.int64)
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    if span <= (1 << 16):
        key = (values - np.int64(lo)).astype(np.uint16)
        return np.argsort(key, kind="stable")
    if span * n < (1 << 31):
        # Moderate ranges fit an int32 key, which introsorts another
        # ~30% faster than int64.
        key = (values - np.int64(lo)).astype(np.int32) * np.int32(n)
        key += np.arange(n, dtype=np.int32)
        return np.argsort(key)
    if span <= (1 << 62) // n:
        key = (values - np.int64(lo)) * np.int64(n) + np.arange(n, dtype=np.int64)
        return np.argsort(key)
    obs.add("fastpath.stable_sort_fallback")
    return np.argsort(values, kind="stable")


def distinct_count(values: np.ndarray) -> int:
    """Number of distinct values, via one introsort.

    ``np.unique`` on large int64 arrays routes through a hash table
    that benchmarks ~15x slower than sort-and-count-boundaries; the
    fast path only ever needs the cardinality, never the values.
    """
    if len(values) == 0:
        return 0
    s = np.sort(values)
    return int(np.count_nonzero(s[1:] != s[:-1])) + 1


def prev_in_group(group: np.ndarray) -> np.ndarray:
    """Index of the previous position carrying the same value (-1 if none).

    The workhorse of both recurrences: one stable argsort groups equal
    values while preserving stream order, and a shifted comparison
    links each position to its predecessor in the group.
    """
    n = len(group)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = stable_order(group)
    same = group[order[1:]] == group[order[:-1]]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def window_counts(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, thr: np.ndarray
) -> np.ndarray:
    """``counts[k] = #{lo[k] <= j <= hi[k] : values[j] < thr[k]}``.

    Contract: ``values`` and ``thr`` lie in ``[-1, m]`` where
    ``m = len(values)`` — previous- or next-occurrence indices, with
    ``m`` admitted as a "no next occurrence" sentinel.  Windows lie in
    ``[0, m)``; an empty or inverted one (``lo > hi``) counts zero.

    Offline 2D counting over a bottom-up merge-sort tree: the value
    array is sorted in place level by level (block size doubling each
    round), and each window splits into aligned blocks, taking at most
    one block from each end per level — exactly the iterative
    segment-tree walk.  A taken block resolves with one global
    ``searchsorted`` (the per-block sorted values are made globally
    monotone by adding ``block_index * offset``).  A window closes once
    its ends meet, and the merging stops when no window is still open,
    so the depth is bounded by the longest window, not the stream
    length.  Every pass is a sort of presorted halves or a binary
    search; nothing is per-event.
    """
    m = len(values)
    counts = np.zeros(len(lo), dtype=np.int64)
    # Half-open block bounds [a, b) at the current level, open windows
    # only; ``who`` maps them back to their query.
    a = np.asarray(lo, dtype=np.int64)
    b = np.asarray(hi, dtype=np.int64) + 1
    who = np.nonzero(a < b)[0]
    if len(who) == 0:
        return counts
    a, b = a[who], b[who]
    t = np.asarray(thr, dtype=np.int64)[who] + 1  # values shift by +1

    # A window still open at level s holds a whole 2^s block, so the
    # top level is the longest window's highest bit; padding the array
    # to a multiple of that block lets every level reshape.  Padding
    # slots are never inside a window, so their value is immaterial.
    top = int((b - a).max()).bit_length() - 1
    size = -(-m >> top) << top
    # Values shift to [0, m+1] so they stay int32 — the per-level sorts
    # are the hot loop, and int32 halves their memory traffic.
    vals = np.full(size, m + 1, dtype=np.int32)
    vals[:m] = values + 1
    off = np.int64(m + 2)
    slot_idx = np.arange(size, dtype=np.int64)
    aug = np.empty(size, dtype=np.int64)
    shift = 0
    while True:
        left = (a & 1) != 0  # block a, then a moves right
        right = (b & 1) != 0  # block b - 1, then b moves left
        blocks = np.concatenate([a[left], b[right] - 1])
        # Per-block offsets make the concatenation of all sorted
        # blocks globally monotone for one searchsorted.
        np.right_shift(slot_idx, shift, out=aug)
        aug *= off
        aug += vals
        found = np.searchsorted(
            aug, np.concatenate([t[left], t[right]]) + blocks * off,
            side="left",
        ) - (blocks << shift)
        n_left = int(np.count_nonzero(left))
        counts[who[left]] += found[:n_left]
        counts[who[right]] += found[n_left:]
        a = (a + 1) >> 1
        b >>= 1
        still = a < b
        if not still.any():
            return counts
        a, b, t, who = a[still], b[still], t[still], who[still]
        # Each next-level block is two sorted halves; the stable
        # sort's run detection turns the pass into a linear merge.
        shift += 1
        vals.reshape(size >> shift, 1 << shift).sort(axis=1, kind="stable")


def lru_hit_mask(lines: np.ndarray, set_mask: int, assoc: int) -> np.ndarray:
    """Exact per-access hit mask of an LRU set-associative cache.

    Implements the stack-distance characterisation: group the stream by
    set, collapse immediate same-line re-references (always hits, no
    state disturbance), short-circuit windows shorter than ``assoc``,
    and resolve the rest with one :func:`window_counts` pass over
    ``SD(i) = #{j in (p_i, i) : p_j < p_i}`` — the number of
    first-in-window references between an access and its previous
    same-line occurrence ``p_i``.
    """
    n = len(lines)
    hits = np.zeros(n, dtype=bool)
    if n == 0:
        return hits
    lines = np.asarray(lines, dtype=np.int64)
    sets = lines & np.int64(set_mask)

    order = stable_order(sets)
    s_lines = lines[order]

    # Immediate re-reference of the set's MRU line: hit at any assoc,
    # and removing it leaves every other stack distance unchanged.
    # Equal lines share a set, so equal neighbours are in one segment.
    collapse = np.zeros(n, dtype=bool)
    collapse[1:] = s_lines[1:] == s_lines[:-1]
    hits[order[collapse]] = True

    keep = ~collapse
    r_lines = s_lines[keep]
    r_orig = order[keep]
    m = len(r_lines)
    if m == 0:
        return hits

    prev = prev_in_group(r_lines)  # same line => same set => same segment
    has_prev = prev >= 0
    position = np.arange(m, dtype=np.int64)
    window = position - prev - 1

    quick = has_prev & (window < assoc)  # SD <= window length
    hits[r_orig[quick]] = True

    residual = has_prev & ~quick
    if assoc > 1 and residual.any():
        qi = position[residual]
        qt = prev[residual]
        # First-ever occurrences inside the window are distinct lines
        # for free: an O(1) lower bound that settles most queries
        # without touching the window count.
        csum = np.cumsum(prev < 0)
        alive = (csum[qi - 1] - csum[qt]) < assoc
        qi, qt = qi[alive], qt[alive]
        if len(qi):
            sd = window_counts(prev, qt + 1, qi - 1, qt)
            hits[r_orig[qi[sd < assoc]]] = True
    return hits


def windowed_distinct_counts(
    group: np.ndarray, tag: np.ndarray
) -> np.ndarray:
    """Per-access distinct-tag count inside the reuse window of its group.

    For each access ``i``, counts the distinct *other* tags that touched
    ``group[i]`` strictly between ``i`` and the previous access of
    ``tag[i]`` (any group); ``-1`` when the tag was never seen before.
    Contract: equal tags always carry equal groups (the LHB's set index
    is a function of the tag's element ID), so the window of an access
    lies entirely inside its group's block once the stream is
    set-grouped — the same decomposition :func:`lru_hit_mask` uses,
    except the raw stack distances are returned instead of being
    compared against an associativity.

    This is the geometry-profiling primitive of :mod:`repro.analytic`:
    with ``group`` = the set index at one power-of-two level, the
    returned distances decide LRU residency for *every* associativity
    at that set count.
    """
    n = len(tag)
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    order = stable_order(np.asarray(group, dtype=np.int64))
    s_tag = np.asarray(tag, dtype=np.int64)[order]
    prev_s = prev_in_group(s_tag)  # same tag => same group => same block
    ip = np.nonzero(prev_s >= 0)[0]
    if len(ip):
        qt = prev_s[ip]
        out[order[ip]] = window_counts(prev_s, qt + 1, ip - 1, qt)
    return out


# ----------------------------------------------------------------------
# LHB recurrence
# ----------------------------------------------------------------------

def lhb_tags(
    element: np.ndarray, batch: np.ndarray, pid: Optional[np.ndarray] = None
) -> np.ndarray:
    """Injective ``(element, batch[, pid])`` -> int64 LHB tag key.

    Batches and PIDs are small non-negative ints; elements may be
    negative (merged padding).
    """
    element = np.asarray(element, dtype=np.int64)
    if len(element) == 0:
        return element
    batch = np.asarray(batch, dtype=np.int64)
    tag = element * np.int64(int(batch.max()) + 1) + batch
    if pid is not None:
        pid = np.asarray(pid, dtype=np.int64)
        tag = tag * np.int64(int(pid.max()) + 1) + pid
    return tag


def simulate_lhb_stream(
    element: np.ndarray,
    batch: np.ndarray,
    lhb: LoadHistoryBuffer,
    pid: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Replay a lookup stream through a fresh ``lhb`` in closed form.

    Returns the per-lookup hit mask and fills ``lhb.stats`` with the
    exact counters the event path would produce.  The recurrences
    assume the buffer starts empty, so a used buffer raises
    ``ValueError``
    (:meth:`~repro.core.lhb.LoadHistoryBuffer.begin_closed_form`).

    ``pid`` carries the per-lookup process ID of a multi-kernel
    interleaving (:mod:`repro.gpu.multikernel`); omitted, all lookups
    share PID 0 (the single-kernel replay invariant) and the tag
    reduces to ``(element_id, batch_id)``.  The PID folds into the
    tag key only — set indexing stays a function of the element ID,
    exactly as :meth:`~repro.core.lhb.LoadHistoryBuffer._index`.
    """
    lhb.begin_closed_form()
    n = len(element)
    stats = lhb.stats
    stats.lookups += n
    if n == 0:
        return np.zeros(0, dtype=bool)
    element = np.asarray(element, dtype=np.int64)
    tag = lhb_tags(element, batch, pid)

    if not lhb.is_oracle and lhb.assoc > 1:
        return _set_associative_lhb_stream(element, tag, lhb)

    # One stable sort groups the lookups by set (tag, for the oracle);
    # every lookup's predecessor-in-set is then simply the previous
    # sorted neighbour, so the whole recurrence reduces to adjacent
    # pair comparisons in sorted space.
    group = (
        tag if lhb.is_oracle
        else vector_set_indices(element, lhb.num_sets, lhb.hashed_index)
    )
    order = stable_order(group)
    adjacent = group[order[1:]] == group[order[:-1]]  # has a predecessor
    if lhb.is_oracle:
        same_tag = adjacent
    else:
        s_tag = tag[order]
        same_tag = adjacent & (s_tag[1:] == s_tag[:-1])
    if lhb.lifetime is None:
        within = adjacent
    else:
        within = adjacent & ((order[1:] - order[:-1]) < lhb.lifetime)

    hit_pairs = same_tag & within
    hit = np.zeros(n, dtype=bool)
    hit[order[1:]] = hit_pairs
    n_hits = int(hit_pairs.sum())
    stats.hits += n_hits
    stats.misses += n - n_hits
    stats.expired_misses += int((same_tag & ~within).sum())
    if lhb.is_oracle:
        # Adjacency already chains same-tag accesses: the group leaders
        # are exactly the first-of-tag (compulsory) lookups.
        stats.compulsory_misses += n - int(adjacent.sum())
    else:
        stats.conflict_replacements += int(
            (adjacent & ~same_tag & within).sum()
        )
        # Each distinct tag misses compulsorily on its first lookup.
        stats.compulsory_misses += distinct_count(tag)
    return hit


def _set_associative_lhb_stream(
    element: np.ndarray,
    tag: np.ndarray,
    lhb: LoadHistoryBuffer,
) -> np.ndarray:
    """Offline per-set LRU resolution of a 2+-way LHB stream.

    The buffer's eviction rule — prefer a dead entry, else least
    ``last_use`` — *is* plain LRU: an entry is dead iff its last use
    is at least ``lifetime`` steps old, so every dead entry is older
    than every live one and ``min((alive, last_use))`` coincides with
    ``min(last_use)``.  The expired-tag path (remove + reallocate)
    likewise just refreshes the tag's recency.  Set membership is
    therefore the classic "``assoc`` most recently used distinct tags
    per set", and each counter has a closed form over stack distances:

    * **resident** — previous access to the tag exists and fewer than
      ``assoc`` distinct tags touched the set in between (LRU
      inclusion; counted by the same :func:`window_counts` pass as
      :func:`lru_hit_mask`);
    * **hit** — resident and the previous access is within the
      retirement window (stream positions — the LHB sequence number
      spans all sets);
    * **expired miss** — resident but outside the window (the entry is
      still in the set, so the event path finds-and-removes it);
    * **conflict replacement** — a miss of a non-resident tag in a
      full set (``assoc``-th distinct tag already seen) whose LRU
      victim is still live.  The victim is the ``assoc``-th most
      recently used distinct tag, so it is live iff at least ``assoc``
      distinct tags had their latest access inside the window — a
      windowed last-occurrence count, answered by one more
      :func:`window_counts` pass over next-occurrence indices.

    Compulsory misses are the distinct tags: the buffer starts empty.
    """
    n = len(tag)
    stats = lhb.stats
    assoc = lhb.assoc
    sets = vector_set_indices(element, lhb.num_sets, lhb.hashed_index)

    order = stable_order(sets)  # set-grouped, stream order within
    s_tag = tag[order]
    pos = np.arange(n, dtype=np.int64)
    prev_s = prev_in_group(s_tag)  # same tag => same set => same block
    has_prev = prev_s >= 0

    first = ~has_prev  # first-ever occurrence of the tag (== in-set)
    csum = np.cumsum(first)
    stats.compulsory_misses += int(csum[-1])

    # Residency: windows shorter than assoc short-circuit; first-ever
    # occurrences inside the window are distinct tags for free (an
    # O(1) stack-distance lower bound that settles most of the rest);
    # only the survivors pay for the window count of lru_hit_mask.
    window = pos - prev_s - 1  # same-set accesses strictly in between
    resident = has_prev & (window < assoc)
    residual = has_prev & ~resident
    if residual.any():
        qi = pos[residual]
        qt = prev_s[residual]
        alive = (csum[qi - 1] - csum[qt]) < assoc
        qi, qt = qi[alive], qt[alive]
        if len(qi):
            sd = window_counts(prev_s, qt + 1, qi - 1, qt)
            resident[qi[sd < assoc]] = True

    # Retirement window: gaps are stream positions (the LHB sequence
    # number counts every lookup, whichever set it lands in).
    within = np.zeros(n, dtype=bool)
    ip = np.nonzero(has_prev)[0]
    if lhb.lifetime is None:
        within[ip] = True
    else:
        within[ip] = (order[ip] - order[prev_s[ip]]) < lhb.lifetime

    hit_s = resident & within
    hit = np.zeros(n, dtype=bool)
    hit[order] = hit_s
    n_hits = int(hit_s.sum())
    stats.hits += n_hits
    stats.misses += n - n_hits
    stats.expired_misses += int((resident & ~within).sum())

    # Conflict replacements: misses of non-resident tags in full sets.
    s_sets = sets[order]
    new_block = np.ones(n, dtype=bool)
    new_block[1:] = s_sets[1:] != s_sets[:-1]
    block_id = np.cumsum(new_block) - 1
    bstart = pos[new_block][block_id]  # block start per sorted slot
    distinct_before = (csum - first) - (csum[bstart] - first[bstart])
    evict = ~resident & (distinct_before >= assoc)
    if evict.any():
        if lhb.lifetime is None:
            stats.conflict_replacements += int(evict.sum())
        else:
            ei = pos[evict]
            # Next same-tag occurrence per sorted slot (n = none).
            nxt = np.full(n, n, dtype=np.int64)
            nxt[prev_s[ip]] = ip
            # First in-window slot of each evicting miss's set block:
            # per-block offsets keep the (block, stream position) key
            # monotone for one global searchsorted.  Positions ascend
            # within each block and stay below n.
            big = np.int64(n + 1)
            aug = block_id * big + order
            first_in_window = np.searchsorted(
                aug, block_id[ei] * big + (order[ei] - lhb.lifetime),
                side="right",
            )
            # A window opening before the stream start underflows into
            # the previous set's block; the block start is the floor.
            first_in_window = np.maximum(first_in_window, bstart[ei])
            # Windows with fewer than assoc slots cannot hold assoc
            # live members — drop them before the counting pass.
            wide = (ei - first_in_window) >= assoc
            ei, first_in_window = ei[wide], first_in_window[wide]
            if len(ei):
                # Live members = distinct tags whose *latest* access
                # before the miss sits inside the window: slots j in
                # [first_in_window, ei) with no later same-tag slot
                # < ei.
                reappearing = window_counts(nxt, first_in_window, ei - 1, ei)
                live_members = (ei - first_in_window) - reappearing
                stats.conflict_replacements += int(
                    (live_members >= assoc).sum()
                )
    return hit


# ----------------------------------------------------------------------
# Full replay
# ----------------------------------------------------------------------

def _cat(parts, dtype):
    """Concatenate accumulated block slices into one read-only array."""
    if not parts:
        out = np.zeros(0, dtype=dtype)
    elif len(parts) == 1:
        out = parts[0]
    else:
        out = np.concatenate(parts)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class StreamTotals:
    """The scalar half of the fed streams: one trace's load mix, stores
    and workspace IDs under one mode.

    :meth:`layer_stats` is the one assembly of :class:`LayerStats`: the
    replay fills it from its recurrences, the analytic tier from its
    closed forms.
    """

    gpu: GPUConfig
    loads: int
    loads_a: int
    loads_input: int
    stores: int
    workspace_instructions: int
    unique_workspace_ids: int

    def layer_stats(
        self,
        mma_ops: int,
        lookups: int,
        hits: int,
        eliminated: int,
        l1_accesses: int,
        l1_hits: int,
        l2_hits: int,
        shared: int,
    ) -> LayerStats:
        """The traced prefix's stats, given what each level served."""
        l2_accesses = l1_accesses - l1_hits
        served_dram = l2_accesses - l2_hits
        return LayerStats(
            loads_total=self.loads,
            loads_workspace=self.loads_a,
            loads_filter=self.loads - self.loads_a - self.loads_input,
            loads_input=self.loads_input,
            stores=self.stores,
            workspace_instructions=self.workspace_instructions,
            lhb_lookups=lookups,
            lhb_hits=hits,
            eliminated_fragments=eliminated,
            unique_workspace_ids=self.unique_workspace_ids,
            l1_accesses=l1_accesses,
            l1_hits=l1_hits,
            l2_accesses=l2_accesses,
            l2_hits=l2_hits,
            dram_read_bytes=served_dram * self.gpu.l1_line_bytes,
            dram_write_bytes=self.stores * self.gpu.store_frag_bytes,
            mma_ops=mma_ops,
            breakdown=MemoryBreakdown(
                lhb=eliminated,
                l1=l1_hits,
                l2=l2_hits,
                dram=served_dram,
                shared=shared,
            ),
        )


@dataclass(frozen=True)
class _FedStreams:
    """The folded per-load streams of one trace under one mode.

    Everything the global recurrences read, as read-only arrays and
    scalars.  Nothing here depends on the LHB's geometry or state, so
    one instance serves every LHB configuration replayed on the same
    trace and mode — :meth:`finish` takes the buffer as an argument and
    never writes to the streams, which makes an instance safe to share
    between concurrent replays.
    """

    totals: StreamTotals
    l1_set_mask: int
    l1_assoc: int
    l2_set_mask: int
    l2_assoc: int
    consult: np.ndarray  # bool, per load (empty without lookups)
    shared: np.ndarray  # bool, per load
    lines: np.ndarray  # int64 L1 line IDs, per non-shared load
    element: np.ndarray  # int64, per lookup-candidate position
    batch: np.ndarray
    first: Optional[np.ndarray]  # bool, per load (instruction granularity)

    def hierarchy(self, eliminated: np.ndarray) -> Tuple[int, int, int]:
        """``(l1_accesses, l1_hits, l2_hits)`` of the L1→L2 LRU pass over
        the global loads that the per-load mask ``eliminated`` leaves."""
        lines = self.lines[~eliminated[~self.shared]]
        l1_hit = lru_hit_mask(lines, self.l1_set_mask, self.l1_assoc)
        l2_hit = lru_hit_mask(lines[~l1_hit], self.l2_set_mask, self.l2_assoc)
        return len(lines), int(l1_hit.sum()), int(l2_hit.sum())

    def finish(
        self, lhb: Optional[LoadHistoryBuffer], mma_ops: int
    ) -> LayerStats:
        """Run the global recurrences (LHB, LRU stack distances)."""
        eliminated = np.zeros(self.totals.loads, dtype=bool)
        if lhb is not None:
            consults = self.consult
            if self.first is not None:
                group = np.cumsum(self.first) - 1
                looked_up = consults[self.first]
                hit = simulate_lhb_stream(
                    self.element[looked_up], self.batch[looked_up], lhb
                )
                group_hit = np.zeros(len(self.element), dtype=bool)
                group_hit[looked_up] = hit
                eliminated = group_hit[group]
            else:
                idx = np.nonzero(consults)[0]
                eliminated[idx] = simulate_lhb_stream(
                    self.element, self.batch, lhb
                )
        l1_accesses, l1_hits, l2_hits = self.hierarchy(eliminated)
        return self.totals.layer_stats(
            mma_ops,
            lookups=lhb.stats.lookups if lhb is not None else 0,
            hits=lhb.stats.hits if lhb is not None else 0,
            eliminated=int(eliminated.sum()),
            l1_accesses=l1_accesses,
            l1_hits=l1_hits,
            l2_hits=l2_hits,
            shared=int((self.shared & ~eliminated).sum()),
        )


class _StreamAccumulator:
    """Folds trace blocks into the compact streams the replay consumes.

    The closed-form replay needs only a few *derived* per-load streams
    — consult flags, (element, batch) lookup IDs, L1 line IDs,
    workspace-unique keys — each a fraction of the full four trace
    columns.  Feeding the trace block by block keeps peak memory at
    (derived streams + one block) instead of (full columns + derived
    streams): blocks are dropped as soon as their slice is folded.

    Bit-identity with :func:`replay_trace_fast` on a materialised
    trace is by construction: every per-block pass is elementwise (or
    carries its one-value boundary state — the previous instruction ID
    — across blocks), so concatenating per-block outputs equals the
    whole-column computation, and :meth:`_FedStreams.finish` then runs
    the very same global recurrences (LHB, LRU stack distances) on the
    assembled streams.  ``replay_trace_fast`` itself feeds the full
    trace as a single block through this class.

    ``lookups`` says whether an LHB will consult the streams; without
    one, no lookup IDs are kept.
    """

    def __init__(
        self,
        spec: ConvLayerSpec,
        lda: int,
        gpu: GPUConfig,
        options: SimulationOptions,
        mode: EliminationMode,
        lookups: bool,
    ):
        self.spec = spec
        self.lda = lda
        self.options = options
        self.mode = mode
        self.lookups = lookups

        self.l1 = SetAssociativeCache(
            gpu.l1_bytes, gpu.l1_assoc, gpu.l1_line_bytes,
            mshr_window=gpu.l1_latency,
        )
        self.l2 = SetAssociativeCache(
            gpu.l2_bytes, gpu.l2_assoc, gpu.l2_line_bytes
        )
        self._gpu = gpu

        self._instruction = (
            lookups and options.lhb_granularity != "fragment"
        )
        # The DUPLO+fragment replay reuses its own translated IDs for
        # the workspace-unique accounting; every other configuration
        # translates the A-load bases with a dedicated generator,
        # exactly as ldst.workspace_unique_ids.
        self._ws_shortcut = (
            mode is EliminationMode.DUPLO
            and options.lhb_granularity == "fragment"
        )
        if not self._ws_shortcut:
            info = build_convolution_info(
                spec, WORKSPACE_BASE, lda=lda, pid=options.pid
            )
            self._ws_idgen = IDGenerator(
                spec=spec,
                workspace_base=info.workspace_base,
                lda=info.lda,
                element_bytes=gpu.element_bytes,
                mode=options.id_mode,
                merge_padding=options.merge_padding,
                row_align=gpu.tile_m,
            )

        self.events = 0
        self._stores = 0
        self._loads = 0
        self._loads_a = 0
        self._loads_input = 0
        self._consult: list = []  # bool, per load
        self._shared: list = []  # bool, per load
        self._lines: list = []  # int64 L1 line IDs, per non-shared load
        self._element: list = []  # int64, per lookup-candidate position
        self._batch: list = []
        self._first: list = []  # bool, per load (instruction granularity)
        self._prev_instr: Optional[int] = None
        self._ws_keys: list = []  # int64 translated workspace keys
        self._ws_untranslated = 0
        self._ws_instrs = 0
        self._prev_a_instr: Optional[int] = None

    def feed(
        self, kind: np.ndarray, address: np.ndarray, instr: np.ndarray
    ) -> None:
        """Fold one block's columns into the accumulated streams."""
        self.events += len(kind)
        is_load = kind != STORE_D
        load_kind = kind[is_load]
        load_addr = address[is_load]
        n = len(load_kind)
        self._stores += len(kind) - n
        self._loads += n
        is_a = (load_kind == LOAD_A) | (load_kind == LOAD_A_SHARED)
        self._loads_a += int(is_a.sum())
        self._loads_input += int((load_kind == LOAD_INPUT).sum())

        consults, batch, element = load_ids_for(
            self.spec, self.options, self.mode, load_kind, load_addr,
            self.lda, self._gpu,
        )
        is_shared = (load_kind == LOAD_A_SHARED) | (load_kind == LOAD_B_SHARED)
        self._shared.append(is_shared)
        self._lines.append(load_addr[~is_shared] >> self.l1.line_shift)

        if self.lookups:
            self._consult.append(consults)
            if self._instruction:
                load_instr = instr[is_load]
                first = np.ones(n, dtype=bool)
                if n:
                    first[1:] = load_instr[1:] != load_instr[:-1]
                    if self._prev_instr is not None:
                        first[0] = load_instr[0] != self._prev_instr
                    self._prev_instr = int(load_instr[-1])
                self._first.append(first)
                self._element.append(element[first])
                self._batch.append(batch[first])
            else:
                self._element.append(element[consults])
                self._batch.append(batch[consults])

        if self._ws_shortcut:
            translated = is_a & consults
            self._ws_keys.append(
                batch[translated] * (1 << 44) + element[translated]
            )
            self._ws_untranslated += int((is_a & ~consults).sum())
            self._ws_instrs += int(is_a.sum())
        else:
            a_addr = load_addr[is_a]
            if self.options.lhb_granularity == "fragment":
                bases_addr = a_addr
            else:
                a_instr = instr[is_load][is_a]
                first_a = np.ones(len(a_addr), dtype=bool)
                if len(a_addr):
                    first_a[1:] = a_instr[1:] != a_instr[:-1]
                    if self._prev_a_instr is not None:
                        first_a[0] = a_instr[0] != self._prev_a_instr
                    self._prev_a_instr = int(a_instr[-1])
                bases_addr = a_addr[first_a]
            if len(bases_addr):
                ok, b, e = self._ws_idgen.generate_for_addresses(bases_addr)
                self._ws_keys.append(b[ok] * (1 << 44) + e[ok])
                self._ws_untranslated += int((~ok).sum())
                self._ws_instrs += len(bases_addr)

    def streams(self) -> _FedStreams:
        """Assemble the fed blocks into read-only streams.

        Every untranslated workspace load counts as its own unique ID.
        """
        totals = StreamTotals(
            gpu=self._gpu,
            loads=self._loads,
            loads_a=self._loads_a,
            loads_input=self._loads_input,
            stores=self._stores,
            workspace_instructions=self._ws_instrs,
            unique_workspace_ids=(
                distinct_count(_cat(self._ws_keys, np.int64))
                + self._ws_untranslated
            ),
        )
        return _FedStreams(
            totals=totals,
            l1_set_mask=self.l1.set_mask,
            l1_assoc=self.l1.assoc,
            l2_set_mask=self.l2.set_mask,
            l2_assoc=self.l2.assoc,
            consult=_cat(self._consult, bool),
            shared=_cat(self._shared, bool),
            lines=_cat(self._lines, np.int64),
            element=_cat(self._element, np.int64),
            batch=_cat(self._batch, np.int64),
            first=_cat(self._first, bool) if self._instruction else None,
        )


# ----------------------------------------------------------------------
# Per-thread trace slot
# ----------------------------------------------------------------------

#: Each thread's slot, ``_fed_memo.entry = [epoch, trace_key, trace,
#: fed]``: the trace it last replayed, under the simulator's trace key,
#: and ``fed = (mode, streams)``, the streams last folded from it.  One
#: slot per thread bounds residency to one trace and one fed stream
#: set per worker, and thread-local storage makes it lock-free.
_fed_memo = threading.local()
#: Bumped by :func:`clear_fed_memo`, so a clear reaches every thread's
#: slot (a slot from an older epoch never hits).
_fed_epochs = itertools.count()
_fed_epoch = next(_fed_epochs)


def clear_fed_memo() -> None:
    """Empty every thread's slot."""
    global _fed_epoch
    _fed_epoch = next(_fed_epochs)
    _fed_memo.__dict__.clear()


def release_fed_memo() -> None:
    """Empty the calling thread's slot.

    The sweep executor calls this when a chunk ends: a chunk is one
    layer, so the next chunk never reuses its trace or streams, and a
    long-lived thread (a serve job worker) then holds none between
    chunks.
    """
    _fed_memo.__dict__.pop("entry", None)


def _slot_entry(trace_key):
    """The calling thread's slot if it is current and holds ``trace_key``."""
    entry = getattr(_fed_memo, "entry", None)
    if entry is not None and entry[0] == _fed_epoch and entry[1] == trace_key:
        return entry
    return None


def held_trace(trace_key, synthesize) -> KernelTrace:
    """The calling thread's trace under ``trace_key``.

    On a miss the slot is emptied first, so a thread never holds two
    traces at once, and then takes ``synthesize()``'s trace.
    """
    entry = _slot_entry(trace_key)
    if entry is not None:
        return entry[2]
    _fed_memo.entry = None
    epoch = _fed_epoch
    trace = synthesize()
    _fed_memo.entry = [epoch, trace_key, trace, None]
    return trace


def fed_streams(
    trace: KernelTrace,
    spec: ConvLayerSpec,
    gpu: GPUConfig,
    options: SimulationOptions,
    mode: EliminationMode,
    trace_key=None,
) -> _FedStreams:
    """``trace``'s streams folded under ``mode``, memoised in the slot.

    ``trace_key`` is a hashable identity of ``trace`` together with
    ``spec``, ``gpu`` and ``options`` (the simulator passes its trace
    key): the slot keeps the trace and its streams under ``(trace_key,
    mode)``.  A fed stream set replaces the previous one, and a trace
    the slot does not hold replaces the slot's trace.
    ``trace_key=None`` bypasses the slot.  The baseline keeps no
    lookup IDs.
    """
    def feed() -> _FedStreams:
        acc = _StreamAccumulator(
            spec, trace.lda, gpu, options, mode,
            mode is not EliminationMode.BASELINE,
        )
        acc.feed(trace.kind, trace.address, trace.instr)
        return acc.streams()

    if trace_key is None:
        return feed()
    entry = _slot_entry(trace_key)
    if entry is None:
        _fed_memo.entry = None
        entry = [_fed_epoch, trace_key, trace, None]
    elif entry[3] is not None and entry[3][0] == mode:
        obs.add("fastpath.fed_reuses")
        return entry[3][1]
    entry[3] = None
    streams = feed()
    entry[3] = (mode, streams)
    _fed_memo.entry = entry
    return streams


def replay_blocks_fast(
    blocks,
    meta,
    spec: ConvLayerSpec,
    gpu: GPUConfig = TITAN_V,
    options: SimulationOptions = SimulationOptions(),
    mode: EliminationMode = EliminationMode.DUPLO,
    lhb: Optional[LoadHistoryBuffer] = None,
) -> LayerStats:
    """Blockwise twin of :func:`replay_trace_fast`.

    ``blocks`` is any iterable of :class:`~repro.gpu.isa.TraceBlock`
    (:meth:`repro.gpu.kernel.TracePlan.iter_blocks` generates them).
    ``meta`` carries the scalar trace fields (a dict from
    ``TracePlan.meta()``).  Results are bit-identical to the
    in-memory replay whatever the block size.
    """
    if mode is not EliminationMode.BASELINE and lhb is None:
        lhb = LoadHistoryBuffer(lifetime=options.lhb_lifetime)
    acc = _StreamAccumulator(
        spec, int(meta["lda"]), gpu, options, mode, lhb is not None
    )
    for block in blocks:
        acc.feed(
            np.asarray(block.kind), np.asarray(block.address),
            np.asarray(block.instr),
        )
    obs.add("fastpath.replays")
    obs.add("fastpath.events", acc.events)
    return acc.streams().finish(lhb, int(meta["mma_ops"]))


def replay_trace_fast(
    trace: KernelTrace,
    spec: ConvLayerSpec,
    gpu: GPUConfig = TITAN_V,
    options: SimulationOptions = SimulationOptions(),
    mode: EliminationMode = EliminationMode.DUPLO,
    lhb: Optional[LoadHistoryBuffer] = None,
    trace_key=None,
) -> LayerStats:
    """Vectorised, bit-identical drop-in for ``replay_trace``.

    Covers every configuration the event path does.  A caller-supplied
    ``lhb`` must be fresh: a used buffer raises ``ValueError``.

    ``trace_key`` keys the calling thread's slot (:func:`fed_streams`),
    so consecutive replays of one trace and mode — an LHB size or
    associativity sweep — feed it once.
    """
    if mode is not EliminationMode.BASELINE and lhb is None:
        lhb = LoadHistoryBuffer(lifetime=options.lhb_lifetime)
    obs.add("fastpath.replays")
    obs.add("fastpath.events", int(trace.kind.size))
    streams = fed_streams(trace, spec, gpu, options, mode, trace_key)
    return streams.finish(lhb, trace.mma_ops)
