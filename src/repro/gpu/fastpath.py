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
  oracle buffer, which reads its hits straight off the stream's
  previous-same-tag link.  Set-associative LHBs (Figure 12's 2/4/8-way
  sweep) resolve offline too: the buffer's dead-entry-preferring
  eviction *is* plain LRU (an expired entry's ``last_use`` is always
  older than any live entry's, so ``min(alive, last_use)`` equals
  ``min(last_use)``), which restores the stack-distance
  characterisation — an entry is still resident iff fewer than
  ``assoc`` distinct tags touched its set since its previous access,
  and a resident entry hits iff its retirement window also holds.  In
  set order a lookup that repeats its predecessor's tag is at stack
  distance 0, so only the head of each run of one tag takes one capped
  walk, which returns its LRU victim as well.  The geometry-independent
  tag facts — the link and the count of first occurrences — are built
  once per fold (:class:`TagLinks`) and shared by every geometry's
  replay.  PID-tagged multi-kernel interleavings
  (:mod:`repro.gpu.multikernel`) fold the PID into the tag key and
  resolve in the same recurrences.  All of them assume the buffer
  starts empty, so the replay takes fresh buffers only.

* **LRU inclusion property** — an access to a set-associative LRU cache
  hits iff its *stack distance* (distinct lines referenced in the same
  set since the previous reference to this line) is below the
  associativity.  Stack distances are decided offline: immediate
  same-line re-references collapse first (they are hits at any
  associativity and provably do not disturb other distances), windows
  shorter than the associativity short-circuit to hits, and each
  residual window is walked back from its end over next-occurrence
  links (:func:`stack_depths`) until ``assoc`` distinct lines are
  seen — the walk descends the set's LRU stack, so a stream's walks
  read O(assoc) slots per access in all, in doubling vectorised
  strides with no per-event state machine.  Cache associativities
  above ``WALK_MAX_CAP`` take the exact windowed count of a merge-sort
  tree (:func:`window_counts`) instead, which also serves the analytic
  tier's raw distances (:func:`windowed_distinct_counts`); the LHB
  walks at every associativity.

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
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.conv.layer import ConvLayerSpec
from repro.core.lhb import LoadHistoryBuffer, vector_set_indices
from repro.gpu.cache import cache_geometry
from repro.gpu.config import GPUConfig, SimulationOptions, TITAN_V
from repro.gpu.isa import (
    KernelTrace,
    LOAD_A,
    LOAD_A_SHARED,
    LOAD_B_SHARED,
    LOAD_INPUT,
    STORE_D,
)
from repro.gpu.ldst import (
    EliminationMode,
    default_lhb,
    fragment_ids,
    load_ids_for,
)
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
    if n < 2:
        return np.full(n, -1, dtype=np.int64)
    order = stable_order(group)
    grouped = group[order]
    prev = np.empty(n, dtype=np.int64)
    prev[order[0]] = -1
    prev[order[1:]] = np.where(grouped[1:] == grouped[:-1], order[:-1], -1)
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


#: Cache caps above this resolve on the merge-sort tree
#: (:func:`window_counts`) instead of :func:`stack_depths`: the walk
#: reads O(m * cap) slots and the tree O(m log w).  Over L1 line streams
#: and Zipf streams in 64 sets, the walk won at every cap up to 32 and
#: lost from 48 or 64 on, so the L2's 24-way stays on the walk.  The
#: LHB walks at every associativity, because the walk also names the
#: victim (:func:`stack_slots`), which the tree cannot.
WALK_MAX_CAP = 32
#: Slots one vectorised walk step gathers at most (windows x stride),
#: so a step's temporaries stay a few MB whatever the query count.
_WALK_STEP_SLOTS = 1 << 18


def next_in_group(prev: np.ndarray) -> np.ndarray:
    """``nxt[j]``: the next position carrying slot ``j``'s value
    (``len(prev)`` if none), from :func:`prev_in_group`'s links."""
    m = len(prev)
    nxt = np.full(m, m, dtype=np.int64)
    linked = np.nonzero(prev >= 0)[0]
    nxt[prev[linked]] = linked
    return nxt


def _stack_walk(
    nxt: np.ndarray, lo: np.ndarray, hi: np.ndarray, cap: int, slots: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The capped walk down the LRU stack behind :func:`stack_depths`
    and :func:`stack_slots`: per window, its distinct-value count (at
    least ``cap`` once it stops early) and, if ``slots``, the slot where
    the ``cap``-th distinct value was met (``-1`` if fewer).

    ``nxt[j]`` is the next slot holding slot ``j``'s value
    (``len(nxt)`` if none), so slot ``j`` is its value's last
    occurrence in the window — one distinct value — iff
    ``nxt[j] > hi``.  Each window is walked back from ``hi``, which
    visits those last occurrences in LRU-stack order, and leaves once
    it has seen ``cap`` values or reached ``lo``; an empty or inverted
    window (``lo > hi``) counts zero.  Strides double from 8, so a
    window reads fewer than twice the slots a one-by-one walk would,
    plus 8, and each vectorised step gathers at most
    ``_WALK_STEP_SLOTS`` slots.  The slots gathered add to the
    ``fastpath.walk_slots`` counter.

    On the windows the replay asks about, the walks stay linear in
    the stream.  Each window ends just before a query access and opens
    after the query value's previous occurrence (residency), at its
    set's start for a first occurrence (the LHB's compulsory miss into
    a full set), or belongs to a query that is not resident.  Either
    way the walks that read one slot belong to queries with distinct
    values, all inside the span the last of them walked, so at most
    ``cap`` walks read a slot: ``Q`` windows over ``m`` slots gather at
    most ``2 * cap * m + 8 * Q`` slots.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    depth = np.zeros(len(lo), dtype=np.int64)
    slot = np.full(len(lo), -1, dtype=np.int64) if slots else None
    active = np.nonzero(lo <= hi)[0]
    end = hi + 1  # exclusive: the walk reads down from end - 1
    stride = 8
    read = 0
    while len(active):
        back = np.arange(1, stride + 1, dtype=np.int64)
        rows = _WALK_STEP_SLOTS // stride
        for c in range(0, len(active), rows):
            w = active[c:c + rows]
            idx = end[w, None] - back
            seen = np.take(nxt, idx, mode="clip") > hi[w, None]
            seen &= idx >= lo[w, None]
            count = np.count_nonzero(seen, axis=1)
            read += idx.size
            if slots:
                # A window reaches the cap in one step only, at its row's
                # (cap - depth)-th seen slot: rows list their seen slots
                # in order, each row's after the rows before it.
                up = np.flatnonzero(depth[w] + count >= cap)
                if len(up):
                    at = np.cumsum(count) - count + (cap - 1 - depth[w])
                    flat = np.flatnonzero(seen)[at[up]]
                    slot[w[up]] = idx.ravel()[flat]
            depth[w] += count
        end[active] -= stride
        active = active[(depth[active] < cap) & (end[active] > lo[active])]
        stride = min(2 * stride, _WALK_STEP_SLOTS)
    obs.add("fastpath.walk_slots", read)
    return depth, slot


def stack_depths(
    nxt: np.ndarray, lo: np.ndarray, hi: np.ndarray, cap: int
) -> np.ndarray:
    """``min(#distinct values in slots [lo[k], hi[k]], cap)`` per window,
    by the capped walk down the LRU stack (:func:`_stack_walk`)."""
    return np.minimum(_stack_walk(nxt, lo, hi, cap, False)[0], cap)


def stack_slots(
    nxt: np.ndarray, lo: np.ndarray, hi: np.ndarray, cap: int
) -> np.ndarray:
    """Per window ``[lo[k], hi[k]]``, the slot of the ``cap``-th distinct
    value met walking down from ``hi`` — the last use of the LRU entry
    an ``assoc = cap`` set evicts next — or ``-1`` if the window holds
    fewer than ``cap`` distinct values.  Same walk and bound as
    :func:`stack_depths`."""
    return _stack_walk(nxt, lo, hi, cap, True)[1]


def _holds_at_least(
    nxt: np.ndarray, lo: np.ndarray, hi: np.ndarray, cap: int
) -> np.ndarray:
    """Whether each window ``[lo, hi]`` holds at least ``cap`` distinct
    values, for :func:`lru_hit_mask`: :func:`stack_depths` up to
    ``WALK_MAX_CAP``, the exact count of the merge-sort tree above it
    (windows non-empty).  The LHB walks at every associativity
    (:func:`stack_slots`)."""
    if cap <= WALK_MAX_CAP:
        return stack_depths(nxt, lo, hi, cap) >= cap
    reappearing = window_counts(nxt, lo, hi, hi + 1)
    return (hi - lo + 1) - reappearing >= cap


def lru_hit_mask(lines: np.ndarray, set_mask: int, assoc: int) -> np.ndarray:
    """Exact per-access hit mask of an LRU set-associative cache.

    Implements the stack-distance characterisation: group the stream by
    set, collapse immediate same-line re-references (always hits, no
    state disturbance), short-circuit windows shorter than ``assoc``,
    and decide the rest by whether the window between an access and
    its previous same-line occurrence holds ``assoc`` distinct lines
    (:func:`stack_depths`, capped at ``assoc``).
    """
    n = len(lines)
    hits = np.empty(n, dtype=bool)
    if n == 0:
        return hits
    lines = np.asarray(lines, dtype=np.int64)
    order = stable_order(lines & np.int64(set_mask))
    s_lines = lines[order]

    # Immediate re-reference of the set's MRU line: hit at any assoc,
    # and removing it leaves every other stack distance unchanged.
    # Equal lines share a set, so equal neighbours are in one segment.
    # Verdicts stay in set order until the one scatter at the end.
    s_hits = np.zeros(n, dtype=bool)
    s_hits[1:] = s_lines[1:] == s_lines[:-1]
    kept = np.flatnonzero(~s_hits)

    prev = prev_in_group(s_lines[kept])  # same line => same segment
    has_prev = prev >= 0
    position = np.arange(len(kept), dtype=np.int64)
    window = position - prev - 1

    hit = has_prev & (window < assoc)  # SD <= window length
    residual = has_prev & ~hit
    if assoc > 1 and residual.any():
        qi = position[residual]
        full = _holds_at_least(
            next_in_group(prev), prev[residual] + 1, qi - 1, assoc
        )
        hit[qi[~full]] = True
    s_hits[kept] = hit
    hits[order] = s_hits
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


class TagLinks:
    """The geometry-independent tag facts of one lookup stream.

    The link and the count are built on first use and then kept, so
    the replays of every LHB geometry on one fold share them, and a
    fold that no replay links never pays for the link:

    * ``tag`` — :func:`lhb_tags` of the stream, rebuilt per call (one
      multiply-add), so a fold holds no tag column between replays;
    * ``prev`` — per lookup, the stream position of the previous lookup
      of its tag (``-1`` for the first), from one stable grouping;
    * ``firsts`` — the number of first occurrences, i.e. distinct tags:
      the fold's unique workspace IDs and every geometry's compulsory
      misses.  It is counted off ``prev`` once that exists, and by
      :func:`distinct_count` otherwise.

    Concurrent first uses may both build a fact; they build equal
    arrays, so an instance is safe to share between threads.
    """

    def __init__(
        self,
        element: np.ndarray,
        batch: np.ndarray,
        pid: Optional[np.ndarray] = None,
    ):
        self.element = element
        self.batch = batch
        self._pid = pid
        self._prev: Optional[np.ndarray] = None
        self._firsts: Optional[int] = None

    @property
    def tag(self) -> np.ndarray:
        return lhb_tags(self.element, self.batch, self._pid)

    @property
    def prev(self) -> np.ndarray:
        if self._prev is None:
            self._prev = prev_in_group(self.tag)
        return self._prev

    @property
    def firsts(self) -> int:
        if self._firsts is None:
            if self._prev is None:
                self._firsts = distinct_count(self.tag)
            else:
                self._firsts = int(np.count_nonzero(self._prev < 0))
        return self._firsts


def simulate_lhb_stream(
    element: np.ndarray,
    batch: np.ndarray,
    lhb: LoadHistoryBuffer,
    pid: Optional[np.ndarray] = None,
    links: Optional[TagLinks] = None,
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

    ``links`` are the stream's :class:`TagLinks` when the caller keeps
    them across replays (a trace's fold does); omitted, the call
    builds its own from the raw stream.
    """
    lhb.begin_closed_form()
    n = len(element)
    stats = lhb.stats
    stats.lookups += n
    if n == 0:
        return np.zeros(0, dtype=bool)
    element = np.asarray(element, dtype=np.int64)
    if links is None:
        links = TagLinks(element, batch, pid)

    if lhb.is_oracle:
        # Every tag keeps its entry: a lookup hits iff its tag was
        # looked up before, within the retirement window.
        prev = links.prev
        seen = prev >= 0
        within = seen
        if lhb.lifetime is not None:
            within = seen & (np.arange(n, dtype=np.int64) - prev < lhb.lifetime)
        n_hits = int(np.count_nonzero(within))
        stats.hits += n_hits
        stats.misses += n - n_hits
        stats.expired_misses += int(np.count_nonzero(seen)) - n_hits
        # Each distinct tag misses compulsorily on its first lookup
        # (counted off the link, once it exists).
        stats.compulsory_misses += links.firsts
        return within

    if lhb.assoc > 1:
        hit = _set_associative_lhb_stream(element, links, lhb)
        stats.compulsory_misses += links.firsts
        return hit

    # One stable sort groups the lookups by set; every lookup's
    # predecessor-in-set is then simply the previous sorted neighbour,
    # so the whole recurrence reduces to adjacent pair comparisons in
    # sorted space.
    group = vector_set_indices(element, lhb.num_sets, lhb.hashed_index)
    order = stable_order(group)
    adjacent = group[order[1:]] == group[order[:-1]]  # has a predecessor
    s_tag = links.tag[order]
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
    stats.conflict_replacements += int((adjacent & ~same_tag & within).sum())
    stats.compulsory_misses += links.firsts
    return hit


def _set_associative_lhb_stream(
    element: np.ndarray,
    links: TagLinks,
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
    per set", decided over the set-grouped stream:

    * **run members** — a lookup whose set-order predecessor carries
      the same tag is at stack distance 0: resident at any
      associativity, it never evicts, and it hits iff its stream gap
      to that predecessor is under the lifetime (else an expired
      miss).  Octet dual-loads make about half of a large layer's
      lookups such members.
    * **run heads** — the first lookup of each run of one tag.  A head
      whose previous run of its tag is fewer than ``assoc`` runs back
      is resident.  Every other head takes one capped walk over the
      run stream (:func:`stack_slots`), from the previous run of its
      tag + 1, or from its set's start for a compulsory miss into a
      full set (``assoc`` distinct tags already seen), returning the
      run of the ``assoc``-th distinct tag below it.  No such run
      means resident: a hit iff the gap from the previous run's last
      lookup is under the lifetime, else an expired miss.  Otherwise
      the head misses and evicts that run's tag, the LRU entry, which
      is a **conflict replacement** iff still live: head position −
      the run's last position < lifetime.  With no lifetime every
      eviction counts, so the walk's slot goes unread.

    The previous-same-tag link comes from ``links`` (stream order) and
    maps into set order by gathers: equal tags share a set, and the
    stable sort keeps stream order within each set.  Compulsory misses
    are the distinct tags, which the caller counts.
    """
    n = len(element)
    stats = lhb.stats
    assoc = lhb.assoc
    lifetime = lhb.lifetime
    sets = vector_set_indices(element, lhb.num_sets, lhb.hashed_index)
    order = stable_order(sets)  # set-grouped, stream order within
    prev_pos = links.prev[order]  # stream position of the tag's previous lookup

    member = np.zeros(n, dtype=bool)
    member[1:] = prev_pos[1:] == order[:-1]
    heads = np.flatnonzero(~member)  # set slot of each run's head
    runs = len(heads)
    first_pos = order[heads]  # stream position of each run's head
    last_pos = np.empty(runs, dtype=np.int64)  # ... and of its last lookup
    last_pos[:-1] = order[heads[1:] - 1]
    last_pos[-1] = order[-1]

    # Members: stack distance 0, so the lifetime alone decides.
    hit_s = member.copy()
    if lifetime is not None:
        mi = np.flatnonzero(member)
        hit_s[mi] = order[mi] - order[mi - 1] < lifetime
    member_hits = int(np.count_nonzero(hit_s))

    # Heads: the previous run of each head's tag, by its last position.
    run_of_last = np.empty(n, dtype=np.int64)
    run_of_last[last_pos] = np.arange(runs, dtype=np.int64)
    head_prev = prev_pos[heads]
    prev_run = np.where(head_prev >= 0, run_of_last[head_prev], -1)
    seen = np.flatnonzero(prev_run >= 0)
    wide = seen[seen - prev_run[seen] > assoc]  # >= assoc runs between

    # Compulsory heads: the set is full once assoc distinct tags, each
    # first seen at a compulsory head, precede the head in its set.
    compulsory = np.flatnonzero(prev_run < 0)
    c_set = sets[first_pos[compulsory]]
    new_set = np.ones(len(compulsory), dtype=bool)
    new_set[1:] = c_set[1:] != c_set[:-1]
    rank = np.arange(len(compulsory), dtype=np.int64)
    set_first = np.maximum.accumulate(np.where(new_set, rank, 0))
    full = rank - set_first >= assoc

    evictions = 0
    queries, lo = wide, prev_run[wide] + 1
    if lifetime is None:
        # Every eviction counts, so a compulsory miss needs no victim.
        evictions += int(np.count_nonzero(full))
    else:
        queries = np.concatenate([queries, compulsory[full]])
        lo = np.concatenate([lo, compulsory[set_first[full]]])
    resident = np.ones(runs, dtype=bool)
    if len(queries):
        victim = stack_slots(next_in_group(prev_run), lo, queries - 1, assoc)
        evicts = victim >= 0
        resident[queries[evicts]] = False
        if lifetime is None:
            evictions += int(np.count_nonzero(evicts))
        else:
            age = first_pos[queries[evicts]] - last_pos[victim[evicts]]
            evictions += int(np.count_nonzero(age < lifetime))
    stats.conflict_replacements += evictions

    stay = seen[resident[seen]]
    head_hit = stay
    if lifetime is not None:
        head_hit = stay[first_pos[stay] - last_pos[prev_run[stay]] < lifetime]
    hit_s[heads[head_hit]] = True
    n_hits = member_hits + len(head_hit)
    stats.hits += n_hits
    stats.misses += n - n_hits
    stats.expired_misses += (n - runs - member_hits) + len(stay) - len(head_hit)

    hit = np.empty(n, dtype=bool)
    hit[order] = hit_s
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
    and workspace IDs, the same under every mode.

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
    """The folded per-load streams of one trace, viewed under one mode.

    Everything the global recurrences read, as read-only arrays and
    scalars.  A trace is folded once, whatever the mode
    (:class:`_StreamAccumulator`), into DUPLO's view; :meth:`for_mode`
    derives the others from it.  Nothing here depends on the LHB's
    geometry or state, so one fold serves every mode and LHB
    configuration replayed on the same trace — :meth:`finish` takes
    the buffer as an argument and never writes to the streams, which
    makes an instance safe to share between concurrent replays.
    """

    totals: StreamTotals
    l1_set_mask: int
    l1_assoc: int
    l2_set_mask: int
    l2_assoc: int
    consult: np.ndarray  # bool, per load (empty without lookups)
    shared: np.ndarray  # bool, per load
    lines: np.ndarray  # int64 L1 line IDs, per non-shared load
    links: TagLinks  # the LHB lookups (element, batch) and their tag facts
    first: Optional[np.ndarray]  # bool, per load (instruction granularity)

    @property
    def element(self) -> np.ndarray:
        """int64 element ID per LHB lookup."""
        return self.links.element

    @property
    def batch(self) -> np.ndarray:
        """int64 batch ID per LHB lookup."""
        return self.links.batch

    def for_mode(
        self, mode: EliminationMode, fragment: Optional[np.ndarray] = None
    ) -> "_FedStreams":
        """This fold's view under ``mode``.

        BASELINE looks nothing up and DUPLO is the fold itself.  WIR
        looks up every load by its fragment index, ``fragment``
        (:func:`~repro.gpu.ldst.fragment_ids`), which the fold does not
        hold: it is derived on demand, so a fold that never serves WIR
        never holds it.
        """
        if mode is EliminationMode.DUPLO:
            return self
        if mode is EliminationMode.BASELINE:
            none = _cat([], np.int64)
            return replace(
                self, consult=_cat([], bool), links=TagLinks(none, none),
                first=None,
            )
        element = fragment if self.first is None else fragment[self.first]
        element.flags.writeable = False
        # Every load consults, all in batch 0: read-only broadcasts, so
        # the view adds only ``element`` (and its links, once a replay
        # builds them) to the fold's memory.
        return replace(
            self,
            consult=np.broadcast_to(True, self.totals.loads),
            links=TagLinks(
                element, np.broadcast_to(np.int64(0), len(element))
            ),
        )

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
            hit = simulate_lhb_stream(
                self.element, self.batch, lhb, links=self.links
            )
            if self.first is not None:
                # A looked-up instruction start decides its instruction.
                group_hit = np.zeros(np.count_nonzero(self.first), dtype=bool)
                group_hit[self.consult[self.first]] = hit
                eliminated = group_hit[np.cumsum(self.first) - 1]
            else:
                eliminated[self.consult] = hit
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
    """Folds a trace into the streams every mode replays.

    The closed-form replay needs only a few *derived* per-load streams
    — consult flags, (element, batch) lookup IDs, L1 line IDs,
    instruction starts — each a fraction of the full four trace
    columns.  :func:`fed_streams` feeds the trace in slices of
    ``_FOLD_BLOCK`` events, so the translation's temporaries scale with
    the slice instead of the trace.

    The fold is mode-free.  The ID generator maps a workspace address
    to the same ID whatever unit sits in front of memory, so one
    translation of the A loads (:func:`~repro.gpu.ldst.load_ids_for`)
    gives DUPLO's lookups and, at the options' granularity, the
    workspace instruction count and unique workspace IDs of every mode.
    :meth:`fold` returns DUPLO's view; :meth:`_FedStreams.for_mode`
    derives the BASELINE and WIR views from it.

    Slice boundaries are invisible: every per-slice pass is elementwise
    (or carries its one-value boundary state — the previous instruction
    ID — across slices), so the concatenated per-slice outputs equal
    the whole-column computation, and :meth:`_FedStreams.finish` runs
    the global recurrences (LHB, LRU stack distances) on the assembled
    streams.
    """

    def __init__(
        self,
        spec: ConvLayerSpec,
        lda: int,
        gpu: GPUConfig,
        options: SimulationOptions,
    ):
        self.spec = spec
        self.lda = lda
        self.options = options

        self._line_shift, self._l1_set_mask = cache_geometry(
            gpu.l1_bytes, gpu.l1_assoc, gpu.l1_line_bytes
        )
        _, self._l2_set_mask = cache_geometry(
            gpu.l2_bytes, gpu.l2_assoc, gpu.l2_line_bytes
        )
        self._gpu = gpu
        self._instruction = options.lhb_granularity != "fragment"

        self.events = 0
        self._stores = 0
        self._loads = 0
        self._loads_a = 0
        self._loads_input = 0
        self._ws_instrs = 0
        self._consult: list = []  # bool, per load
        self._shared: list = []  # bool, per load
        self._lines: list = []  # int64 L1 line IDs, per non-shared load
        self._element: list = []  # int64, per DUPLO lookup
        self._batch: list = []
        self._first: list = []  # bool, per load (instruction granularity)
        self._prev_instr: Optional[int] = None

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
        self._loads_input += int((load_kind == LOAD_INPUT).sum())

        is_shared = (load_kind == LOAD_A_SHARED) | (load_kind == LOAD_B_SHARED)
        self._shared.append(is_shared)
        self._lines.append(load_addr[~is_shared] >> self._line_shift)

        translated, batch, element = load_ids_for(
            self.spec, self.options, load_addr[is_a], self.lda, self._gpu
        )
        self._loads_a += len(translated)
        consult = np.zeros(n, dtype=bool)
        consult[is_a] = translated
        self._consult.append(consult)
        # The workspace instructions are the A loads at the options'
        # granularity; the translated ones are DUPLO's lookups.
        looked_up, bases = translated, len(translated)
        if self._instruction:
            # One lookup per warp-level instruction, at its first load.
            load_instr = instr[is_load]
            first = np.ones(n, dtype=bool)
            if n:
                first[1:] = load_instr[1:] != load_instr[:-1]
                if self._prev_instr is not None:
                    first[0] = load_instr[0] != self._prev_instr
                self._prev_instr = int(load_instr[-1])
            self._first.append(first)
            starts = first[is_a]
            looked_up, bases = translated & starts, int(starts.sum())
        self._element.append(element[looked_up])
        self._batch.append(batch[looked_up])
        self._ws_instrs += bases

    def fold(self) -> _FedStreams:
        """The fed blocks as DUPLO's read-only streams.

        DUPLO's distinct lookup tags are the translated unique IDs
        (:attr:`TagLinks.firsts`, which every LHB replay of the fold
        reuses as its compulsory misses), and every untranslated
        workspace instruction counts as its own unique ID.
        """
        links = TagLinks(
            _cat(self._element, np.int64), _cat(self._batch, np.int64)
        )
        totals = StreamTotals(
            gpu=self._gpu,
            loads=self._loads,
            loads_a=self._loads_a,
            loads_input=self._loads_input,
            stores=self._stores,
            workspace_instructions=self._ws_instrs,
            unique_workspace_ids=(
                links.firsts + self._ws_instrs - len(links.element)
            ),
        )
        return _FedStreams(
            totals=totals,
            l1_set_mask=self._l1_set_mask,
            l1_assoc=self._gpu.l1_assoc,
            l2_set_mask=self._l2_set_mask,
            l2_assoc=self._gpu.l2_assoc,
            consult=_cat(self._consult, bool),
            shared=_cat(self._shared, bool),
            lines=_cat(self._lines, np.int64),
            links=links,
            first=_cat(self._first, bool) if self._instruction else None,
        )


# ----------------------------------------------------------------------
# Per-thread trace slot
# ----------------------------------------------------------------------

#: Each thread's slot, ``_fed_memo.entry = [epoch, trace_key, trace,
#: fold]``: the trace it last replayed, under the simulator's trace key,
#: and the one fold of it that every mode's streams derive from.  One
#: slot per thread bounds residency to one trace and one fold per
#: worker, and thread-local storage makes it lock-free.
_fed_memo = threading.local()
#: Events per block when a held trace is folded, so the A-load
#: translation's int64 temporaries scale with the block instead of the
#: trace (folded whole, a 5M-event data-gradient trace peaked 650 MB
#: above its columns).
_FOLD_BLOCK = 1 << 18
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
    """``trace``'s streams under ``mode``, from its fold in the slot.

    ``trace_key`` is a hashable identity of ``trace`` together with
    ``spec``, ``gpu`` and ``options`` (the simulator passes its trace
    key): the slot keeps the trace and its one fold under it, and
    every mode derives its view from that fold
    (:meth:`_FedStreams.for_mode`), so a BASELINE, DUPLO and WIR
    replay of one trace fold it once.  A trace the slot does not hold
    replaces the slot's trace and fold.  ``trace_key=None`` bypasses
    the slot.
    """
    def fold() -> _FedStreams:
        acc = _StreamAccumulator(spec, trace.lda, gpu, options)
        for lo in range(0, len(trace), _FOLD_BLOCK):
            hi = lo + _FOLD_BLOCK
            acc.feed(
                trace.kind[lo:hi], trace.address[lo:hi], trace.instr[lo:hi]
            )
        return acc.fold()

    if trace_key is None:
        folded = fold()
    else:
        entry = _slot_entry(trace_key)
        if entry is not None and entry[3] is not None:
            obs.add("fastpath.fed_reuses")
        else:
            if entry is None:
                _fed_memo.entry = None
                entry = [_fed_epoch, trace_key, trace, None]
            entry[3] = fold()
            _fed_memo.entry = entry
        folded = entry[3]
    fragment = None
    if mode is EliminationMode.WIR:
        fragment = fragment_ids(trace.address[trace.kind != STORE_D], gpu)
    return folded.for_mode(mode, fragment)


def replay_blocks_fast(
    blocks,
    meta,
    spec: ConvLayerSpec,
    gpu: GPUConfig = TITAN_V,
    options: SimulationOptions = SimulationOptions(),
    mode: EliminationMode = EliminationMode.DUPLO,
    lhb: Optional[LoadHistoryBuffer] = None,
) -> LayerStats:
    """:func:`replay_trace_fast` of a trace given as blocks.

    ``blocks`` is an iterable of :class:`~repro.gpu.isa.TraceBlock` in
    trace order (:meth:`repro.gpu.kernel.TracePlan.iter_blocks`
    yields them); ``meta`` carries the scalar trace fields (a dict from
    ``TracePlan.meta()``).  The blocks are joined into one trace, so
    the result is the in-memory replay's whatever the block size.
    """
    blocks = list(blocks)
    trace = KernelTrace(
        **{
            name: np.concatenate([getattr(b, name) for b in blocks])
            for name in ("kind", "address", "warp", "instr")
        },
        **meta,
    )
    return replay_trace_fast(trace, spec, gpu, options, mode, lhb)


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

    The one fast replay: :func:`fed_streams` folds the trace, or takes
    its fold from the slot, and :meth:`_FedStreams.finish` runs the
    recurrences.  Covers every configuration the event path does.  A
    caller-supplied ``lhb`` must be fresh: a used buffer raises
    ``ValueError``.

    ``trace_key`` keys the calling thread's slot (:func:`fed_streams`),
    so consecutive replays of one trace — an LHB size or associativity
    sweep, or its BASELINE, DUPLO and WIR points — fold it once.
    """
    if mode is not EliminationMode.BASELINE and lhb is None:
        lhb = default_lhb(options)
    obs.add("fastpath.replays")
    obs.add("fastpath.events", int(trace.kind.size))
    streams = fed_streams(trace, spec, gpu, options, mode, trace_key)
    return streams.finish(lhb, trace.mma_ops)
