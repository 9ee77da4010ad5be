"""The load history buffer (LHB), Section IV-B of the paper.

The LHB records, per SM, which physical warp register holds each
recently loaded workspace datum.  Every tensor-core load consults it:

* **hit** — a preceding load already fetched the same
  ``(element_id, batch_id, pid)`` tag and its value is still live in
  the register file, so the load is eliminated and its destination is
  renamed to the recorded register;
* **miss** — the request proceeds to L1 and a new entry is allocated
  (possibly replacing a conflicting one — the paper's "entry
  replacement" in Table II).

Entry lifetime follows the paper's retirement rule: an entry is
released when its producing load retires, *unless* continuous hits
relay the register to later loads, extending its effective lifetime.
We model retirement as a sliding window of ``lifetime`` subsequent
warp-level loads on the same SM (a hit refreshes the window), which is
what makes even an infinite ("oracle") LHB saturate below the
theoretical duplicate fraction (Section V-C: ~76% vs. 88.9%).

Organisations: direct-mapped (the paper's default), N-way
set-associative with LRU (Figure 12), and unbounded oracle
(``num_entries=None``).  The paper's 1024-entry direct-mapped default
indexes with the low 10 bits of the element ID and tags with the rest
plus the batch ID and PID; we keep exactly that split.  The buffer's
bit widths (Section V-H) are accounted once, in
:class:`repro.energy.model.AreaModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

Tag = Tuple[int, int, int]  # (element_id, batch_id, pid)


def vector_set_indices(
    element: np.ndarray, num_sets: int, hashed: bool = True
) -> np.ndarray:
    """Vectorised twin of :meth:`LoadHistoryBuffer._index`.

    Must produce exactly ``_index`` element-wise: the fast replay
    buckets by it, and any divergence from the scalar path would
    silently split tags across sets.
    """
    element = np.asarray(element)
    if hashed:
        mixed = element.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        mixed ^= mixed >> np.uint64(29)
        return (mixed % np.uint64(num_sets)).astype(np.int64)
    return np.mod(element.astype(np.int64), num_sets)


@dataclass
class LHBStats:
    """Counters the evaluation section plots."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    compulsory_misses: int = 0
    conflict_replacements: int = 0
    expired_misses: int = 0
    store_invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of workspace-load lookups that hit (Figure 10)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def publish(self, add, prefix: str = "lhb.raw.") -> None:
        """Report every counter through ``add(name, delta)``.

        ``add`` is typically :func:`repro.obs.add`; the simulator calls
        this after each replay so ``--metrics-out`` carries the
        buffer's own (traced-prefix) counters alongside the scaled
        ``sim.lhb.*`` aggregates.
        """
        add(prefix + "lookups", self.lookups)
        add(prefix + "hits", self.hits)
        add(prefix + "misses", self.misses)
        add(prefix + "compulsory_misses", self.compulsory_misses)
        add(prefix + "conflict_replacements", self.conflict_replacements)
        add(prefix + "expired_misses", self.expired_misses)
        add(prefix + "store_invalidations", self.store_invalidations)

    def merge(self, other: "LHBStats") -> "LHBStats":
        """Aggregate counters across SMs or layers."""
        return LHBStats(
            lookups=self.lookups + other.lookups,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            compulsory_misses=self.compulsory_misses + other.compulsory_misses,
            conflict_replacements=(
                self.conflict_replacements + other.conflict_replacements
            ),
            expired_misses=self.expired_misses + other.expired_misses,
            store_invalidations=(
                self.store_invalidations + other.store_invalidations
            ),
        )


@dataclass
class _Entry:
    """One LHB entry: tag, recorded register, and liveness horizon."""

    tag: Tag
    reg: int
    expires_at: Optional[int]
    last_use: int = 0


@dataclass(frozen=True)
class LHBResult:
    """Outcome of one LHB access."""

    hit: bool
    reg: int  # register holding the datum (existing on hit, new on miss)


class LoadHistoryBuffer:
    """Direct-mapped / set-associative / oracle LHB.

    Parameters
    ----------
    num_entries:
        Total entries, or ``None`` for the oracle (unbounded) buffer.
    assoc:
        Ways per set; 1 is the paper's direct-mapped default.
    lifetime:
        Retirement window in subsequent warp-level loads; ``None``
        models registers that never retire (theoretical upper bound).
    """

    def __init__(
        self,
        num_entries: Optional[int] = 1024,
        assoc: int = 1,
        lifetime: Optional[int] = 4096,
        hashed_index: bool = True,
    ):
        if num_entries is not None:
            if num_entries < 1:
                raise ValueError(f"num_entries must be >= 1, got {num_entries}")
            if assoc < 1 or num_entries % assoc:
                raise ValueError(
                    f"associativity {assoc} must divide num_entries {num_entries}"
                )
        if lifetime is not None and lifetime < 1:
            raise ValueError(f"lifetime must be >= 1 or None, got {lifetime}")
        self.num_entries = num_entries
        self.assoc = assoc
        self.lifetime = lifetime
        self.hashed_index = hashed_index
        self.stats = LHBStats()
        self._seq = 0
        self._oracle: Dict[Tag, _Entry] = {}
        # Per-set storage is allocated on first event-path access:
        # construction stays O(1), so analytic-tier geometry sweeps
        # (which build a buffer per query only to carry its geometry
        # and stats) do not pay for num_sets empty lists.
        self._lazy_sets: Optional[List[List[_Entry]]] = None
        self.num_sets = 0 if num_entries is None else num_entries // assoc
        self._seen_tags: set = set()
        # Set once a closed-form replay has filled the counters: the
        # buffer then holds no entries, so the event path refuses it.
        self._closed_form = False

    @property
    def _sets(self) -> List[List[_Entry]]:
        if self._lazy_sets is None:
            self._lazy_sets = [[] for _ in range(self.num_sets)]
        return self._lazy_sets

    @property
    def is_oracle(self) -> bool:
        """True for the unbounded buffer the paper labels "oracle"."""
        return self.num_entries is None

    def is_fresh(self) -> bool:
        """True while no lookup has been counted."""
        return self.stats.lookups == 0

    def begin_closed_form(self) -> None:
        """Hand this fresh buffer to a closed-form replay.

        The fast replay (:mod:`repro.gpu.fastpath`) and the analytic
        tier (:mod:`repro.analytic`) resolve a whole lookup stream at
        once, assuming the buffer starts empty, and fill only
        :attr:`stats`.  So they take fresh buffers only, and the buffer
        keeps no entries afterwards: the event-path calls, whose
        answers depend on entries, refuse it from then on.
        """
        if not self.is_fresh():
            raise ValueError(
                f"closed-form LHB replay needs a fresh buffer, but this "
                f"one has counted {self.stats.lookups} lookups; replay "
                f"a used buffer with access()"
            )
        self._closed_form = True

    def _refuse_closed_form(self) -> None:
        raise ValueError(
            "this LHB was replayed in closed form and holds counters "
            "only, no entries"
        )

    # ------------------------------------------------------------------
    # Core access path
    # ------------------------------------------------------------------
    def _index(self, element_id: int) -> int:
        """Set index for an element ID.

        The paper slices the low 10 bits of the element ID.  Element
        IDs of concurrently live loads differ by multiples of the
        (power-of-two) channel count, so a plain low-bit slice
        collapses onto a handful of sets; the default XOR-folds the
        upper bits in (the standard index hash of GPU caches/TLBs —
        the one indexing liberty this model takes, kept switchable via
        ``hashed_index`` for the ablation bench).
        """
        if self.hashed_index:
            # Fibonacci-multiplicative mix (cheap in hardware: one
            # multiply-by-constant, or an XOR tree of shifted copies).
            element_id = (element_id * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            element_id ^= element_id >> 29
        return element_id % self.num_sets

    def _alive(self, entry: _Entry) -> bool:
        return entry.expires_at is None or self._seq < entry.expires_at

    def _expiry(self) -> Optional[int]:
        if self.lifetime is None:
            return None
        return self._seq + self.lifetime

    def access(
        self, element_id: int, batch_id: int, dest_reg: int, pid: int = 0
    ) -> LHBResult:
        """Look up one tensor-core load; allocate on miss.

        ``dest_reg`` is the physical register the load would write; on
        a hit the returned register is the *existing* holder (the
        renaming target), and the hit relays the entry's lifetime.
        """
        if self._closed_form:
            self._refuse_closed_form()
        self._seq += 1
        self.stats.lookups += 1
        tag: Tag = (element_id, batch_id, pid)

        if self.is_oracle:
            entry = self._oracle.get(tag)
            if entry is not None and self._alive(entry):
                return self._hit(entry)
            if entry is not None:
                self.stats.expired_misses += 1
            return self._miss_oracle(tag, dest_reg)

        index = self._index(element_id)
        ways = self._sets[index]
        for entry in ways:
            if entry.tag == tag:
                if self._alive(entry):
                    return self._hit(entry)
                ways.remove(entry)
                self.stats.expired_misses += 1
                break
        return self._miss_set(ways, tag, dest_reg)

    def _hit(self, entry: _Entry) -> LHBResult:
        self.stats.hits += 1
        entry.expires_at = self._expiry()  # relay
        entry.last_use = self._seq
        return LHBResult(hit=True, reg=entry.reg)

    def _miss_oracle(self, tag: Tag, dest_reg: int) -> LHBResult:
        self._count_miss(tag)
        self._oracle[tag] = _Entry(
            tag=tag, reg=dest_reg, expires_at=self._expiry(), last_use=self._seq
        )
        return LHBResult(hit=False, reg=dest_reg)

    def _miss_set(
        self, ways: List[_Entry], tag: Tag, dest_reg: int
    ) -> LHBResult:
        self._count_miss(tag)
        entry = _Entry(
            tag=tag, reg=dest_reg, expires_at=self._expiry(), last_use=self._seq
        )
        if len(ways) >= self.assoc:
            # Prefer evicting a dead entry, else true LRU (Table II's
            # "entry replacement" step for the direct-mapped case).
            victim = min(
                ways, key=lambda e: (self._alive(e), e.last_use)
            )
            ways.remove(victim)
            if self._alive(victim):
                self.stats.conflict_replacements += 1
        ways.append(entry)
        return LHBResult(hit=False, reg=dest_reg)

    def _count_miss(self, tag: Tag) -> None:
        self.stats.misses += 1
        if tag not in self._seen_tags:
            self._seen_tags.add(tag)
            self.stats.compulsory_misses += 1

    # ------------------------------------------------------------------
    # Consistency hooks
    # ------------------------------------------------------------------
    def invalidate(self, element_id: int, batch_id: int, pid: int = 0) -> bool:
        """Release the entry matching a store's tags (Section IV-B).

        Returns True if a *live* entry was released.  A matching entry
        whose lifetime window already lapsed is removed too (its
        register no longer holds the datum either way) but is not
        counted as a store invalidation — counting it would drift the
        Table II stats relative to :meth:`live_entries`.  The paper
        notes this never fired in their experiments (GEMM kernels do
        not store to the workspace); our tests exercise it anyway.
        """
        if self._closed_form:
            self._refuse_closed_form()
        tag: Tag = (element_id, batch_id, pid)
        if self.is_oracle:
            entry = self._oracle.pop(tag, None)
            if entry is not None and self._alive(entry):
                self.stats.store_invalidations += 1
                return True
            return False
        ways = self._sets[self._index(element_id)]
        for entry in ways:
            if entry.tag == tag:
                ways.remove(entry)
                if self._alive(entry):
                    self.stats.store_invalidations += 1
                    return True
                return False
        return False

    def flush(self) -> None:
        """Drop all entries (kernel boundary / power-gating)."""
        if self.is_oracle:
            self._oracle.clear()
        elif self._lazy_sets is not None:
            for ways in self._lazy_sets:
                ways.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_entries(self) -> int:
        """Number of currently valid (non-expired) entries."""
        if self._closed_form:
            self._refuse_closed_form()
        if self.is_oracle:
            return sum(self._alive(e) for e in self._oracle.values())
        if self._lazy_sets is None:
            return 0
        return sum(self._alive(e) for ways in self._lazy_sets for e in ways)

    def __repr__(self) -> str:
        size = "oracle" if self.is_oracle else str(self.num_entries)
        return (
            f"LoadHistoryBuffer(entries={size}, assoc={self.assoc}, "
            f"lifetime={self.lifetime}, hit_rate={self.stats.hit_rate:.3f})"
        )
