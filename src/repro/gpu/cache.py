"""Set-associative LRU caches for the L1/L2 hierarchy.

Functional (hit/miss + traffic) cache models replayed over the kernel
trace.  Geometry defaults come from Table III: a 128 KB unified L1
per SM and a 4.5 MB 24-way L2.  Under the representative-SM sampling
(DESIGN.md) the L2 is modelled as this SM's slice — capacity divided
by the number of active SMs — which is statistically equivalent for
the striped, homogeneous CTA streams of GEMM kernels.

The implementation favours replay speed: one ``OrderedDict`` per set
gives O(1) LRU updates, and the line index is computed by the caller
so the hot loop stays allocation-free.  :func:`cache_geometry` is the
one rule mapping a capacity to sets; the vectorised fast path
(:mod:`repro.gpu.fastpath`) reads it without building a cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Tuple


def cache_geometry(
    capacity_bytes: int, assoc: int, line_bytes: int = 128
) -> Tuple[int, int]:
    """``(line_shift, set_mask)`` of an LRU set-associative cache.

    The set count is rounded down to a power of two so the set index
    is a mask; ``line_bytes`` must be a power of two so the line index
    is a shift.
    """
    if capacity_bytes <= 0 or assoc <= 0:
        raise ValueError("capacity and associativity must be positive")
    if line_bytes & (line_bytes - 1):
        raise ValueError(f"line_bytes must be a power of two, got {line_bytes}")
    num_sets = max(assoc, capacity_bytes // line_bytes) // assoc
    return line_bytes.bit_length() - 1, (1 << (num_sets.bit_length() - 1)) - 1


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """LRU set-associative cache keyed by line number.

    ``access(line)`` returns True on hit; a miss allocates the line
    (evicting LRU).  ``line_bytes`` must be a power of two so the set
    index is a mask.
    """

    def __init__(self, capacity_bytes: int, assoc: int, line_bytes: int = 128):
        self.line_shift, self.set_mask = cache_geometry(
            capacity_bytes, assoc, line_bytes
        )
        self.num_sets = self.set_mask + 1
        self.assoc = assoc
        self.line_bytes = line_bytes
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.assoc * self.line_bytes

    def line_of(self, address: int) -> int:
        return address >> self.line_shift

    def access(self, line: int) -> bool:
        """Probe (and on miss, fill) the cache with one line."""
        self.stats.accesses += 1
        ways = self._sets[line & self.set_mask]
        if line in ways:
            ways.move_to_end(line)
            self.stats.hits += 1
            return True
        if len(ways) >= self.assoc:
            ways.popitem(last=False)
        ways[line] = True
        return False

    def contains(self, line: int) -> bool:
        """Non-updating presence probe (used by tests)."""
        return line in self._sets[line & self.set_mask]

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()
        self.stats = CacheStats()
