"""Warp-level instruction events and the kernel trace container.

The simulator is trace-driven: :mod:`repro.gpu.kernel` emits the
memory events of the tensor-core GEMM kernel in scheduled order, and
the LDST/LHB/cache models replay them.  Events are kept in parallel
NumPy arrays (struct-of-arrays) because per-layer traces run into the
hundreds of thousands of events.

Two granularities coexist, matching the paper's microarchitecture:

* **fragments** — one event is one 16-half (32-byte) row/column
  fragment, the unit of cache and DRAM traffic;
* **instructions** — each warp-level ``wmma.load`` covers 16
  fragments (one 16x16 tile for one octet pair) and consults the LHB
  *once*, tagged by the ID of its base fragment (Table II shows one
  array index / element ID per load instruction).  The ``instr``
  array groups fragments into instructions; the octet dual-load of
  Section II-B appears as two instructions covering the same 16
  fragments back-to-back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

#: Event kinds.  The first three belong to the explicit-GEMM kernel;
#: the *_SHARED / LOAD_INPUT kinds model cuDNN-style implicit GEMM
#: (Section II-C), where the workspace is expanded lazily into shared
#: memory and only the unexpanded input is fetched from global.
LOAD_A = 0  # workspace (matrix A) fragment load — consults the LHB
LOAD_B = 1  # filter (matrix B) fragment load — bypasses the LHB
STORE_D = 2  # output (matrix D) fragment store
LOAD_A_SHARED = 3  # workspace fragment from shared memory (implicit GEMM)
LOAD_B_SHARED = 4  # filter fragment from shared memory (implicit GEMM)
LOAD_INPUT = 5  # unexpanded-input fetch staging shared memory (global)

KIND_NAMES = {
    LOAD_A: "load_a",
    LOAD_B: "load_b",
    STORE_D: "store_d",
    LOAD_A_SHARED: "load_a_shared",
    LOAD_B_SHARED: "load_b_shared",
    LOAD_INPUT: "load_input",
}

#: Bytes moved by one event kind (fp16 fragments; fp32 output rows).
EVENT_BYTES = {
    LOAD_A: 32,
    LOAD_B: 32,
    STORE_D: 64,
    LOAD_A_SHARED: 32,
    LOAD_B_SHARED: 32,
    LOAD_INPUT: 32,
}

#: Disjoint base addresses for each memory region.  Workspace
#: addresses double as shared-memory offsets in implicit mode (the
#: detection unit's region check works identically either way).
WORKSPACE_BASE = 0x1000_0000
FILTER_BASE = 0x8000_0000
OUTPUT_BASE = 0xC000_0000
INPUT_BASE = 0xE000_0000

#: Scalar trace fields (everything but the event columns), in a fixed
#: order.
_META_FIELDS = (
    "mma_ops",
    "traced_ctas",
    "total_ctas",
    "grid_ctas",
    "lda",
    "ldb",
    "ldd",
    "concurrent_warps",
)


@dataclass(frozen=True)
class TraceBlock:
    """One bounded slice of a trace's parallel event columns.

    The unit of blockwise generation and replay: block boundaries are
    an implementation detail — concatenating a trace's blocks in order
    reproduces the full columns bit-identically, whatever the block
    size (:meth:`repro.gpu.kernel.TracePlan.iter_blocks` guarantees
    this by construction).  :func:`repro.gpu.fastpath.replay_blocks_fast`
    folds each block into compact accumulators.
    """

    kind: np.ndarray
    address: np.ndarray
    warp: np.ndarray
    instr: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)


@dataclass
class KernelTrace:
    """Scheduled memory-event stream of one layer on one SM.

    Attributes
    ----------
    kind, address, warp, instr:
        Parallel arrays: event kind, byte address, the SM-local warp
        slot that issued it (CTA slot * warps-per-CTA + warp), and the
        warp-level instruction the fragment belongs to (fragments of
        one instruction are contiguous; the first fragment is the
        instruction's base address, whose ID tags the LHB lookup).
    mma_ops:
        Count of 16x16x16 wmma MMA operations in the traced portion.
    traced_ctas / total_ctas:
        How many of this SM's CTAs were traced vs. assigned; stats
        extrapolate by their ratio.
    lda / ldb / ldd:
        Leading dimensions (elements) of the A/B/D allocations.
    """

    kind: np.ndarray
    address: np.ndarray
    warp: np.ndarray
    instr: np.ndarray
    mma_ops: int
    traced_ctas: int
    total_ctas: int
    grid_ctas: int
    lda: int
    ldb: int
    ldd: int
    concurrent_warps: int

    def __post_init__(self) -> None:
        lengths = {
            len(self.kind),
            len(self.address),
            len(self.warp),
            len(self.instr),
        }
        if len(lengths) != 1:
            raise ValueError("trace arrays must be parallel")

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def scale_factor(self) -> float:
        """Extrapolation factor from the traced prefix to all CTAs."""
        if self.traced_ctas == 0:
            return 1.0
        return self.total_ctas / self.traced_ctas

    def counts_by_kind(self) -> Dict[str, int]:
        """Event counts keyed by kind name (traced portion)."""
        kinds, counts = np.unique(self.kind, return_counts=True)
        return {KIND_NAMES[int(k)]: int(c) for k, c in zip(kinds, counts)}

    def meta(self) -> Dict[str, int]:
        """The scalar trace fields, keyed by name."""
        return {name: int(getattr(self, name)) for name in _META_FIELDS}
