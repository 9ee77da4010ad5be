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

import dataclasses
from dataclasses import dataclass
from typing import BinaryIO, Dict, Iterator, Union

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

#: Columnar record layout of one trace event.  Narrow unsigned fields
#: (kinds fit a byte, warp slots a halfword) shrink the on-disk and
#: interchange footprint to 15 bytes/event versus the ~4x wider
#: individual int64 arrays.
EVENT_DTYPE = np.dtype(
    [
        ("kind", np.uint8),
        ("address", np.int64),
        ("warp", np.uint16),
        ("instr", np.int32),
    ]
)

#: Scalar trace fields serialized alongside the event records (the
#: store's ``.meta.json``), in a fixed order.
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

    The unit of streaming generation and replay: block boundaries are
    an implementation detail — concatenating a trace's blocks in order
    reproduces the full columns bit-identically, whatever the block
    size (``repro.gpu.kernel.iter_trace_blocks`` guarantees this by
    construction, and the ``REPRO_TRACE_BLOCK`` CI lane locks it).
    Consumers (:func:`repro.gpu.fastpath.replay_blocks_fast`, the disk
    store's streaming writer) fold each block into compact accumulators
    instead of materialising the whole trace.
    """

    kind: np.ndarray
    address: np.ndarray
    warp: np.ndarray
    instr: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)

    def to_columnar(self) -> np.ndarray:
        """Pack this block's events into one structured record array."""
        events = np.empty(len(self), dtype=EVENT_DTYPE)
        events["kind"] = self.kind
        events["address"] = self.address
        events["warp"] = self.warp
        events["instr"] = self.instr
        return events


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

    def iter_blocks(self, block_events: int) -> Iterator[TraceBlock]:
        """Yield the trace as bounded :class:`TraceBlock` column slices.

        Slices are zero-copy views, so replaying a memory-mapped trace
        block by block touches one window of the record file at a time
        instead of faulting the whole column in.
        """
        if block_events < 1:
            raise ValueError(f"block_events must be >= 1, got {block_events}")
        n = len(self)
        for start in range(0, n, block_events):
            stop = min(start + block_events, n)
            yield TraceBlock(
                kind=self.kind[start:stop],
                address=self.address[start:stop],
                warp=self.warp[start:stop],
                instr=self.instr[start:stop],
            )

    # -- columnar encoding -------------------------------------------------

    def to_columnar(self) -> np.ndarray:
        """Pack the parallel event arrays into one structured record array."""
        events = np.empty(len(self), dtype=EVENT_DTYPE)
        events["kind"] = self.kind
        events["address"] = self.address
        events["warp"] = self.warp
        events["instr"] = self.instr
        return events

    def meta(self) -> Dict[str, int]:
        """The scalar trace fields, keyed by name."""
        return {name: int(getattr(self, name)) for name in _META_FIELDS}

    @classmethod
    def from_columnar(
        cls, events: np.ndarray, meta: Dict[str, int], zero_copy: bool = False
    ) -> "KernelTrace":
        """Rebuild a trace from :meth:`to_columnar` + :meth:`meta` output.

        The narrow columns are widened back to the int64 arrays the
        replay paths index, so round-tripping is lossless.  With
        ``zero_copy`` the ``address`` column — already int64 and 8 of
        the 15 bytes per event — stays a *view* into ``events``; when
        ``events`` is a memory-mapped record array (see
        :meth:`load_npy`) that column is then served straight from the
        OS page cache with no copy, which is what lets many worker
        processes replay one persisted trace without each
        materialising the archive.  The narrow columns (kind / warp /
        instr) always widen: mixed-width arithmetic would silently
        wrap under NumPy's value-preserving promotion rules.
        """
        address = events["address"]
        if not zero_copy:
            address = address.astype(np.int64)
        return cls(
            kind=events["kind"].astype(np.int64),
            address=address,
            warp=events["warp"].astype(np.int64),
            instr=events["instr"].astype(np.int64),
            **{name: int(meta[name]) for name in _META_FIELDS},
        )

    def densify(self) -> "KernelTrace":
        """Return a trace whose columns are dense in-RAM arrays.

        Zero-copy traces (:meth:`load_npy` with ``mmap=True``) keep the
        ``address`` column as a strided view into the memory-mapped
        record file.  One boolean-mask pass over such a view is exactly
        as cheap as over a dense array, but the replay paths make
        *several* full passes (load split, workspace ID translation),
        so they call this once up front: a single sequential read
        through the page cache, after which every pass runs on dense
        memory.  Dense traces are returned unchanged.
        """
        addr = self.address
        if isinstance(addr, np.memmap) or not addr.flags.c_contiguous:
            return dataclasses.replace(self, address=np.ascontiguousarray(addr))
        return self

    def save_npy(self, file: Union[str, BinaryIO]) -> None:
        """Serialize the columnar events as one *uncompressed* ``.npy``.

        The plain array format is what ``np.load(..., mmap_mode="r")``
        can map, so the store persists traces in this form and the
        sweep runtime hands worker processes the *file* (by
        content-addressed key) instead of a pickled trace.  Scalars
        travel separately (:meth:`meta` → JSON in the store).
        """
        np.save(file, self.to_columnar(), allow_pickle=False)

    @classmethod
    def load_npy(
        cls,
        file: Union[str, BinaryIO],
        meta: Dict[str, int],
        mmap: bool = True,
    ) -> "KernelTrace":
        """Load a :meth:`save_npy` events file plus its scalar fields.

        With ``mmap`` (the default) the record array is memory-mapped
        read-only and the int64 ``address`` column is used zero-copy —
        pages are faulted in on demand and shared between every
        process mapping the same file.
        """
        events = np.load(file, mmap_mode="r" if mmap else None,
                         allow_pickle=False)
        return cls.from_columnar(events, meta, zero_copy=mmap)
