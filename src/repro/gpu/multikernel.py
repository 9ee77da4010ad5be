"""Concurrent kernels sharing one SM's LHB (the PID tag field).

The LHB tag carries a process ID precisely so that two kernels
time-sliced onto the same SM cannot alias each other's workspace
elements (Section IV-B's tag layout: element ID + batch ID + PID).
This module interleaves the load streams of multiple convolution
kernels through one shared LHB and measures

* **isolation** — a hit's provider always belongs to the same kernel
  (guaranteed by construction, asserted in tests);
* **contention** — how much each kernel's hit rate drops relative to
  running alone, since the buffer now backs several working sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.conv.layer import ConvLayerSpec
from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.config import (
    BASELINE_KERNEL,
    GPUConfig,
    KernelConfig,
    SimulationOptions,
    TITAN_V,
)
from repro.gpu.fastpath import fed_streams, simulate_lhb_stream
from repro.gpu.kernel import generate_sm_trace
from repro.gpu.ldst import EliminationMode
from repro.gpu.simulator import make_lhb


@dataclass(frozen=True)
class KernelShare:
    """Per-kernel outcome of a shared-LHB run."""

    spec: ConvLayerSpec
    pid: int
    lookups: int
    hits: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def _workspace_stream(
    spec: ConvLayerSpec,
    gpu: GPUConfig,
    kernel: KernelConfig,
    options: SimulationOptions,
) -> Tuple[np.ndarray, np.ndarray]:
    """(batch_id, element_id) arrays of one kernel's LHB lookups: the
    lookups a DUPLO replay of its trace makes, in issue order."""
    trace = generate_sm_trace(spec, gpu, kernel, options)
    streams = fed_streams(trace, spec, gpu, options, EliminationMode.DUPLO)
    return streams.batch, streams.element


def _interleave(
    streams: Sequence[Tuple[np.ndarray, np.ndarray]], chunk: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-robin ``chunk``-sized slices into one (batch, element, pid)
    stream — the access order of kernels time-sliced onto one SM."""
    b_parts: List[np.ndarray] = []
    e_parts: List[np.ndarray] = []
    p_parts: List[np.ndarray] = []
    cursors = [0] * len(streams)
    live = True
    while live:
        live = False
        for pid, (batch, element) in enumerate(streams):
            start = cursors[pid]
            if start >= len(element):
                continue
            live = True
            stop = min(start + chunk, len(element))
            b_parts.append(batch[start:stop])
            e_parts.append(element[start:stop])
            p_parts.append(np.full(stop - start, pid, dtype=np.int64))
            cursors[pid] = stop
    if not b_parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return (
        np.concatenate(b_parts),
        np.concatenate(e_parts),
        np.concatenate(p_parts),
    )


def simulate_shared_lhb(
    specs: Sequence[ConvLayerSpec],
    lhb_entries: Optional[int] = 1024,
    chunk: int = 256,
    gpu: GPUConfig = TITAN_V,
    kernel: KernelConfig = BASELINE_KERNEL,
    options: SimulationOptions = SimulationOptions(),
    lhb: Optional[LoadHistoryBuffer] = None,
    lhb_assoc: int = 1,
) -> List[KernelShare]:
    """Interleave several kernels' workspace loads through one LHB.

    The scheduler alternates ``chunk``-sized load slices round-robin
    across the kernels (the granularity at which time-slicing
    interleaves co-resident kernels' warps); kernel ``i`` is tagged
    with PID ``i``.  The vectorised recurrence folds the PID into the
    tag key and is bit-identical to feeding the interleaved stream
    through ``lhb.access`` on every counter.  A caller-supplied
    ``lhb`` must be fresh.
    """
    if not specs:
        raise ValueError("need at least one kernel")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if lhb is None:
        lhb = make_lhb(
            lhb_entries, lhb_assoc, options.lhb_lifetime,
            options.lhb_hashed_index,
        )

    streams = [
        _workspace_stream(spec, gpu, kernel, options) for spec in specs
    ]
    lookups = [len(element) for _, element in streams]

    batch_i, element_i, pid_i = _interleave(streams, chunk)
    obs.add("fastpath.shared_replays")
    obs.add("fastpath.shared_lookups", int(len(element_i)))
    hit = simulate_lhb_stream(element_i, batch_i, lhb, pid=pid_i)
    hits = np.bincount(pid_i[hit], minlength=len(specs)).tolist()

    return [
        KernelShare(spec=spec, pid=pid, lookups=lookups[pid], hits=hits[pid])
        for pid, spec in enumerate(specs)
    ]


def contention_report(
    specs: Sequence[ConvLayerSpec],
    lhb_entries: Optional[int] = 1024,
    **kwargs,
) -> Dict[str, Dict[str, float]]:
    """Solo vs. shared hit rates for each kernel."""
    shared = simulate_shared_lhb(specs, lhb_entries, **kwargs)
    report = {}
    for pid, spec in enumerate(specs):
        solo = simulate_shared_lhb([spec], lhb_entries, **kwargs)[0]
        report[f"{spec.qualified_name}#pid{pid}"] = {
            "solo_hit_rate": solo.hit_rate,
            "shared_hit_rate": shared[pid].hit_rate,
            "contention_loss": solo.hit_rate - shared[pid].hit_rate,
        }
    return report
