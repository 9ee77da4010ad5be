"""Functional tensor-core execution (Section II-B / Figure 4).

Executes a warp-level 16x16x16 MMA exactly the way the paper describes
the hardware decomposing it, so the data-layout story of Figure 4 is
runnable rather than narrative:

* the warp's 32 threads form four 8-thread **octets**, each producing
  one 8x8 quadrant of the 16x16 output tile;
* an octet's two 4-thread **threadgroups** each produce a 4x8 block,
  taking two steps over the k-dimension halves;
* a threadgroup step issues 4x4x4 MMAs to the tensor core's 16
  four-element-dot-product (**FEDP**) units;
* each half of A and B is consumed by *two* octets — the dual-load
  the LHB later exploits (each octet holds its own register copy).

The functional model is bit-compatible with ``A @ B + C`` (up to float
associativity) and exposes the per-octet operand footprints that the
trace generator's duplication factor of 2 encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Geometry constants from Section II-B.
WMMA = 16
OCTETS_PER_WARP = 4
THREADGROUPS_PER_OCTET = 2
THREADS_PER_THREADGROUP = 4
FEDP_WIDTH = 4  # four-element dot product
FEDPS_PER_CORE = 16


def octet_output_quadrant(octet: int) -> Tuple[slice, slice]:
    """Rows/cols of the 16x16 D tile the given octet produces.

    Octets tile the output quadrant-wise: octet 0 upper-left, 1
    upper-right, 2 lower-left, 3 lower-right (Figure 4).
    """
    if not 0 <= octet < OCTETS_PER_WARP:
        raise ValueError(f"octet must be 0..3, got {octet}")
    row_half, col_half = divmod(octet, 2)
    return (
        slice(row_half * 8, row_half * 8 + 8),
        slice(col_half * 8, col_half * 8 + 8),
    )


def octet_operand_rows(octet: int) -> slice:
    """Rows of A the octet needs (its half of the A matrix)."""
    rows, _ = octet_output_quadrant(octet)
    return rows


def octet_operand_cols(octet: int) -> slice:
    """Columns of B the octet needs (its half of the B matrix)."""
    _, cols = octet_output_quadrant(octet)
    return cols


@dataclass
class OctetTrace:
    """What one octet read and computed during a warp MMA."""

    octet: int
    a_rows: Tuple[int, ...]
    b_cols: Tuple[int, ...]
    fedp_ops: int


def fedp(a4: np.ndarray, b4: np.ndarray, acc: float) -> float:
    """One four-element dot product unit: acc += a . b."""
    if a4.shape != (FEDP_WIDTH,) or b4.shape != (FEDP_WIDTH,):
        raise ValueError("FEDP operands must be 4-vectors")
    return acc + float(a4 @ b4)


def threadgroup_block(
    a_half: np.ndarray, b_half: np.ndarray, c_block: np.ndarray, step_rows: slice
) -> Tuple[np.ndarray, int]:
    """One threadgroup's 4x8 output block, built from FEDP calls.

    ``a_half``/``b_half`` are the octet's 8x16 / 16x8 operand halves;
    the threadgroup owns 4 of the octet's 8 output rows and produces
    them in FEDP_WIDTH-deep accumulation chunks ("a set of four
    consecutive threads ... generate a 4x8 rectangular block").
    """
    rows = a_half[step_rows]  # (4, 16)
    out = c_block.astype(np.float64).copy()
    ops = 0
    for i in range(rows.shape[0]):
        for j in range(b_half.shape[1]):
            acc = out[i, j]
            for k0 in range(0, rows.shape[1], FEDP_WIDTH):
                acc = fedp(
                    rows[i, k0 : k0 + FEDP_WIDTH],
                    b_half[k0 : k0 + FEDP_WIDTH, j],
                    acc,
                )
                ops += 1
            out[i, j] = acc
    return out, ops


def warp_mma(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> Tuple[np.ndarray, List[OctetTrace]]:
    """Execute D = A @ B + C (16x16x16) via the octet decomposition.

    Returns the output tile and per-octet traces recording which
    operand rows/columns each octet consumed — adjacent octets share
    halves, which is why the kernel issues each half twice.
    """
    for name, mat in (("A", a), ("B", b), ("C", c)):
        if mat.shape != (WMMA, WMMA):
            raise ValueError(f"{name} must be 16x16, got {mat.shape}")
    d = np.empty((WMMA, WMMA), dtype=np.float64)
    traces = []
    for octet in range(OCTETS_PER_WARP):
        rows, cols = octet_output_quadrant(octet)
        a_half = a[rows, :]  # (8, 16): the octet's copy of half of A
        b_half = b[:, cols]  # (16, 8): the octet's copy of half of B
        ops = 0
        for tg in range(THREADGROUPS_PER_OCTET):
            step = slice(tg * 4, tg * 4 + 4)
            block, tg_ops = threadgroup_block(
                a_half, b_half, c[rows, cols][step, :], step
            )
            d[rows.start + tg * 4 : rows.start + tg * 4 + 4, cols] = block
            ops += tg_ops
        traces.append(
            OctetTrace(
                octet=octet,
                a_rows=tuple(range(rows.start, rows.stop)),
                b_cols=tuple(range(cols.start, cols.stop)),
                fedp_ops=ops,
            )
        )
    return d, traces


def operand_sharing(traces: List[OctetTrace]) -> Dict[str, int]:
    """How many octets consume each A/B half — the dual-load count.

    Returns the multiplicity of every operand half; Section II-B:
    "each half of input matrices A and B are loaded twice by
    different octets".
    """
    a_counts: Dict[Tuple[int, ...], int] = {}
    b_counts: Dict[Tuple[int, ...], int] = {}
    for t in traces:
        a_counts[t.a_rows] = a_counts.get(t.a_rows, 0) + 1
        b_counts[t.b_cols] = b_counts.get(t.b_cols, 0) + 1
    return {
        "a_half_consumers": max(a_counts.values()),
        "b_half_consumers": max(b_counts.values()),
        "distinct_a_halves": len(a_counts),
        "distinct_b_halves": len(b_counts),
    }
