"""ID generation: mapping workspace addresses to duplicate-detecting IDs.

Section III of the paper assigns every workspace entry a
``(batch_id, element_id)`` pair such that two entries carry the same
data iff they receive the same pair.  This module implements the
identification mechanism in three flavours:

``IDMode.PAPER``
    The closed-form formulas exactly as published (Sections III-B and
    III-C: patch IDs, per-patch offsets, and the multi-channel /
    non-unit-stride / multi-batch extensions).  Validated against the
    Figure 6 worked example.

``IDMode.CANONICAL``
    The exact ground truth: invert the im2col map and use the padded
    input coordinate as the element ID (``repro.conv.lowering``).  Two
    entries share a canonical pair iff they are true duplicates, so
    this is what the simulator uses by default (DESIGN.md documents
    the substitution).

``IDMode.STRICT``
    Canonical IDs extended with the output-column phase ``ox``.  A
    tensor-core load covers a 16x16 tile but the LHB tags only its
    base address; diagonal (intra-patch) duplicates whose tiles
    straddle an output-row wrap can then alias tiles that are not
    fully identical.  STRICT refuses those matches — an ablation
    quantifying how much of Duplo's benefit rides on the paper's
    tile-equality assumption.

All three are exposed both entry-wise and vectorised over NumPy
arrays; :class:`IDGenerator` adds the address arithmetic (workspace
region check, address -> (row, col)) from Section IV-A.

Like the hardware unit, :class:`IDGenerator` is programmed once per
kernel.  Every formula above is separable: its element ID is one term
of the output pixel ``row % pixels`` plus one term of the workspace
column.  The generator evaluates the closed form once on each axis
(``(pix, 0)`` and ``(0, col)``) into a per-row and a per-column table,
and then translates each entry with two lookups and an add.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.conv.layer import ConvLayerSpec
from repro.conv.lowering import (
    MERGED_PADDING_ID,
    entries_to_padded_flat,
    workspace_shape,
)


class IDMode(enum.Enum):
    """Which identification formula the generator applies."""

    PAPER = "paper"
    CANONICAL = "canonical"
    STRICT = "strict"


# ----------------------------------------------------------------------
# Published closed-form formulas (Sections III-B / III-C)
# ----------------------------------------------------------------------

def paper_patch_ids(
    spec: ConvLayerSpec, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Patch IDs per Section III: identical patches get identical IDs.

    ``patch_id = patch_row_idx * stride + patch_col_idx`` where the
    row index divides the workspace row by the output height and the
    column index divides the workspace column by the filter width
    (times channels, per the III-C generalisation).
    """
    eff = spec.effective_spec()
    out = eff.output_shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    patch_row_idx = rows // out.height
    patch_col_idx = cols // (eff.filter_width * eff.in_channels)
    return patch_row_idx * eff.stride + patch_col_idx


def paper_ids(
    spec: ConvLayerSpec, rows: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(batch_id, element_id)`` via the published formulas.

    Verbatim Section III-C (which reduces to III-B for single-channel,
    unit-stride inputs)::

        batch_id   = worksp_row_idx / (output_width * output_height)
        offset     = patch_id * input_width * num_channels
        element_id = worksp_row_idx % output_width
                       * num_channels * stride_dist
                   + worksp_col_idx % (filter_width * num_channels)
                   + offset

    The formulas assume the tabulated square-output geometry; tests
    characterise exactly where they agree with the canonical ground
    truth (they do on the paper's Figure 6 example and on all
    interior, non-padding entries of unit-stride layers).
    """
    eff = spec.effective_spec()
    out = eff.output_shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    batch_id = rows // (out.width * out.height)
    patch_id = paper_patch_ids(spec, rows % (out.width * out.height), cols)
    offset = patch_id * eff.in_width * eff.in_channels
    element_id = (
        (rows % out.width) * eff.in_channels * eff.stride
        + cols % (eff.filter_width * eff.in_channels)
        + offset
    )
    return batch_id, element_id


def canonical_ids(
    spec: ConvLayerSpec,
    rows: np.ndarray,
    cols: np.ndarray,
    merge_padding: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``(batch_id, element_id)`` via the inverse im2col map."""
    return entries_to_padded_flat(spec, rows, cols, merge_padding=merge_padding)


def strict_ids(
    spec: ConvLayerSpec,
    rows: np.ndarray,
    cols: np.ndarray,
    merge_padding: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical IDs disambiguated by output-column phase.

    Appends ``ox`` (the output column of the workspace row) to the
    element ID so only loads whose 16x16 tiles advance identically can
    match.  See the module docstring and the tile-aliasing ablation.
    """
    eff = spec.effective_spec()
    out = eff.output_shape
    rows = np.asarray(rows, dtype=np.int64)
    batch_id, element_id = canonical_ids(spec, rows, cols, merge_padding)
    ox = rows % out.width
    return batch_id, element_id * out.width + ox


@dataclass(frozen=True)
class GeneratedID:
    """Result of translating one load address."""

    in_workspace: bool
    batch_id: int = -1
    element_id: int = -1
    row: int = -1
    col: int = -1


class IDGenerator:
    """The detection unit's address translator (Section IV-A).

    Programmed at kernel launch with the compile-time convolution
    information (dimensions, stride, batch size, workspace base
    address and leading dimension); thereafter translates tensor-core
    load addresses into ``(batch_id, element_id)`` pairs.  Addresses
    outside the workspace region report ``in_workspace=False`` and
    bypass the LHB, exactly as instruction #2 does in Table II.

    Programming builds two tables from the mode's closed form: the
    element-ID term of each output pixel and that of each workspace
    column.  An entry's element ID is their sum; merged padding then
    looks the padded input pixel up in a padding mask.  The hardware
    unit restricts data dimensions to powers of two so its
    divide/modulo chain reduces to shifts and masks; the tables give
    the same IDs for any dimensions (the restriction is a circuit
    simplification, not a semantic one).
    """

    def __init__(
        self,
        spec: ConvLayerSpec,
        workspace_base: int,
        lda: int,
        element_bytes: int = 2,
        mode: IDMode = IDMode.CANONICAL,
        merge_padding: bool = False,
        row_align: int = 16,
    ):
        eff = spec.effective_spec()
        rows, cols = workspace_shape(spec)
        if lda < cols:
            raise ValueError(f"leading dimension {lda} < workspace cols {cols}")
        self.spec = spec
        self.effective = eff
        self.workspace_base = workspace_base
        self.lda = lda
        self.element_bytes = element_bytes
        self.mode = mode
        self.merge_padding = merge_padding
        self.logical_rows = rows
        self.logical_cols = cols
        # The workspace region spans the padded allocation; the kernel
        # pads M to the architecture's ``tile_m`` (``row_align``).
        rows_padded = -(-rows // row_align) * row_align
        self.workspace_end = workspace_base + rows_padded * lda * element_bytes
        self._build_tables()

    def _build_tables(self) -> None:
        """Program the per-row and per-column element-ID tables."""
        eff = self.effective
        out = eff.output_shape
        self._pixels = out.pixels
        pix = np.arange(out.pixels, dtype=np.int64)
        col = np.arange(self.logical_cols, dtype=np.int64)
        merged = self.merge_padding and self.mode is not IDMode.PAPER
        if self.mode is IDMode.PAPER:
            formula = paper_ids
        elif self.mode is IDMode.STRICT and not merged:
            formula = strict_ids
        else:
            # Merged padding masks the canonical ID before STRICT's
            # phase is appended, so its tables stay canonical.
            formula = canonical_ids
        self._row_table = formula(self.spec, pix, np.zeros_like(pix))[1]
        self._col_table = formula(self.spec, np.zeros_like(col), col)[1]
        self._pad_mask = None
        self._phase = None
        if merged:
            padded_h = eff.in_height + 2 * eff.pad
            padded_w = eff.in_width + 2 * eff.pad
            py, px = np.divmod(np.arange(padded_h * padded_w), padded_w)
            iy = py - eff.pad
            ix = px - eff.pad
            self._pad_mask = (
                (iy < 0) | (iy >= eff.in_height) | (ix < 0) | (ix >= eff.in_width)
            )
            if self.mode is IDMode.STRICT:
                self._phase = pix % out.width
        # A programmed generator is shared (the replay memoises one per
        # kernel), so its tables are read-only.
        for table in (self._row_table, self._col_table, self._pad_mask, self._phase):
            if table is not None:
                table.setflags(write=False)

    def contains(self, address: int) -> bool:
        """True if ``address`` lies in the workspace region."""
        return self.workspace_base <= address < self.workspace_end

    def address_to_entry(self, address: int) -> Tuple[int, int]:
        """Translate an in-workspace address to its (row, col) entry."""
        if not self.contains(address):
            raise ValueError(f"address {address:#x} outside workspace region")
        offset = address - self.workspace_base
        if offset % self.element_bytes:
            raise ValueError(f"address {address:#x} not element-aligned")
        array_idx = offset // self.element_bytes
        return divmod(array_idx, self.lda)

    def generate(self, address: int) -> GeneratedID:
        """Translate one load address (scalar path, used by Table II)."""
        if not self.contains(address):
            return GeneratedID(in_workspace=False)
        row, col = self.address_to_entry(address)
        if row >= self.logical_rows or col >= self.logical_cols:
            # Alignment-padding entry: zero fill, never duplicated.
            return GeneratedID(in_workspace=False, row=row, col=col)
        batch, element = self.generate_many(
            np.array([row]), np.array([col])
        )
        return GeneratedID(
            in_workspace=True,
            batch_id=int(batch[0]),
            element_id=int(element[0]),
            row=row,
            col=col,
        )

    def generate_many(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised ID generation for entries of the logical workspace.

        ``rows`` and ``cols`` must lie in ``[0, logical_rows)`` and
        ``[0, logical_cols)``: the tables cover the workspace only.
        """
        rows = np.array(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        if rows.size and (
            rows.min() < 0
            or rows.max() >= self.logical_rows
            or cols.min() < 0
            or cols.max() >= self.logical_cols
        ):
            raise IndexError("entries outside the logical workspace")
        return self._lookup(rows, cols)

    def _lookup(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(batch_id, element_id)`` of in-range int64 ``rows`` and
        ``cols``, which it overwrites.

        Each pass writes into a buffer it owns: on large blocks the
        cost of translation is the temporaries, not the arithmetic.
        """
        pixels = self._pixels
        if self.effective.batch > 1:
            batch = rows // pixels
            element = np.multiply(batch, pixels)
            rows -= element  # now the output pixel
        else:
            batch = np.zeros_like(rows)
            element = np.empty_like(rows)
        pix = rows
        # The indices are in range, so "clip" only skips the bounds
        # check (and the copy of ``out`` that checking makes).
        np.take(self._row_table, pix, out=element, mode="clip")
        element += np.take(self._col_table, cols, mode="clip")
        if self._pad_mask is not None:
            np.floor_divide(element, self.effective.in_channels, out=cols)
            element[self._pad_mask[cols]] = MERGED_PADDING_ID
            if self._phase is not None:
                element *= self.effective.output_shape.width
                element += self._phase[pix]
        return batch, element

    def generate_for_addresses(
        self, addresses: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised translation of raw addresses.

        Returns ``(in_workspace, batch_id, element_id)`` arrays; the ID
        entries of out-of-workspace addresses are undefined (-1).
        """
        offset = np.subtract(addresses, self.workspace_base, dtype=np.int64)
        # One unsigned compare checks both ends of the logical rows
        # (the region's alignment-padding rows translate to nothing).
        ok = offset.view(np.uint64) < np.uint64(
            self.logical_rows * self.lda * self.element_bytes
        )
        eb = self.element_bytes
        if eb > 1:
            if eb & (eb - 1) == 0:
                # Power-of-two element size: shift/mask beat the int64
                # divider (and match the hardware unit's circuit).
                ok &= (offset & (eb - 1)) == 0
                offset >>= eb.bit_length() - 1
            else:
                ok &= offset % eb == 0
                offset //= eb
        rows = offset // self.lda
        cols = offset
        cols -= np.multiply(rows, self.lda)
        if self.lda > self.logical_cols:
            ok &= cols < self.logical_cols
        if ok.all():
            batch, element = self._lookup(rows, cols)
        else:
            bad = ~ok
            rows[bad] = 0
            cols[bad] = 0
            batch, element = self._lookup(rows, cols)
            batch[bad] = -1
            element[bad] = -1
        return ok, batch, element
