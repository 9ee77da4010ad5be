"""Lowering (im2col): expanding a convolution input into a workspace.

Lowering turns the deeply nested convolution loop into GEMM (Figure 1
of the paper): every output pixel becomes one *row* of a workspace
matrix holding the flattened receptive field, and the filter bank
becomes the other GEMM operand.  This module provides

* :func:`lower_input` — the actual (vectorised NumPy) im2col, used by
  the GEMM convolution and as ground truth for duplication tests;
* :func:`workspace_entry_to_input_coord` and its vectorised sibling
  :func:`entries_to_padded_flat` — the exact inverse map from a
  workspace entry ``(row, col)`` back to the input coordinate whose
  value it holds.  Two workspace entries are duplicates *iff* they map
  to the same coordinate, which is the ground truth Duplo's ID
  generator must reproduce;
* :func:`col2im` — the scatter-add inverse used by training's data
  gradient, completing the substrate.

Workspace layout (NHWC, matching cuDNN's tensor-core convention from
Section II-B / Figure 4): rows iterate over ``(n, oy, ox)`` and columns
over ``(fy, fx, ch)``, both row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.conv.layer import ConvLayerSpec

#: Sentinel element ID for padding when ``merge_padding`` is enabled.
MERGED_PADDING_ID = -1


@dataclass(frozen=True)
class InputCoord:
    """Input-tensor coordinate referenced by one workspace entry.

    ``is_padding`` marks coordinates that fall outside the (effective)
    input and therefore hold an implicit zero.
    """

    n: int
    iy: int
    ix: int
    ch: int
    is_padding: bool


@dataclass(frozen=True)
class LoweredWorkspace:
    """An explicit im2col workspace plus the spec that produced it."""

    spec: ConvLayerSpec
    matrix: np.ndarray  # (rows, cols)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]


def workspace_shape(spec: ConvLayerSpec) -> Tuple[int, int]:
    """(rows, cols) of the lowered workspace for ``spec``.

    Rows count output pixels across the whole batch; columns count the
    filter volume.  This is the *logical* shape — the GEMM kernel pads
    both to tile multiples separately.
    """
    eff = spec.effective_spec()
    out = eff.output_shape
    return (eff.batch * out.pixels, eff.filter_volume)


def upsample_zero_insert(x: np.ndarray, stride: int, output_pad: int = 0) -> np.ndarray:
    """Zero-insertion upsampling used by transposed convolutions.

    ``x`` is NHWC.  Each spatial gap of ``stride - 1`` zeros is inserted
    between neighbouring pixels, and ``output_pad`` rows/columns of
    zeros are appended at the bottom/right, exactly as the paper
    describes transposed convolution ("upsamples input data by
    inserting zeros before performing a convolution").
    """
    if x.ndim != 4:
        raise ValueError(f"expected NHWC tensor, got shape {x.shape}")
    if stride == 1 and output_pad == 0:
        return x
    n, h, w, c = x.shape
    up_h = (h - 1) * stride + 1 + output_pad
    up_w = (w - 1) * stride + 1 + output_pad
    out = np.zeros((n, up_h, up_w, c), dtype=x.dtype)
    out[:, : (h - 1) * stride + 1 : stride, : (w - 1) * stride + 1 : stride, :] = x
    return out


def _effective_input(spec: ConvLayerSpec, x: np.ndarray) -> np.ndarray:
    """Validate ``x`` against ``spec`` and apply transposed upsampling."""
    expected = spec.input_nhwc
    if tuple(x.shape) != expected:
        raise ValueError(f"input shape {x.shape} != spec shape {expected}")
    if spec.transposed:
        return upsample_zero_insert(x, spec.stride, spec.output_pad)
    return x


def lower_input(spec: ConvLayerSpec, x: np.ndarray) -> LoweredWorkspace:
    """Build the explicit im2col workspace for input ``x`` (NHWC).

    The result's rows follow ``(n, oy, ox)`` and its columns
    ``(fy, fx, ch)``.  Padding positions are materialised as zeros,
    exactly like an explicit-GEMM workspace in global memory.
    """
    eff = spec.effective_spec()
    x_eff = _effective_input(spec, x)
    n, h, w, c = x_eff.shape
    out = eff.output_shape
    pad = eff.pad
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x_eff.dtype)
    padded[:, pad : pad + h, pad : pad + w, :] = x_eff

    # Gather receptive fields with advanced indexing: for each output
    # pixel (oy, ox) and tap (fy, fx) the padded coordinate is
    # (oy * s + fy, ox * s + fx).
    s = eff.stride
    oy = np.arange(out.height) * s
    ox = np.arange(out.width) * s
    fy = np.arange(eff.filter_height)
    fx = np.arange(eff.filter_width)
    iy = oy[:, None] + fy[None, :]  # (OH, kH)
    ix = ox[:, None] + fx[None, :]  # (OW, kW)
    # Broadcasting (OH,1,kH,1) x (1,OW,1,kW) -> (N, OH, OW, kH, kW, C).
    gathered = padded[:, iy[:, None, :, None], ix[None, :, None, :], :]
    matrix = gathered.reshape(n * out.pixels, eff.filter_volume)
    return LoweredWorkspace(spec=spec, matrix=np.ascontiguousarray(matrix))


def workspace_entry_to_input_coord(
    spec: ConvLayerSpec, row: int, col: int
) -> InputCoord:
    """Map one workspace entry back to the input coordinate it holds.

    Coordinates are in the *effective* (post-upsampling) input frame.
    """
    eff = spec.effective_spec()
    rows, cols = workspace_shape(spec)
    if not (0 <= row < rows and 0 <= col < cols):
        raise IndexError(f"entry ({row}, {col}) outside workspace {rows}x{cols}")
    out = eff.output_shape
    n, pix = divmod(row, out.pixels)
    oy, ox = divmod(pix, out.width)
    tap, ch = divmod(col, eff.in_channels)
    fy, fx = divmod(tap, eff.filter_width)
    iy = oy * eff.stride - eff.pad + fy
    ix = ox * eff.stride - eff.pad + fx
    is_padding = not (0 <= iy < eff.in_height and 0 <= ix < eff.in_width)
    return InputCoord(n=n, iy=iy, ix=ix, ch=ch, is_padding=is_padding)


def entries_to_padded_flat(
    spec: ConvLayerSpec,
    rows: np.ndarray,
    cols: np.ndarray,
    merge_padding: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised inverse map: workspace entries -> (batch_id, element_id).

    ``element_id`` indexes the *virtual padded input* of one image
    (size ``(H + 2p) * (W + 2p) * C``), so two entries share an
    element ID iff they reference the same input value (including a
    shared padding zero at the same padded coordinate).  This is the
    canonical, exact form of the paper's Section III identification
    mechanism; see ``repro.core.idgen`` for the published closed-form
    variant.

    With ``merge_padding=True`` every padding entry collapses to
    :data:`MERGED_PADDING_ID` (all padding zeros are value-identical,
    an ablation the paper does not exploit).
    """
    eff = spec.effective_spec()
    out = eff.output_shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)

    # int32 division is measurably faster than int64, and the row/col
    # indices of any realistic workspace fit comfortably.
    if (
        rows.size
        and int(rows.min()) >= 0
        and int(rows.max()) < 2**31
        and int(cols.min()) >= 0
        and int(cols.max()) < 2**31
    ):
        r32 = rows.astype(np.int32)
        c32 = cols.astype(np.int32)
        n, pix = np.divmod(r32, np.int32(out.pixels))
        oy, ox = np.divmod(pix, np.int32(out.width))
        tap, ch = np.divmod(c32, np.int32(eff.in_channels))
        fy, fx = np.divmod(tap, np.int32(eff.filter_width))
        n = n.astype(np.int64)
    else:
        n, pix = np.divmod(rows, out.pixels)
        oy, ox = np.divmod(pix, out.width)
        tap, ch = np.divmod(cols, eff.in_channels)
        fy, fx = np.divmod(tap, eff.filter_width)
    py = oy.astype(np.int64) * eff.stride + fy  # padded-frame coords
    px = ox.astype(np.int64) * eff.stride + fx
    padded_w = eff.in_width + 2 * eff.pad
    element_id = (py * padded_w + px) * eff.in_channels + ch
    if merge_padding:
        iy = py - eff.pad
        ix = px - eff.pad
        is_pad = (
            (iy < 0)
            | (iy >= eff.in_height)
            | (ix < 0)
            | (ix >= eff.in_width)
        )
        element_id = np.where(is_pad, MERGED_PADDING_ID, element_id)
    return n, element_id


def unique_element_count(spec: ConvLayerSpec, merge_padding: bool = False) -> int:
    """Number of distinct (batch, element) IDs across the full workspace.

    Each image touches the padded coordinates ``oy * s + fy`` (and
    likewise in x); the touched set is the Cartesian product of the
    per-axis sets, which is contiguous when the filter covers the
    stride and gapped otherwise.  Padding merge collapses every
    padding coordinate onto a single shared ID.
    """
    eff = spec.effective_spec()
    out = eff.output_shape

    def touched(extent: int, filt: int, limit: int) -> np.ndarray:
        coords = (
            np.arange(extent)[:, None] * eff.stride + np.arange(filt)[None, :]
        )
        return np.unique(coords)

    ys = touched(out.height, eff.filter_height, eff.in_height)
    xs = touched(out.width, eff.filter_width, eff.in_width)
    per_image = ys.size * xs.size * eff.in_channels
    if merge_padding:
        interior_y = (
            (ys >= eff.pad) & (ys < eff.pad + eff.in_height)
        ).sum()
        interior_x = (
            (xs >= eff.pad) & (xs < eff.pad + eff.in_width)
        ).sum()
        interior = int(interior_y) * int(interior_x) * eff.in_channels
        has_padding = interior < per_image
        per_image = interior + (1 if has_padding else 0)
    return eff.batch * per_image


def col2im(
    spec: ConvLayerSpec, matrix: np.ndarray, accumulate: Optional[np.ndarray] = None
) -> np.ndarray:
    """Scatter-add a workspace back onto the (effective) input frame.

    The adjoint of :func:`lower_input`: entries mapping to the same
    input coordinate are summed, and padding entries are dropped.  Used
    by the data-gradient path of training and by tests asserting the
    forward/inverse maps agree.
    """
    eff = spec.effective_spec()
    rows, cols = workspace_shape(spec)
    if tuple(matrix.shape) != (rows, cols):
        raise ValueError(f"matrix shape {matrix.shape} != workspace {rows}x{cols}")
    result = accumulate
    if result is None:
        result = np.zeros(
            (eff.batch, eff.in_height, eff.in_width, eff.in_channels),
            dtype=matrix.dtype,
        )
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    batch, element = entries_to_padded_flat(spec, rr.ravel(), cc.ravel())
    padded_w = eff.in_width + 2 * eff.pad
    py, rem = np.divmod(element, padded_w * eff.in_channels)
    px, ch = np.divmod(rem, eff.in_channels)
    iy = py - eff.pad
    ix = px - eff.pad
    keep = (
        (iy >= 0) & (iy < eff.in_height) & (ix >= 0) & (ix < eff.in_width)
    )
    np.add.at(
        result,
        (batch[keep], iy[keep], ix[keep], ch[keep]),
        matrix.ravel()[keep],
    )
    return result
