"""Winograd convolution: F(2x2, 3x3) and F(4x4, 3x3).

One of the two transform-domain methods the paper compares against
(Figures 2 and 3).  A filter and input tile are mapped into the
Winograd domain, where convolution becomes an element-wise product,
and the result is mapped back — trading multiplications (2.25x fewer
for F(2x2, 3x3); 4x for F(4x4, 3x3)) for transform memory and
numerical headroom [41].

Applicability mirrors the paper's discussion: the algorithm works only
for specific small filters and only with unit stride, which is why the
GAN layers (stride 2) and ResNet C1 (7x7) have no Winograd bars in the
figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.conv.layer import ConvLayerSpec

#: Filter sizes the Winograd implementation/cost model supports.
SUPPORTED_FILTER_SIZES = (3,)


@dataclass(frozen=True)
class WinogradVariant:
    """One F(m x m, r x r) algorithm: its transform matrices.

    ``bt`` maps an input tile to the transform domain, ``g`` maps a
    filter, ``at`` maps the product back; shapes follow Lavin & Gray,
    "Fast Algorithms for Convolutional Neural Networks".
    """

    name: str
    tile_out: int  # m
    filter_size: int  # r
    bt: np.ndarray  # (m+r-1, m+r-1)
    g: np.ndarray  # (m+r-1, r)
    at: np.ndarray  # (m, m+r-1)

    @property
    def tile_in(self) -> int:
        return self.tile_out + self.filter_size - 1

    @property
    def mac_reduction(self) -> float:
        """Direct multiplications per Winograd multiplication."""
        direct = (self.tile_out * self.filter_size) ** 2
        return direct / self.tile_in**2

    def __post_init__(self) -> None:
        t = self.tile_in
        if self.bt.shape != (t, t):
            raise ValueError(f"B^T must be {t}x{t}, got {self.bt.shape}")
        if self.g.shape != (t, self.filter_size):
            raise ValueError(f"G must be {t}x{self.filter_size}")
        if self.at.shape != (self.tile_out, t):
            raise ValueError(f"A^T must be {self.tile_out}x{t}")


F_2X2_3X3 = WinogradVariant(
    name="F(2x2,3x3)",
    tile_out=2,
    filter_size=3,
    bt=np.array(
        [
            [1, 0, -1, 0],
            [0, 1, 1, 0],
            [0, -1, 1, 0],
            [0, 1, 0, -1],
        ],
        dtype=np.float64,
    ),
    g=np.array(
        [
            [1.0, 0.0, 0.0],
            [0.5, 0.5, 0.5],
            [0.5, -0.5, 0.5],
            [0.0, 0.0, 1.0],
        ],
        dtype=np.float64,
    ),
    at=np.array(
        [
            [1, 1, 1, 0],
            [0, 1, -1, -1],
        ],
        dtype=np.float64,
    ),
)

F_4X4_3X3 = WinogradVariant(
    name="F(4x4,3x3)",
    tile_out=4,
    filter_size=3,
    bt=np.array(
        [
            [4, 0, -5, 0, 1, 0],
            [0, -4, -4, 1, 1, 0],
            [0, 4, -4, -1, 1, 0],
            [0, -2, -1, 2, 1, 0],
            [0, 2, -1, -2, 1, 0],
            [0, 4, 0, -5, 0, 1],
        ],
        dtype=np.float64,
    ),
    g=np.array(
        [
            [1 / 4, 0, 0],
            [-1 / 6, -1 / 6, -1 / 6],
            [-1 / 6, 1 / 6, -1 / 6],
            [1 / 24, 1 / 12, 1 / 6],
            [1 / 24, -1 / 12, 1 / 6],
            [0, 0, 1],
        ],
        dtype=np.float64,
    ),
    at=np.array(
        [
            [1, 1, 1, 1, 1, 0],
            [0, 1, -1, 2, -2, 0],
            [0, 1, 1, 4, 4, 0],
            [0, 1, -1, 8, -8, 1],
        ],
        dtype=np.float64,
    ),
)

#: Default algorithm (what the figures' Winograd bars model).
DEFAULT_VARIANT = F_2X2_3X3


def winograd_applicable(spec: ConvLayerSpec) -> bool:
    """True if Winograd convolution can run this layer.

    Requires a square filter of a supported size, unit stride, and a
    forward (non-transposed) convolution — the conditions under which
    cuDNN offers a Winograd algorithm.
    """
    return (
        not spec.transposed
        and spec.stride == 1
        and spec.filter_height == spec.filter_width
        and spec.filter_height in SUPPORTED_FILTER_SIZES
    )


def transform_filters(
    filters: np.ndarray, variant: WinogradVariant = DEFAULT_VARIANT
) -> np.ndarray:
    """Map a (K, r, r, C) filter bank into the Winograd domain.

    Returns U with shape (t, t, C, K) where t = m + r - 1.
    """
    k, kh, kw, c = filters.shape
    r = variant.filter_size
    if (kh, kw) != (r, r):
        raise ValueError(f"{variant.name} needs {r}x{r} filters, got {kh}x{kw}")
    # g -> G g G^T per (K, C) slice: einsum over the two spatial axes.
    return np.einsum(
        "ij,kjlc,ml->imck", variant.g, filters.astype(np.float64), variant.g
    )


def winograd_convolution(
    spec: ConvLayerSpec,
    x: np.ndarray,
    filters: np.ndarray,
    variant: WinogradVariant = DEFAULT_VARIANT,
) -> np.ndarray:
    """Convolve via Winograd.  NHWC in, NHWC out.

    Raises ``ValueError`` when :func:`winograd_applicable` is False,
    matching the missing bars in the paper's figures.
    """
    if not winograd_applicable(spec):
        raise ValueError(f"Winograd inapplicable to {spec.qualified_name}: {spec}")
    if tuple(filters.shape) != spec.filter_nhwc:
        raise ValueError(
            f"filter shape {filters.shape} != spec shape {spec.filter_nhwc}"
        )
    m = variant.tile_out
    t = variant.tile_in
    out = spec.output_shape
    n = spec.batch
    c = spec.in_channels
    k = spec.num_filters
    pad = spec.pad

    tiles_y = -(-out.height // m)
    tiles_x = -(-out.width // m)
    # Pad so every t x t input tile (stride m) is in range.
    need_h = (tiles_y - 1) * m + t
    need_w = (tiles_x - 1) * m + t
    padded = np.zeros(
        (
            n,
            max(need_h, spec.in_height + 2 * pad),
            max(need_w, spec.in_width + 2 * pad),
            c,
        ),
        dtype=np.float64,
    )
    padded[:, pad : pad + spec.in_height, pad : pad + spec.in_width, :] = x

    # Gather all t x t input tiles: (N, tiles_y, tiles_x, t, t, C).
    ty = np.arange(tiles_y) * m
    tx = np.arange(tiles_x) * m
    iy = ty[:, None] + np.arange(t)[None, :]  # (tiles_y, t)
    ix = tx[:, None] + np.arange(t)[None, :]  # (tiles_x, t)
    tiles = padded[:, iy[:, None, :, None], ix[None, :, None, :], :]

    # V = B^T d B over the two spatial axes.
    v = np.einsum("ij,ntxjlc,ml->ntximc", variant.bt, tiles, variant.bt)
    u = transform_filters(filters, variant)  # (t, t, C, K)
    # Element-wise product in the transform domain + channel reduction.
    prod = np.einsum("ntxijc,ijck->ntxijk", v, u)
    # Y = A^T M A: (N, ty, tx, m, m, K).
    y = np.einsum("pi,ntxijk,qj->ntxpqk", variant.at, prod, variant.at)
    # Scatter tiles back to (N, OH_padded, OW_padded, K) and crop.
    full = y.transpose(0, 1, 3, 2, 4, 5).reshape(n, tiles_y * m, tiles_x * m, k)
    return np.ascontiguousarray(full[:, : out.height, : out.width, :])


def winograd_mac_count(
    spec: ConvLayerSpec, variant: WinogradVariant = DEFAULT_VARIANT
) -> int:
    """Multiplications in the transform-domain product stage.

    F(2x2, 3x3) computes a 2x2 output tile with 16 multiplications per
    channel instead of 36 — the 2.25x arithmetic reduction (4x for
    F(4x4, 3x3)).  Transform costs are additions and are accounted
    separately by the cost model.
    """
    if not winograd_applicable(spec):
        raise ValueError(f"Winograd inapplicable to {spec.qualified_name}")
    m, t = variant.tile_out, variant.tile_in
    out = spec.output_shape
    tiles = spec.batch * (-(-out.height // m)) * (-(-out.width // m))
    return tiles * t * t * spec.in_channels * spec.num_filters


def winograd_workspace_bytes(
    spec: ConvLayerSpec,
    element_bytes: int = 4,
    variant: WinogradVariant = DEFAULT_VARIANT,
) -> int:
    """Transform-domain memory: U, V, and M buffers.

    V (transformed input) dominates: t^2 values per m x m output tile
    per channel, plus the transformed filters and the
    pre-inverse-transform output.  Transforms are held in fp32
    (``element_bytes=4``) as library implementations do for numerical
    stability [41], which is part of why Figure 3 measures Winograd at
    12.2x the direct footprint.
    """
    if not winograd_applicable(spec):
        raise ValueError(f"Winograd inapplicable to {spec.qualified_name}")
    m, t = variant.tile_out, variant.tile_in
    out = spec.output_shape
    tiles = spec.batch * (-(-out.height // m)) * (-(-out.width // m))
    v_elems = tiles * t * t * spec.in_channels
    u_elems = t * t * spec.in_channels * spec.num_filters
    m_elems = tiles * t * t * spec.num_filters
    return (v_elems + u_elems + m_elems) * element_bytes
