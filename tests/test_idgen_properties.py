"""Property-based ID-generation tests (hypothesis).

Ground truth is derived *forward*: walk the im2col definition with a
plain Python loop (output pixel × filter tap × channel) and record
which padded-input coordinate each workspace entry reads.  The
canonical generator must agree entry-for-entry, and two workspace
addresses must share a ``(batch_id, element_id)`` pair iff they read
the same input element.

The generator's per-row and per-column tables must reproduce each
closed form (``paper_ids``, ``canonical_ids``, ``strict_ids``) on any
workspace entry, in every mode and with padding merged or not.

The published closed-form ``paper_ids`` are characterised rather than
asserted equal: they coincide with the canonical ground truth exactly
on zero-padding layers whose output is square (which covers the
paper's Figure 6 example and tabulated geometry), and demonstrably
diverge on padded and non-square layers.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.conv.layer import ConvLayerSpec
from repro.conv.lowering import workspace_shape
from repro.core.idgen import (
    IDGenerator,
    IDMode,
    canonical_ids,
    paper_ids,
    strict_ids,
)
from repro.gpu.isa import WORKSPACE_BASE


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def small_specs(draw):
    """Random small layers, padded/strided/multi-batch/non-square."""
    h = draw(st.integers(2, 6))
    w = draw(st.integers(2, 6))
    pad = draw(st.integers(0, 2))
    kh = draw(st.integers(1, min(3, h + 2 * pad)))
    kw = draw(st.integers(1, min(3, w + 2 * pad)))
    return ConvLayerSpec(
        name="hyp",
        network="test",
        batch=draw(st.integers(1, 2)),
        in_height=h,
        in_width=w,
        in_channels=draw(st.integers(1, 3)),
        num_filters=draw(st.integers(1, 4)),
        filter_height=kh,
        filter_width=kw,
        pad=pad,
        stride=draw(st.integers(1, 2)),
    )


@st.composite
def translation_specs(draw):
    """Layers for address-translation properties, transposed included.

    Transposed layers exercise the zero-insertion upsampling path: the
    generator must translate against the *effective* (post-upsampling,
    unit-stride) geometry, which is where a vectorised rewrite would
    most plausibly drift from the scalar model.
    """
    transposed = draw(st.booleans())
    h = draw(st.integers(2, 4))
    w = draw(st.integers(2, 4))
    stride = draw(st.integers(1, 2))
    output_pad = draw(st.integers(0, stride - 1)) if transposed else 0
    pad = draw(st.integers(0, 2))
    if transposed:
        eff_h = (h - 1) * stride + 1 + output_pad
        eff_w = (w - 1) * stride + 1 + output_pad
    else:
        eff_h, eff_w = h, w
    return ConvLayerSpec(
        name="hyp-t" if transposed else "hyp-f",
        network="test",
        batch=draw(st.integers(1, 2)),
        in_height=h,
        in_width=w,
        in_channels=draw(st.integers(1, 2)),
        num_filters=draw(st.integers(1, 4)),
        filter_height=draw(st.integers(1, min(3, eff_h + 2 * pad))),
        filter_width=draw(st.integers(1, min(3, eff_w + 2 * pad))),
        pad=pad,
        stride=stride,
        transposed=transposed,
        output_pad=output_pad,
    )


# ----------------------------------------------------------------------
# Forward ground truth
# ----------------------------------------------------------------------

def forward_im2col_sources(spec):
    """(rows, cols) array of padded-coordinate triples per entry.

    ``sources[r, c] = (batch, padded_flat)`` computed straight from
    the im2col definition — independent of the vectorised inverse map
    under test.
    """
    eff = spec.effective_spec()
    out = eff.output_shape
    rows, cols = workspace_shape(spec)
    padded_w = eff.in_width + 2 * eff.pad
    batch = np.empty((rows, cols), dtype=np.int64)
    flat = np.empty((rows, cols), dtype=np.int64)
    for n in range(eff.batch):
        for oy in range(out.height):
            for ox in range(out.width):
                r = (n * out.height + oy) * out.width + ox
                for fy in range(eff.filter_height):
                    for fx in range(eff.filter_width):
                        for ch in range(eff.in_channels):
                            c = (fy * eff.filter_width + fx) * eff.in_channels + ch
                            py = oy * eff.stride + fy
                            px = ox * eff.stride + fx
                            batch[r, c] = n
                            flat[r, c] = (py * padded_w + px) * eff.in_channels + ch
    return batch, flat


def all_entries(spec):
    rows, cols = workspace_shape(spec)
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    return r.ravel(), c.ravel()


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(small_specs())
def test_canonical_matches_forward_ground_truth(spec):
    rows, cols = all_entries(spec)
    gt_batch, gt_flat = forward_im2col_sources(spec)
    batch, element = canonical_ids(spec, rows, cols)
    np.testing.assert_array_equal(batch, gt_batch.ravel())
    np.testing.assert_array_equal(element, gt_flat.ravel())


@settings(max_examples=30, deadline=None)
@given(small_specs())
def test_ids_equal_iff_same_input_element(spec):
    """Address-level: IDs partition the workspace by source element."""
    n_rows, n_cols = workspace_shape(spec)
    lda = n_cols + 2  # non-trivial pitch: includes alignment padding
    gen = IDGenerator(spec, WORKSPACE_BASE, lda, mode=IDMode.CANONICAL)
    gt_batch, gt_flat = forward_im2col_sources(spec)

    addresses = WORKSPACE_BASE + 2 * np.arange(
        (gen.workspace_end - WORKSPACE_BASE) // 2
    )
    ok, batch, element = gen.generate_for_addresses(addresses)

    idx = (addresses - WORKSPACE_BASE) // 2
    rows, cols = np.divmod(idx, lda)
    logical = (rows < n_rows) & (cols < n_cols)
    # Workspace-region addresses outside the logical array (alignment
    # padding) must be rejected; logical entries accepted.
    np.testing.assert_array_equal(ok, logical)

    ids = {}
    for i in np.nonzero(ok)[0]:
        r, c = int(rows[i]), int(cols[i])
        pair = (int(batch[i]), int(element[i]))
        source = (int(gt_batch[r, c]), int(gt_flat[r, c]))
        # Same ID <-> same source element, checked both directions
        # via bijection between ID pairs and sources.
        if pair in ids:
            assert ids[pair] == source
        else:
            ids[pair] = source
    assert len(set(ids.values())) == len(ids)


#: Every ID formula with padding merged or not (PAPER ignores merging).
ID_CONFIGS = [
    (mode, merge) for mode in IDMode for merge in (False, True)
]


def closed_form(spec, mode, merge_padding, rows, cols):
    """The closed form ``mode`` names, evaluated directly."""
    if mode is IDMode.PAPER:
        return paper_ids(spec, rows, cols)
    if mode is IDMode.STRICT:
        return strict_ids(spec, rows, cols, merge_padding)
    return canonical_ids(spec, rows, cols, merge_padding)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(small_specs(), translation_specs()),
    st.sampled_from(ID_CONFIGS),
    st.integers(0, 2**32 - 1),
)
def test_tables_match_closed_forms(spec, config, seed):
    """``generate_many``'s two-table lookup equals the closed form of
    its mode on random entries (and the workspace corners) of strided,
    transposed and multi-batch layers."""
    mode, merge = config
    n_rows, n_cols = workspace_shape(spec)
    gen = IDGenerator(
        spec, WORKSPACE_BASE, n_cols, mode=mode, merge_padding=merge
    )
    rng = np.random.RandomState(seed)
    rows = np.concatenate([
        [0, 0, n_rows - 1, n_rows - 1], rng.randint(0, n_rows, size=256)
    ])
    cols = np.concatenate([
        [0, n_cols - 1, 0, n_cols - 1], rng.randint(0, n_cols, size=256)
    ])
    batch, element = gen.generate_many(rows, cols)
    expected_batch, expected_element = closed_form(
        spec, mode, merge, rows, cols
    )
    np.testing.assert_array_equal(batch, expected_batch)
    np.testing.assert_array_equal(element, expected_element)


@settings(max_examples=60, deadline=None)
@given(
    translation_specs(),
    st.integers(0, 3),
    st.sampled_from([1, 2, 4, 3]),
    st.sampled_from(ID_CONFIGS),
    st.integers(0, 2**32 - 1),
)
def test_vectorized_translation_matches_scalar(
    spec, extra_pitch, element_bytes, config, seed
):
    """``generate_for_addresses`` must agree with the scalar
    ``generate`` on every address — in-workspace, alignment-padding
    rows and columns, out-of-range and misaligned alike — in every ID
    mode, with padding merged or not.  The vectorised path shifts and
    masks for power-of-two element sizes, divides otherwise (hence
    ``element_bytes=3``) and skips the alignment test for bytes; the
    scalar path is the straightforward divmod model, so agreement pins
    the rewrite.  Specs include padded and transposed (zero-insertion)
    layers.
    """
    mode, merge = config
    n_rows, n_cols = workspace_shape(spec)
    lda = n_cols + extra_pitch
    gen = IDGenerator(
        spec, WORKSPACE_BASE, lda,
        element_bytes=element_bytes, mode=mode, merge_padding=merge,
    )
    span = gen.workspace_end - WORKSPACE_BASE
    rng = np.random.RandomState(seed)

    def entry(row, col):
        return WORKSPACE_BASE + (row * lda + col) * element_bytes

    addresses = np.concatenate([
        # Region edges, one element in/out on each side.
        WORKSPACE_BASE + np.array([
            -element_bytes, -1, 0, span - 1, span, span + element_bytes,
        ]),
        # The first alignment-padding row and, with a wider pitch, the
        # first padding column of the first and last logical rows.
        [entry(n_rows, 0), entry(0, n_cols), entry(n_rows - 1, n_cols)],
        # Random sample across the region, aligned or not.
        WORKSPACE_BASE + rng.randint(
            -2 * element_bytes, span + 2 * element_bytes, size=200
        ),
        # Aligned sample: guaranteed to hit the scalar ID arithmetic.
        WORKSPACE_BASE + element_bytes * rng.randint(
            0, max(1, span // element_bytes), size=200
        ),
    ])
    ok, batch, element = gen.generate_for_addresses(addresses)
    for i, addr in enumerate(addresses.tolist()):
        if gen.contains(addr) and (addr - WORKSPACE_BASE) % element_bytes:
            # Scalar path raises on misaligned in-region addresses; the
            # vectorised path must reject them.
            assert not ok[i]
            continue
        g = gen.generate(addr)
        assert bool(ok[i]) == g.in_workspace, addr
        if g.in_workspace:
            assert int(batch[i]) == g.batch_id
            assert int(element[i]) == g.element_id
        else:
            assert int(batch[i]) == int(element[i]) == -1


@settings(max_examples=30, deadline=None)
@given(small_specs())
def test_paper_ids_exact_on_unpadded_square_outputs(spec):
    """Characterisation, agreement half: with no padding and a square
    output the published formulas reproduce the ground truth."""
    out = spec.effective_spec().output_shape
    if spec.pad != 0 or out.height != out.width:
        return  # divergence regime — covered by the fixed examples
    rows, cols = all_entries(spec)
    pb, pe = paper_ids(spec, rows, cols)
    cb, ce = canonical_ids(spec, rows, cols)
    np.testing.assert_array_equal(pb, cb)
    np.testing.assert_array_equal(pe, ce)


def _partition(batch, element):
    groups = {}
    for i, pair in enumerate(zip(batch.tolist(), element.tolist())):
        groups.setdefault(pair, []).append(i)
    return sorted(map(tuple, groups.values()))


class TestPaperDivergence:
    """Characterisation, divergence half: where the closed forms break.

    Not merely different labels — the *partitions* differ, i.e. the
    paper formulas merge or split duplicate classes on these layers.
    """

    def test_padded_layer_diverges(self):
        spec = ConvLayerSpec("pad", "test", 1, 6, 6, 2, 4, 3, 3, 1, 1)
        rows, cols = all_entries(spec)
        pb, pe = paper_ids(spec, rows, cols)
        cb, ce = canonical_ids(spec, rows, cols)
        assert not (
            np.array_equal(pb, cb) and np.array_equal(pe, ce)
        )
        assert _partition(pb, pe) != _partition(cb, ce)

    def test_non_square_output_diverges(self):
        spec = ConvLayerSpec("rect", "test", 1, 6, 4, 2, 4, 3, 3, 0, 1)
        rows, cols = all_entries(spec)
        pb, pe = paper_ids(spec, rows, cols)
        cb, ce = canonical_ids(spec, rows, cols)
        assert _partition(pb, pe) != _partition(cb, ce)

    def test_unpadded_square_agrees(self):
        """Control: the agreement regime really does agree (the
        Figure 6 worked example is the 4x4/3x3/pad-0 instance)."""
        spec = ConvLayerSpec("fig6", "test", 1, 4, 4, 1, 1, 3, 3, 0, 1)
        rows, cols = all_entries(spec)
        pb, pe = paper_ids(spec, rows, cols)
        cb, ce = canonical_ids(spec, rows, cols)
        np.testing.assert_array_equal(pb, cb)
        np.testing.assert_array_equal(pe, ce)
