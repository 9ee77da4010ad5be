"""Differential fuzzing and block invariants of trace synthesis.

The closed-form columnar synthesizer (:mod:`repro.gpu.kernel`'s
``TracePlan``) claims *bit-identical* traces to the per-turn event
loop of :mod:`tests.trace_loop_oracle` for every configuration — and
its blockwise form (:meth:`~repro.gpu.kernel.TracePlan.iter_blocks`)
claims block boundaries are invisible: any block size concatenates to
the same columns and replays to the same LayerStats.  Hypothesis hunts
the corners a fixed matrix misses: degenerate geometries, guard-clipped
warp tiles, ``max_ctas`` truncation, run-ahead values coprime to the
k-depth, and implicit-mode staging chunks straddling turn boundaries.

Tier-1 runs a small number of examples per property (override with
``REPRO_FUZZ_EXAMPLES``); the ``slow``-marked variant goes deep in
the CI fuzz lanes.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.conv.attention import gemm_layer
from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.config import (
    BASELINE_KERNEL,
    IMPLICIT_KERNEL,
    SimulationOptions,
    TITAN_V,
)
from repro.gpu.fastpath import replay_blocks_fast, replay_trace_fast
from repro.gpu.kernel import (
    gemm_geometry,
    generate_sm_trace,
    plan_sm_trace,
    sm_cta_blocks,
)
from repro.gpu.ldst import EliminationMode

from tests.conftest import make_spec
from tests.trace_loop_oracle import generate_sm_trace_loop

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))
SLOW_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES_SLOW", "300"))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def gen_cases(draw):
    """Layer geometry x fragment geometry x kernel tiling x options.

    The fragment axis mirrors the architecture zoo: non-square wmma
    tiles and INT8/FP8 operand widths; the layer axis mixes conv
    geometries with attention-style GEMMs (1x1 identity embedding).
    """
    if draw(st.booleans()) and draw(st.booleans()):  # ~25% attention GEMM
        spec = gemm_layer(
            "genfuzzgemm",
            batch=draw(st.integers(1, 2)),
            m=draw(st.sampled_from([5, 19, 40])),
            n=draw(st.sampled_from([1, 16, 33])),
            k=draw(st.sampled_from([4, 24, 48])),
            network="genfuzz",
        )
    else:
        h = draw(st.integers(2, 6))
        w = draw(st.integers(2, 6))
        pad = draw(st.integers(0, 2))
        spec = make_spec(
            name="genfuzz",
            batch=draw(st.integers(1, 2)),
            h=h,
            w=w,
            c=draw(st.sampled_from([1, 2, 4, 8])),
            filters=draw(st.sampled_from([1, 4, 16])),
            kh=draw(st.integers(1, min(3, h + 2 * pad))),
            kw=draw(st.integers(1, min(3, w + 2 * pad))),
            pad=pad,
            stride=draw(st.integers(1, 2)),
        )
    tile_k = draw(st.sampled_from([8, 16, 32]))
    gpu = dataclasses.replace(
        TITAN_V,
        tile_m=draw(st.sampled_from([8, 16, 32])),
        tile_n=draw(st.sampled_from([8, 16, 32])),
        tile_k=tile_k,
        element_bytes=draw(st.sampled_from([1, 2])),
    )
    base = IMPLICIT_KERNEL if draw(st.booleans()) else BASELINE_KERNEL
    kernel = dataclasses.replace(
        base,
        warp_runahead=draw(st.sampled_from([1, 2, 3, 7, 32])),
        # Must decompose into both the legacy 16-wide wmma tile and
        # the drawn tile_k (validate_arch's stage constraint).
        stage_k=draw(
            st.sampled_from([s for s in (16, 32, 64) if s % tile_k == 0])
        ),
    )
    # SM 1 stands in only where it runs a CTA; an idle SM is rejected.
    sm = draw(st.sampled_from([0, 1]))
    if not sm_cta_blocks(gemm_geometry(spec, gpu), kernel, gpu, sm)[0]:
        sm = 0
    options = SimulationOptions(
        max_ctas=draw(st.sampled_from([None, 1, 2, 5])),
        representative_sm=sm,
    )
    return spec, gpu, kernel, options


def _columns_equal(a, b, context):
    for field in ("kind", "address", "warp", "instr"):
        np.testing.assert_array_equal(
            getattr(a, field), getattr(b, field),
            err_msg=f"{field}: {context}",
        )
    assert a.meta() == b.meta(), context


# ----------------------------------------------------------------------
# Vectorised synthesizer vs the per-turn loop oracle
# ----------------------------------------------------------------------

@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=gen_cases())
def test_vectorized_matches_legacy_loop(case):
    """The tentpole bit-identity claim, fuzzed: same columns, same
    scalar meta, for explicit and implicit kernels, any fragment
    geometry, any run-ahead, any ``max_ctas`` truncation."""
    spec, gpu, kernel, options = case
    vec = generate_sm_trace(spec, gpu, kernel, options)
    loop = generate_sm_trace_loop(spec, gpu, kernel, options)
    _columns_equal(vec, loop, (spec.name, gpu, kernel, options))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=gen_cases(), block=st.sampled_from([1, 17, 256, 1 << 20]))
def test_block_streaming_is_boundary_invariant(case, block):
    """Concatenating ``TracePlan.iter_blocks`` output reproduces the
    single-shot trace for any block budget, and the closed-form
    ``event_count`` prices it exactly."""
    spec, gpu, kernel, options = case
    full = generate_sm_trace(spec, gpu, kernel, options)
    plan = plan_sm_trace(spec, gpu, kernel, options)
    assert plan.event_count() == len(full)
    blocks = list(plan.iter_blocks(block))
    assert all(len(b) for b in blocks)
    blocked = plan.make_trace(
        np.concatenate([b.kind for b in blocks]),
        np.concatenate([b.address for b in blocks]),
        np.concatenate([b.warp for b in blocks]),
        np.concatenate([b.instr for b in blocks]),
    )
    _columns_equal(blocked, full, (spec.name, kernel, options, block))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    case=gen_cases(),
    block=st.sampled_from([1, 64, 4096]),
    mode=st.sampled_from(list(EliminationMode)),
)
def test_streaming_replay_matches_in_memory(case, block, mode):
    """``replay_blocks_fast`` over streamed blocks equals the
    in-memory replay on every LayerStats counter."""
    spec, gpu, kernel, options = case
    trace = generate_sm_trace(spec, gpu, kernel, options)
    plan = plan_sm_trace(spec, gpu, kernel, options)

    def lhb():
        if mode is EliminationMode.BASELINE:
            return None
        return LoadHistoryBuffer(num_entries=64, assoc=4, lifetime=128)

    ref = replay_trace_fast(trace, spec, gpu, options, mode, lhb())
    got = replay_blocks_fast(
        plan.iter_blocks(block), plan.meta(), spec, gpu, options,
        mode, lhb(),
    )
    assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
        spec.name, gpu, kernel, options, block, mode
    )


# ----------------------------------------------------------------------
# Fixed-point checks (no hypothesis)
# ----------------------------------------------------------------------

SPEC = make_spec(name="gen", h=10, w=10, c=8, filters=16)


def test_gen_counters_published():
    obs.enable()
    obs.reset()
    try:
        trace = generate_sm_trace(SPEC, TITAN_V, BASELINE_KERNEL,
                                  SimulationOptions(max_ctas=1))
        counters = obs.counters_with_prefix("gen.")
        assert counters["gen.traces"] == 1
        assert counters["gen.events"] == len(trace)
    finally:
        obs.disable()
        obs.reset()


# ----------------------------------------------------------------------
# Deep variant (slow lane)
# ----------------------------------------------------------------------

@pytest.mark.slow
@settings(max_examples=SLOW_EXAMPLES, deadline=None)
@given(case=gen_cases())
def test_vectorized_matches_legacy_loop_deep(case):
    test_vectorized_matches_legacy_loop.hypothesis.inner_test(case)
