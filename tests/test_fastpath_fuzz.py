"""Differential fuzzing: vectorised replay vs. the event-level path.

The closed forms in :mod:`repro.gpu.fastpath` claim *bit-identical*
counters to the stateful models for every configuration they accept —
including the two paths added last (offline per-set LRU for
set-associative LHBs, PID-folded tags for multi-kernel interleavings).
Hypothesis hunts the corners a fixed test matrix misses: degenerate
stream lengths, negative (merged-padding) element IDs, lifetime
windows straddling chunk boundaries, single-set buffers, chunk sizes
coprime to stream lengths, and tiny cache geometries.

Tier-1 runs a small number of examples per property (override with
``REPRO_FUZZ_EXAMPLES``); the ``slow``-marked variants go deep and run
in the scheduled/CI lanes only.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conv.attention import gemm_layer
from repro.core.idgen import IDMode
from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.config import (
    BASELINE_KERNEL,
    GPUConfig,
    SimulationOptions,
)
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.fastpath import (
    clear_fed_memo,
    lru_hit_mask,
    replay_trace_fast,
    simulate_lhb_stream,
)
from repro.gpu.kernel import generate_sm_trace
from repro.gpu.ldst import EliminationMode, replay_trace
from repro.gpu.multikernel import _interleave

from tests.conftest import make_spec

#: Example budget for the tier-1 (fast) properties.  The slow variants
#: multiply this up; both knobs are environment-tunable so the CI fuzz
#: lane can go deeper without a code change.
MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))
SLOW_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES_SLOW", "300"))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def lhb_configs(draw):
    """Every buffer organisation: direct-mapped through single-set
    fully-associative, oracle, finite/infinite lifetimes."""
    if draw(st.booleans()) and draw(st.booleans()):  # ~25% oracle
        entries, assoc = None, 1
    else:
        assoc = draw(st.sampled_from([1, 2, 4, 8]))
        entries = assoc * draw(st.sampled_from([1, 2, 4, 16]))
    return dict(
        num_entries=entries,
        assoc=assoc,
        lifetime=draw(st.sampled_from([None, 1, 2, 3, 8, 33, 4096])),
        hashed_index=draw(st.booleans()),
    )


@st.composite
def lookup_streams(draw, max_len=160, max_pids=3):
    """(element, batch, pid) int64 arrays of one synthetic stream.

    Element IDs include negatives (the merged-padding convention) and
    ranges both tighter and wider than any buffer under test.
    """
    n = draw(st.integers(0, max_len))
    hi = draw(st.sampled_from([1, 3, 9, 40, 300]))
    lo = -draw(st.sampled_from([0, 0, 1, 5]))
    element = draw(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    )
    batch = draw(
        st.lists(st.integers(0, 2), min_size=n, max_size=n)
    )
    pid = draw(
        st.lists(st.integers(0, max_pids - 1), min_size=n, max_size=n)
    )
    return (
        np.asarray(element, dtype=np.int64),
        np.asarray(batch, dtype=np.int64),
        np.asarray(pid, dtype=np.int64),
    )


@st.composite
def replay_cases(draw):
    """Layer geometry x fragment geometry x cache geometry x replay
    options for the full end-to-end trace replay differential.

    The fragment axis draws the architecture zoo's shapes — non-square
    tiles (Turing/Ampere's 16x8xK) and narrow INT8/FP8 operand widths
    — and the layer axis mixes conv geometries with attention-style
    GEMMs (the 1x1 identity embedding of ``repro.conv.attention``).
    """
    if draw(st.booleans()) and draw(st.booleans()):  # ~25% attention GEMM
        spec = gemm_layer(
            "fuzzgemm",
            batch=draw(st.integers(1, 2)),
            m=draw(st.sampled_from([3, 17, 33])),
            n=draw(st.sampled_from([1, 8, 40])),
            k=draw(st.sampled_from([2, 16, 24])),
            network="fuzz",
        )
    else:
        h = draw(st.integers(2, 5))
        w = draw(st.integers(2, 5))
        pad = draw(st.integers(0, 2))
        spec = make_spec(
            name="fuzz",
            batch=draw(st.integers(1, 2)),
            h=h,
            w=w,
            c=draw(st.sampled_from([1, 2, 4])),
            filters=draw(st.sampled_from([1, 4])),
            kh=draw(st.integers(1, min(3, h + 2 * pad))),
            kw=draw(st.integers(1, min(3, w + 2 * pad))),
            pad=pad,
            stride=draw(st.integers(1, 2)),
        )
    line = draw(st.sampled_from([32, 128]))
    l1_assoc = draw(st.sampled_from([1, 2, 4]))
    # 48 ways exceed WALK_MAX_CAP: the L2 then resolves on the
    # merge-sort tree instead of the capped walk.
    l2_assoc = draw(st.sampled_from([2, 8, 48]))
    # Fragment geometry: every edge must divide the 32x32 warp tile
    # and tile_k the 64-deep stage; all pow2 draws satisfy both.
    gpu = GPUConfig(
        num_sms=1,
        l1_bytes=line * l1_assoc * draw(st.sampled_from([2, 8, 32])),
        l1_assoc=l1_assoc,
        l1_line_bytes=line,
        l2_bytes=line * l2_assoc * draw(st.sampled_from([8, 64])),
        l2_assoc=l2_assoc,
        l2_line_bytes=line,
        tile_m=draw(st.sampled_from([8, 16, 32])),
        tile_n=draw(st.sampled_from([8, 16, 32])),
        tile_k=draw(st.sampled_from([8, 16, 32])),
        element_bytes=draw(st.sampled_from([1, 2])),
    )
    options = SimulationOptions(
        max_ctas=1,
        lhb_lifetime=draw(st.sampled_from([None, 2, 16, 4096])),
        lhb_hashed_index=draw(st.booleans()),
        lhb_granularity=draw(st.sampled_from(["fragment", "instruction"])),
        merge_padding=draw(st.booleans()),
    )
    mode = draw(
        st.sampled_from(
            [EliminationMode.BASELINE, EliminationMode.DUPLO,
             EliminationMode.WIR]
        )
    )
    if draw(st.booleans()) and draw(st.booleans()):  # ~25% oracle
        entries, assoc = None, 1
    else:
        assoc = draw(st.sampled_from([1, 2, 4]))
        entries = assoc * draw(st.sampled_from([2, 16]))
    return spec, gpu, options, mode, entries, assoc


@st.composite
def long_window_streams(draw):
    """(lines, num_sets, assoc) for a few-set LRU cache, L2-shaped
    (24-way) or wider than ``WALK_MAX_CAP`` (48-way), whose reuse
    windows span more than 2^10 same-set accesses.

    Each set draws random traffic from a hot pool of about the
    associativity, and ``anchors`` lines return exactly every ``gap``
    same-set accesses, so their stack distances sit near the
    associativity at the far end of windows long enough to take the
    walk through its widest strides, or the window count through its
    high merge levels.  Sets interleave at random, each keeping its
    own order.
    """
    num_sets = draw(st.sampled_from([1, 2, 4]))
    assoc = draw(st.sampled_from([24, 48]))
    hot = assoc + draw(st.sampled_from([-16, -4, -1, 0, 1, 16]))
    anchors = draw(st.integers(1, 4))
    gap = draw(st.integers(1300, 2100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_set = 2 * gap + 50
    owner = rng.permutation(np.repeat(np.arange(num_sets), per_set))
    lines = np.empty(num_sets * per_set, dtype=np.int64)
    for s in range(num_sets):
        local = rng.integers(0, hot, size=per_set)
        for k in range(anchors):
            local[k::gap] = hot + k
        lines[owner == s] = local * num_sets + s
    return lines, num_sets, assoc


@st.composite
def set_associative_lhb_cases(draw):
    """A 2+-way LHB with a finite lifetime and a stream long enough to
    fill its sets, so evictions of live and dead victims both occur.
    The 64-way draw exceeds WALK_MAX_CAP, which the LHB's walk ignores:
    it walks at every associativity."""
    assoc = draw(st.sampled_from([2, 4, 8, 64]))
    entries = assoc * draw(st.sampled_from([1, 2, 4]))
    config = dict(
        num_entries=entries,
        assoc=assoc,
        lifetime=draw(st.sampled_from([2, 5, 17, 64, 700])),
        hashed_index=draw(st.booleans()),
    )
    n = draw(st.integers(200, 3000))
    hi = entries * draw(st.sampled_from([1, 2, 4, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    element = rng.integers(-2, hi, size=n, dtype=np.int64)
    batch = rng.integers(0, 2, size=n, dtype=np.int64)
    return config, element, batch


@st.composite
def run_heavy_lhb_cases(draw):
    """A 2+-way LHB stream whose every lookup repeats once, ``chunk``
    (1-3) lookups later, as an octet's dual-load repeats its fragment:
    a tag with no set-mate in its chunk is looked up twice back to back
    in its set, so about half the stream are run members.  Lifetimes of
    1-3 put those members' gaps on both sides of the window, ``None``
    drops the window, and tags drawn from up to 40x the entries make
    most first lookups compulsory misses into full sets.  PIDs are
    drawn per lookup or omitted."""
    assoc = draw(st.sampled_from([2, 4, 8, 64]))
    entries = assoc * draw(st.sampled_from([1, 2, 4]))
    config = dict(
        num_entries=entries,
        assoc=assoc,
        lifetime=draw(st.sampled_from([None, 1, 2, 3])),
        hashed_index=draw(st.booleans()),
    )
    chunk = draw(st.integers(1, 3))
    n = chunk * draw(st.integers(1, 400))
    hi = entries * draw(st.sampled_from([1, 4, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def twice(column):
        # Each chunk of lookups, then the same chunk again.
        return np.tile(column.reshape(-1, 1, chunk), (1, 2, 1)).ravel()

    element = twice(rng.integers(-2, hi, size=n, dtype=np.int64))
    batch = twice(rng.integers(0, 2, size=n, dtype=np.int64))
    pid = None
    if draw(st.booleans()):
        pid = twice(rng.integers(0, 3, size=n, dtype=np.int64))
    return config, element, batch, pid


# ----------------------------------------------------------------------
# Reference implementations (plain event loops)
# ----------------------------------------------------------------------

def _event_stream(config, element, batch, pid):
    """Drive the stateful LHB access-by-access."""
    buf = LoadHistoryBuffer(**config)
    hits = [
        buf.access(int(e), int(b), dest_reg=0, pid=int(p)).hit
        for e, b, p in zip(element, batch, pid)
    ]
    return buf, np.asarray(hits, dtype=bool)


def _assert_stats_equal(fast, ref, context):
    assert dataclasses.asdict(fast.stats) == dataclasses.asdict(
        ref.stats
    ), context


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(config=lhb_configs(), stream=lookup_streams())
def test_stream_matches_event_path(config, stream):
    """Core recurrence: hit mask + all seven counters, any geometry."""
    element, batch, pid = stream
    ref, expected = _event_stream(config, element, batch, pid)
    fast = LoadHistoryBuffer(**config)
    got = simulate_lhb_stream(element, batch, fast, pid=pid)
    np.testing.assert_array_equal(got, expected, err_msg=str(config))
    _assert_stats_equal(fast, ref, config)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(config=lhb_configs(), stream=lookup_streams(max_pids=1))
def test_stream_omitted_pid_equals_zero_pid(config, stream):
    """``pid=None`` must be exactly the all-zero PID stream (the
    single-kernel invariant the replay relies on)."""
    element, batch, _ = stream
    a = LoadHistoryBuffer(**config)
    got_a = simulate_lhb_stream(element, batch, a)
    b = LoadHistoryBuffer(**config)
    got_b = simulate_lhb_stream(
        element, batch, b, pid=np.zeros(len(element), dtype=np.int64)
    )
    np.testing.assert_array_equal(got_a, got_b)
    _assert_stats_equal(a, b, config)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    config=lhb_configs(),
    streams=st.lists(lookup_streams(max_len=80), min_size=1, max_size=3),
    chunk=st.sampled_from([1, 3, 64, 997]),
)
def test_multikernel_interleave_matches_event_scheduler(
    config, streams, chunk
):
    """The round-robin interleave + PID-folded recurrence reproduces
    the event scheduler's shared-buffer counters and per-kernel hits."""
    kernels = [(b, e) for e, b, _ in streams]  # (batch, element) pairs

    # Event reference: a round-robin scheduler feeding lhb.access.
    ref = LoadHistoryBuffer(**config)
    cursors = [0] * len(kernels)
    ref_hits = [0] * len(kernels)
    live = True
    while live:
        live = False
        for k, (batch, element) in enumerate(kernels):
            start = cursors[k]
            if start >= len(element):
                continue
            live = True
            stop = min(start + chunk, len(element))
            for b, e in zip(batch[start:stop], element[start:stop]):
                if ref.access(int(e), int(b), 0, pid=k).hit:
                    ref_hits[k] += 1
            cursors[k] = stop

    fast = LoadHistoryBuffer(**config)
    batch_i, element_i, pid_i = _interleave(kernels, chunk)
    hit = simulate_lhb_stream(element_i, batch_i, fast, pid=pid_i)
    fast_hits = np.bincount(
        pid_i[hit], minlength=len(kernels)
    ).tolist()

    _assert_stats_equal(fast, ref, (config, chunk))
    assert fast_hits == ref_hits, (config, chunk)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=replay_cases())
def test_full_replay_matches_event_path(case):
    """End to end through the memory hierarchy: random tiny layers and
    cache geometries, asdict-equality on the whole LayerStats."""
    spec, gpu, options, mode, entries, assoc = case
    trace = generate_sm_trace(spec, gpu, BASELINE_KERNEL, options)

    def fresh_lhb():
        if mode is EliminationMode.BASELINE:
            return None
        return LoadHistoryBuffer(
            num_entries=entries,
            assoc=assoc,
            lifetime=options.lhb_lifetime,
            hashed_index=options.lhb_hashed_index,
        )

    event = replay_trace(trace, spec, gpu, options, mode, fresh_lhb())
    fast = replay_trace_fast(trace, spec, gpu, options, mode, fresh_lhb())
    assert dataclasses.asdict(event) == dataclasses.asdict(fast), (
        spec, gpu, options, mode, entries, assoc
    )


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    case=replay_cases(),
    id_mode=st.sampled_from(list(IDMode)),
    order=st.permutations(list(EliminationMode)),
)
def test_one_slot_serves_every_mode(case, id_mode, order):
    """The three modes, replayed in any order through one slot — one
    fold of the trace — each equal the event path."""
    spec, gpu, options, _, entries, assoc = case
    options = dataclasses.replace(options, id_mode=id_mode)
    trace = generate_sm_trace(spec, gpu, BASELINE_KERNEL, options)

    def fresh_lhb(mode):
        if mode is EliminationMode.BASELINE:
            return None
        return LoadHistoryBuffer(
            num_entries=entries,
            assoc=assoc,
            lifetime=options.lhb_lifetime,
            hashed_index=options.lhb_hashed_index,
        )

    clear_fed_memo()
    try:
        for mode in order:
            event = replay_trace(trace, spec, gpu, options, mode,
                                 fresh_lhb(mode))
            fast = replay_trace_fast(
                trace, spec, gpu, options, mode, fresh_lhb(mode),
                trace_key=(spec, gpu, options),
            )
            assert dataclasses.asdict(event) == dataclasses.asdict(fast), (
                spec, gpu, options, order, mode, entries, assoc
            )
    finally:
        clear_fed_memo()


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(stream=long_window_streams())
def test_lru_long_windows_match_reference_cache(stream):
    """L2 geometries (24- and 48-way) with reuse windows past 2^10
    accesses."""
    lines, num_sets, assoc = stream
    cache = SetAssociativeCache(num_sets * assoc * 128, assoc, 128)
    assert cache.num_sets == num_sets
    expected = np.array([cache.access(int(line)) for line in lines])
    got = lru_hit_mask(lines, cache.set_mask, cache.assoc)
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=set_associative_lhb_cases())
def test_set_associative_finite_lifetime_matches_event_path(case):
    """Residency, expiry and live-victim conflict counters of a 2+-way
    buffer with a retirement window, on every counter."""
    config, element, batch = case
    pid = np.zeros(len(element), dtype=np.int64)
    ref, expected = _event_stream(config, element, batch, pid)
    fast = LoadHistoryBuffer(**config)
    got = simulate_lhb_stream(element, batch, fast)
    np.testing.assert_array_equal(got, expected, err_msg=str(config))
    _assert_stats_equal(fast, ref, config)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=run_heavy_lhb_cases())
def test_set_associative_runs_match_event_path(case):
    """Run members at stack distance 0 and run heads with one walk:
    the hit mask and every counter of a 2+-way buffer, on streams of
    back-to-back repeats with lifetimes at the members' gaps."""
    config, element, batch, pid = case
    ref_pid = np.zeros(len(element), dtype=np.int64) if pid is None else pid
    ref, expected = _event_stream(config, element, batch, ref_pid)
    fast = LoadHistoryBuffer(**config)
    got = simulate_lhb_stream(element, batch, fast, pid=pid)
    np.testing.assert_array_equal(got, expected, err_msg=str(config))
    _assert_stats_equal(fast, ref, config)


# ----------------------------------------------------------------------
# Deep variants (slow lane)
# ----------------------------------------------------------------------

@pytest.mark.slow
@settings(max_examples=SLOW_EXAMPLES, deadline=None)
@given(config=lhb_configs(), stream=lookup_streams(max_len=400, max_pids=4))
def test_stream_matches_event_path_deep(config, stream):
    element, batch, pid = stream
    ref, expected = _event_stream(config, element, batch, pid)
    fast = LoadHistoryBuffer(**config)
    got = simulate_lhb_stream(element, batch, fast, pid=pid)
    np.testing.assert_array_equal(got, expected, err_msg=str(config))
    _assert_stats_equal(fast, ref, config)


@pytest.mark.slow
@settings(max_examples=max(50, SLOW_EXAMPLES // 4), deadline=None)
@given(case=replay_cases())
def test_full_replay_matches_event_path_deep(case):
    test_full_replay_matches_event_path.hypothesis.inner_test(case)
