"""Vectorised replay building blocks vs. the event-level models.

Every closed form in :mod:`repro.gpu.fastpath` is checked against the
stateful reference it replaces: the window counter against a brute
force loop over every window, the LRU mask against
:class:`SetAssociativeCache`,
and the LHB recurrence against :class:`LoadHistoryBuffer` — hit masks
*and* every statistics counter, across hashed/plain indexing, lifetime
windows, and the oracle configuration.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.conv.workloads import get_layer
from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import BASELINE_KERNEL, SimulationOptions, TITAN_V
from repro.gpu import fastpath
from repro.gpu.fastpath import (
    distinct_count,
    lru_hit_mask,
    next_in_group,
    prev_in_group,
    replay_trace_fast,
    simulate_lhb_stream,
    stable_order,
    stack_depths,
    stack_slots,
    window_counts,
)
from repro.gpu.kernel import generate_sm_trace
from repro.gpu.ldst import EliminationMode, replay_trace

from tests.conftest import make_spec


class TestStableOrder:
    @pytest.mark.parametrize(
        "spread",
        [
            5,  # uint16 radix tier (span <= 2^16)
            1 << 17,  # int32 composite-key tier (span * n < 2^31)
            1 << 24,  # int64 composite-key tier (span * n >= 2^31)
            1 << 61,  # timsort fallback tier
        ],
    )
    def test_matches_stable_argsort(self, rng, spread):
        values = rng.integers(-spread, spread, size=4097, dtype=np.int64)
        np.testing.assert_array_equal(
            stable_order(values), np.argsort(values, kind="stable")
        )

    @pytest.mark.parametrize(
        "span",
        [
            1 << 16,  # widest span of the radix tier
            (1 << 16) + 1,  # narrowest span past it
        ],
    )
    def test_radix_tier_edges(self, rng, span):
        """Both ends of the span are present, and the minimum is
        negative, so the key shift is exercised at its extremes."""
        low = -12345
        values = rng.integers(low, low + span, size=4097, dtype=np.int64)
        values[:2] = [low + span - 1, low]
        values[-2:] = [low, low + span - 1]
        np.testing.assert_array_equal(
            stable_order(values), np.argsort(values, kind="stable")
        )

    def test_stability_on_heavy_ties(self, rng):
        values = rng.integers(0, 3, size=1000, dtype=np.int64)
        order = stable_order(values)
        # Equal values must keep their stream order.
        for v in range(3):
            positions = order[values[order] == v]
            assert np.all(np.diff(positions) > 0)

    def test_trivial_sizes(self):
        assert stable_order(np.array([], dtype=np.int64)).size == 0
        np.testing.assert_array_equal(
            stable_order(np.array([7], dtype=np.int64)), [0]
        )


class TestDistinctCount:
    def test_matches_unique(self, rng):
        values = rng.integers(-50, 50, size=1000, dtype=np.int64)
        assert distinct_count(values) == len(np.unique(values))

    def test_empty_and_constant(self):
        assert distinct_count(np.array([], dtype=np.int64)) == 0
        assert distinct_count(np.zeros(10, dtype=np.int64)) == 1


class TestPrevInGroup:
    def test_matches_brute_force(self, rng):
        group = rng.integers(0, 7, size=300, dtype=np.int64)
        prev = prev_in_group(group)
        last = {}
        for i, g in enumerate(group.tolist()):
            assert prev[i] == last.get(g, -1)
            last[g] = i


def _brute_window_counts(values, lo, hi, thr):
    return np.array(
        [
            np.count_nonzero(values[a : h + 1] < t) if a <= h else 0
            for a, h, t in zip(lo.tolist(), hi.tolist(), thr.tolist())
        ],
        dtype=np.int64,
    )


class TestWindowCounts:
    @pytest.mark.parametrize(
        "m", [1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300, 1023, 1024, 1025]
    )
    def test_matches_brute_force(self, rng, m):
        """Contract inputs: values and thresholds in [-1, m], ``m``
        being the "no next occurrence" sentinel; windows anywhere in
        [0, m), empty and inverted ones included, a quarter pinned to
        index 0 and a quarter to ``m - 1``."""
        for _ in range(5):
            values = rng.integers(-1, m + 1, size=m, dtype=np.int64)
            q = int(rng.integers(1, 2 * m + 1))
            lo = rng.integers(0, m + 1, size=q, dtype=np.int64)
            hi = rng.integers(-1, m, size=q, dtype=np.int64)
            thr = rng.integers(-1, m + 1, size=q, dtype=np.int64)
            lo[: q // 4] = 0
            hi[q // 4 : q // 2] = m - 1
            np.testing.assert_array_equal(
                window_counts(values, lo, hi, thr),
                _brute_window_counts(values, lo, hi, thr),
                err_msg=str(m),
            )

    @pytest.mark.parametrize("m", [16, 17, 33])
    def test_every_window(self, rng, m):
        """Exhaustive: every (lo, hi) pair, inverted ones included, so
        every aligned block boundary is straddled at every level."""
        values = rng.integers(-1, m + 1, size=m, dtype=np.int64)
        lo, hi = np.meshgrid(np.arange(m + 1), np.arange(-1, m))
        lo, hi = lo.ravel(), hi.ravel()
        thr = rng.integers(-1, m + 1, size=lo.size, dtype=np.int64)
        np.testing.assert_array_equal(
            window_counts(values, lo, hi, thr),
            _brute_window_counts(values, lo, hi, thr),
        )

    def test_windows_straddling_high_blocks(self, rng):
        """Long windows centred on aligned boundaries of every level:
        the decomposition takes blocks from both ends up to 2^11."""
        m = 5000
        values = rng.integers(-1, m + 1, size=m, dtype=np.int64)
        lo, hi = [], []
        for level in range(13):
            for boundary in range(1 << level, m, 1 << level):
                for left, right in ((1, 0), (3, 2), (1 << level, 5)):
                    lo.append(max(0, boundary - left))
                    hi.append(min(m - 1, boundary + right))
        lo = np.array(lo, dtype=np.int64)
        hi = np.array(hi, dtype=np.int64)
        thr = rng.integers(-1, m + 1, size=lo.size, dtype=np.int64)
        np.testing.assert_array_equal(
            window_counts(values, lo, hi, thr),
            _brute_window_counts(values, lo, hi, thr),
        )

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        assert window_counts(empty, empty, empty, empty).size == 0
        assert window_counts(np.array([0]), empty, empty, empty).size == 0
        # Only empty or inverted windows: nothing is counted.
        values = np.array([-1, -1, -1], dtype=np.int64)
        lo = np.array([0, 2, 3], dtype=np.int64)
        hi = np.array([-1, 0, 2], dtype=np.int64)
        thr = np.array([3, 3, 3], dtype=np.int64)
        np.testing.assert_array_equal(window_counts(values, lo, hi, thr), 0)


def _brute_next(values):
    """Next slot holding each slot's value (``len(values)`` if none)."""
    m = len(values)
    return np.array(
        [next((k for k in range(j + 1, m) if values[k] == values[j]), m)
         for j in range(m)],
        dtype=np.int64,
    )


@st.composite
def walk_cases(draw):
    """A value stream and windows over it: empty, inverted, one-slot,
    whole-stream and random ones, over alphabets both narrower and
    wider than the cap."""
    m = draw(st.integers(0, 700))
    alphabet = draw(st.sampled_from([1, 2, 5, 24, 40, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, alphabet, size=m, dtype=np.int64)
    q = draw(st.integers(1, 40))
    lo = rng.integers(0, m + 1, size=q, dtype=np.int64)
    hi = rng.integers(-1, m, size=q, dtype=np.int64)
    if m:
        one = rng.integers(0, m, size=2, dtype=np.int64)
        lo = np.concatenate([lo, [0, m, 3], one])
        hi = np.concatenate([hi, [m - 1, m - 1, 2], one])
    return values, lo, hi, draw(st.integers(1, 33))


class TestStackDepths:
    @settings(max_examples=60, deadline=None)
    @given(case=walk_cases(), step_slots=st.sampled_from([8, 64, 1 << 18]))
    def test_matches_brute_force(self, case, step_slots):
        """``min(#distinct in [lo, hi], cap)`` whatever the step size
        (small steps force chunked rows and a capped stride)."""
        values, lo, hi, cap = case
        expected = [
            min(len(set(values[a:h + 1].tolist())), cap) if a <= h else 0
            for a, h in zip(lo.tolist(), hi.tolist())
        ]
        saved = fastpath._WALK_STEP_SLOTS
        fastpath._WALK_STEP_SLOTS = step_slots
        try:
            got = stack_depths(_brute_next(values), lo, hi, cap)
        finally:
            fastpath._WALK_STEP_SLOTS = saved
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(case=walk_cases(), step_slots=st.sampled_from([8, 1 << 18]))
    def test_slots_match_brute_force(self, case, step_slots):
        """``stack_slots``: the slot where the walk down from ``hi``
        meets its ``cap``-th distinct value, ``-1`` if it never does."""
        values, lo, hi, cap = case
        expected = []
        for a, h in zip(lo.tolist(), hi.tolist()):
            met, slot = set(), -1
            for j in range(h, a - 1, -1):
                met.add(int(values[j]))
                if len(met) == cap:
                    slot = j
                    break
            expected.append(slot)
        saved = fastpath._WALK_STEP_SLOTS
        fastpath._WALK_STEP_SLOTS = step_slots
        try:
            got = stack_slots(_brute_next(values), lo, hi, cap)
        finally:
            fastpath._WALK_STEP_SLOTS = saved
        np.testing.assert_array_equal(got, expected)

    def test_next_in_group_links(self, rng):
        values = rng.integers(0, 9, size=200, dtype=np.int64)
        np.testing.assert_array_equal(
            next_in_group(prev_in_group(values)), _brute_next(values)
        )

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        assert stack_depths(empty, empty, empty, 4).size == 0
        nxt = np.array([3, 3, 3], dtype=np.int64)
        lo = np.array([0, 2, 3], dtype=np.int64)
        hi = np.array([-1, 0, 2], dtype=np.int64)
        np.testing.assert_array_equal(stack_depths(nxt, lo, hi, 4), 0)


def _cyclic_one_set(assoc, sets, n):
    """``8 * assoc + 1`` lines cycling through set 0: every access
    misses, and only the cap keeps a walk from reading its whole
    window of ``8 * assoc`` distinct lines."""
    return (np.arange(n, dtype=np.int64) % (8 * assoc + 1)) * sets


def _anchored_hot_set(assoc, sets, n, gap=400):
    """Set 0 cycles through ``assoc - 2`` hot lines while two anchors
    return every ``gap`` accesses: each anchor's window is long and
    holds ``assoc - 1`` distinct lines, so its walk reads all of it."""
    hot = np.arange(n, dtype=np.int64) % (assoc - 2)
    hot[::gap] = assoc  # anchor X
    hot[gap // 2::gap] = assoc + 1  # anchor Y
    return hot * sets


def _fresh_into_full_set(assoc, sets, n, every=50):
    """Set 0 cycles through ``assoc - 1`` hot lines and takes a line
    never seen before every ``every`` accesses: each new line is a
    compulsory miss into a full set, whose walk from the set's start
    reads back past the hot lines to the previous new one."""
    lines = np.arange(n, dtype=np.int64) % (assoc - 1)
    fresh = lines[::every]
    lines[::every] = assoc + np.arange(len(fresh), dtype=np.int64)
    return lines * sets


class TestWalkSlots:
    """The walk's read bound, ``2 * (cap + 1) * m + 8 * Q`` slots for
    ``Q`` windows over ``m`` slots, on streams built against it."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """Every walk's ``(m, Q)``, with the counter recording."""
        seen = []
        walk = fastpath._stack_walk

        def spy(nxt, lo, hi, cap, slots):
            seen.append((len(nxt), int(np.count_nonzero(lo <= hi))))
            return walk(nxt, lo, hi, cap, slots)

        monkeypatch.setattr(fastpath, "_stack_walk", spy)
        obs.reset()
        obs.enable()
        yield seen
        obs.disable()
        obs.reset()

    def _assert_bound(self, walks, cap):
        assert walks, "the stream never reached the walk"
        bound = sum(2 * (cap + 1) * m + 8 * q for m, q in walks)
        read = obs.counters_with_prefix("fastpath.walk_slots")
        assert 0 < read["fastpath.walk_slots"] <= bound

    @pytest.mark.parametrize("assoc", [4, 24, 32])
    @pytest.mark.parametrize("stream", [_cyclic_one_set, _anchored_hot_set])
    def test_lru_streams(self, walks, rng, assoc, stream):
        sets = 64
        lines = stream(assoc, sets, 20000)
        # Other sets draw random traffic around them.
        noise = rng.integers(0, 4 * assoc * sets, size=len(lines))
        lines = np.where(rng.random(len(lines)) < 0.3, noise, lines)
        cache = SetAssociativeCache(sets * assoc * 128, assoc, 128)
        lru_hit_mask(lines, cache.set_mask, assoc)
        self._assert_bound(walks, assoc)

    @pytest.mark.parametrize("assoc", [2, 8, 32, 64])
    @pytest.mark.parametrize(
        "stream", [_cyclic_one_set, _anchored_hot_set, _fresh_into_full_set]
    )
    def test_lhb_streams(self, walks, assoc, stream):
        """The one walk of a one-set LHB, victims included, at every
        associativity: 64 ways exceed ``WALK_MAX_CAP`` and still walk."""
        element = stream(max(assoc, 3), 1, 6000)
        lhb = LoadHistoryBuffer(num_entries=assoc, assoc=assoc, lifetime=700)
        simulate_lhb_stream(element, np.zeros_like(element), lhb)
        self._assert_bound(walks, assoc)


class TestLruHitMask:
    @pytest.mark.parametrize(
        "capacity,assoc,n_lines",
        [
            (4 * 128, 1, 16),  # direct-mapped, heavy conflicts
            (8 * 128, 2, 16),
            (16 * 128, 4, 10),  # mostly-hit regime
            (16 * 128, 16, 40),  # fully associative set
            (128 * 128, 4, 400),  # sparse conflicts
        ],
    )
    def test_matches_reference_cache(self, rng, capacity, assoc, n_lines):
        for trial in range(4):
            cache = SetAssociativeCache(capacity, assoc, 128)
            lines = rng.integers(0, n_lines, size=600, dtype=np.int64)
            expected = np.array([cache.access(int(line)) for line in lines])
            got = lru_hit_mask(lines, cache.set_mask, cache.assoc)
            np.testing.assert_array_equal(got, expected, err_msg=str(trial))

    def test_titan_v_geometry(self, rng):
        """The exact L1 the replay instantiates, conflict-rich stream."""
        gpu = TITAN_V
        cache = SetAssociativeCache(
            gpu.l1_bytes, gpu.l1_assoc, gpu.l1_line_bytes
        )
        # Strided lines alias a few sets hard.
        lines = (
            rng.integers(0, 8, size=3000, dtype=np.int64)
            * (cache.set_mask + 1)
            + rng.integers(0, 4, size=3000, dtype=np.int64)
        )
        expected = np.array([cache.access(int(line)) for line in lines])
        got = lru_hit_mask(lines, cache.set_mask, cache.assoc)
        np.testing.assert_array_equal(got, expected)

    def test_empty_stream(self):
        assert lru_hit_mask(np.array([], dtype=np.int64), 0, 4).size == 0


LHB_CONFIGS = [
    dict(num_entries=16, assoc=1, lifetime=None, hashed_index=False),
    dict(num_entries=16, assoc=1, lifetime=None, hashed_index=True),
    dict(num_entries=16, assoc=1, lifetime=7, hashed_index=True),
    dict(num_entries=64, assoc=1, lifetime=3, hashed_index=False),
    dict(num_entries=None, assoc=1, lifetime=None, hashed_index=True),
    dict(num_entries=None, assoc=1, lifetime=5, hashed_index=True),
    # Set-associative organisations (Figure 12's sweep axis): the
    # offline per-set LRU resolution must reproduce the event-level
    # dead-entry-preferring eviction bit for bit.
    dict(num_entries=16, assoc=2, lifetime=None, hashed_index=True),
    dict(num_entries=16, assoc=4, lifetime=7, hashed_index=True),
    dict(num_entries=16, assoc=4, lifetime=None, hashed_index=False),
    dict(num_entries=64, assoc=8, lifetime=3, hashed_index=False),
    dict(num_entries=64, assoc=8, lifetime=40, hashed_index=True),
    dict(num_entries=8, assoc=8, lifetime=13, hashed_index=True),
]


class TestSimulateLhbStream:
    @pytest.mark.parametrize("config", LHB_CONFIGS)
    def test_matches_event_level_lhb(self, rng, config):
        for trial in range(4):
            n = 500
            element = rng.integers(0, 40, size=n, dtype=np.int64)
            batch = rng.integers(0, 3, size=n, dtype=np.int64)

            ref = LoadHistoryBuffer(**config)
            expected = np.array(
                [
                    ref.access(int(e), int(b), dest_reg=0).hit
                    for e, b in zip(element, batch)
                ]
            )

            fast = LoadHistoryBuffer(**config)
            got = simulate_lhb_stream(element, batch, fast)

            np.testing.assert_array_equal(got, expected, err_msg=str(config))
            for counter in (
                "lookups",
                "hits",
                "misses",
                "compulsory_misses",
                "expired_misses",
                "conflict_replacements",
                "store_invalidations",
            ):
                assert getattr(fast.stats, counter) == getattr(
                    ref.stats, counter
                ), (config, counter)

    @pytest.mark.parametrize("config", LHB_CONFIGS)
    def test_matches_event_level_lhb_with_pids(self, rng, config):
        """PID-tagged streams (multi-kernel interleavings): the PID
        folds into the tag key but never into the set index."""
        for trial in range(2):
            n = 500
            element = rng.integers(0, 40, size=n, dtype=np.int64)
            batch = rng.integers(0, 3, size=n, dtype=np.int64)
            pid = rng.integers(0, 3, size=n, dtype=np.int64)

            ref = LoadHistoryBuffer(**config)
            expected = np.array(
                [
                    ref.access(int(e), int(b), dest_reg=0, pid=int(p)).hit
                    for e, b, p in zip(element, batch, pid)
                ]
            )

            fast = LoadHistoryBuffer(**config)
            got = simulate_lhb_stream(element, batch, fast, pid=pid)

            np.testing.assert_array_equal(got, expected, err_msg=str(config))
            assert dataclasses.asdict(fast.stats) == dataclasses.asdict(
                ref.stats
            ), config

    def test_negative_elements_merge_padding(self, rng):
        """Merged-padding streams carry negative element IDs; the
        set-index and tag arithmetic must match the event path there
        too (Python %: non-negative for positive divisors)."""
        config = dict(num_entries=16, assoc=4, lifetime=9, hashed_index=False)
        n = 400
        element = rng.integers(-8, 24, size=n, dtype=np.int64)
        batch = rng.integers(0, 2, size=n, dtype=np.int64)
        ref = LoadHistoryBuffer(**config)
        expected = np.array(
            [
                ref.access(int(e), int(b), dest_reg=0).hit
                for e, b in zip(element, batch)
            ]
        )
        fast = LoadHistoryBuffer(**config)
        got = simulate_lhb_stream(element, batch, fast)
        np.testing.assert_array_equal(got, expected)
        assert dataclasses.asdict(fast.stats) == dataclasses.asdict(ref.stats)

    def test_empty_stream(self):
        buf = LoadHistoryBuffer(num_entries=16)
        empty = np.array([], dtype=np.int64)
        assert simulate_lhb_stream(empty, empty, buf).size == 0
        assert buf.stats.lookups == 0

    def test_used_buffer_raises(self, rng):
        """The closed form assumes an empty buffer: a stream through a
        buffer that already counted lookups raises instead of adding
        its counters on top."""
        e = rng.integers(0, 10, size=100, dtype=np.int64)
        b = np.zeros(100, dtype=np.int64)
        buf = LoadHistoryBuffer(num_entries=16)
        simulate_lhb_stream(e, b, buf)
        with pytest.raises(ValueError, match="fresh"):
            simulate_lhb_stream(e, b, buf)
        assert buf.stats.lookups == 100
        used = LoadHistoryBuffer(num_entries=16)
        used.access(1, 0, dest_reg=0)
        with pytest.raises(ValueError, match="fresh"):
            simulate_lhb_stream(e, b, used)
        assert used.stats.lookups == 1

    def test_replayed_buffer_refuses_event_path(self, rng):
        """A closed-form replay keeps counters only, so the event-path
        calls that read entries refuse the buffer afterwards."""
        e = rng.integers(0, 10, size=100, dtype=np.int64)
        buf = LoadHistoryBuffer(num_entries=16)
        simulate_lhb_stream(e, np.zeros(100, dtype=np.int64), buf)
        for call in (
            lambda: buf.access(1, 0, dest_reg=0),
            lambda: buf.invalidate(1, 0),
            buf.live_entries,
        ):
            with pytest.raises(ValueError, match="closed form"):
                call()
        assert buf.stats.lookups == 100


class TestSupport:
    def test_supported_configurations(self):
        """Every LHB organisation replays on the fast path and agrees
        with the event path."""
        spec = make_spec()
        options = SimulationOptions(max_ctas=1)
        trace = generate_sm_trace(spec, TITAN_V, BASELINE_KERNEL, options)
        for mode, lhb_kwargs in [
            (EliminationMode.BASELINE, None),
            (EliminationMode.BASELINE, dict(num_entries=16, assoc=4)),
            (EliminationMode.DUPLO, dict(num_entries=16, assoc=1)),
            (EliminationMode.DUPLO, dict(num_entries=None)),
            (EliminationMode.WIR, dict(num_entries=16, assoc=1)),
            (EliminationMode.DUPLO, dict(num_entries=16, assoc=4)),
        ]:
            stats = [
                replay(
                    trace, spec, TITAN_V, options, mode,
                    None if lhb_kwargs is None
                    else LoadHistoryBuffer(**lhb_kwargs),
                )
                for replay in (replay_trace_fast, replay_trace)
            ]
            assert dataclasses.asdict(stats[0]) == dataclasses.asdict(
                stats[1]
            ), (mode, lhb_kwargs)

    def test_replay_refuses_used_lhb(self):
        """A second replay through one buffer raises: before the
        freshness check it returned ``lhb_lookups`` and ``lhb_hits``
        summed over both replays against one replay's
        ``eliminated_fragments``."""
        spec = get_layer("yolo", "C2")
        options = SimulationOptions(max_ctas=1)
        trace = generate_sm_trace(spec, TITAN_V, BASELINE_KERNEL, options)
        lhb = LoadHistoryBuffer(num_entries=1024)
        first = replay_trace_fast(
            trace, spec, TITAN_V, options, EliminationMode.DUPLO, lhb
        )
        assert first.lhb_lookups == lhb.stats.lookups == 9216
        assert first.lhb_hits == first.eliminated_fragments
        with pytest.raises(ValueError, match="fresh"):
            replay_trace_fast(
                trace, spec, TITAN_V, options, EliminationMode.DUPLO, lhb
            )
        assert lhb.stats.lookups == 9216

    def test_replay_accepts_set_associative_lhb(self):
        """Regression for the closed fallback: a fresh wide LHB runs
        the vectorised replay outright."""
        spec = make_spec()
        options = SimulationOptions(max_ctas=1)
        trace = generate_sm_trace(spec, TITAN_V, BASELINE_KERNEL, options)
        wide = LoadHistoryBuffer(num_entries=16, assoc=4)
        stats = replay_trace_fast(
            trace, spec, TITAN_V, options, EliminationMode.DUPLO, wide
        )
        assert stats.lhb_lookups > 0
