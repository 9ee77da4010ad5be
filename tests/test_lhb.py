"""Load history buffer: hits, conflicts, lifetime, associativity."""

import pytest

from repro.core.lhb import LHBStats, LoadHistoryBuffer


def lhb(**kwargs):
    defaults = dict(num_entries=16, assoc=1, lifetime=None, hashed_index=False)
    defaults.update(kwargs)
    return LoadHistoryBuffer(**defaults)


class TestBasicAccess:
    def test_first_access_misses(self):
        buf = lhb()
        assert not buf.access(element_id=3, batch_id=0, dest_reg=7).hit

    def test_repeat_access_hits_and_returns_holder(self):
        buf = lhb()
        buf.access(3, 0, dest_reg=7)
        result = buf.access(3, 0, dest_reg=9)
        assert result.hit
        assert result.reg == 7

    def test_different_batch_is_different_tag(self):
        buf = lhb()
        buf.access(3, 0, 1)
        assert not buf.access(3, 1, 2).hit

    def test_different_pid_is_different_tag(self):
        buf = lhb()
        buf.access(3, 0, 1, pid=0)
        assert not buf.access(3, 0, 2, pid=1).hit

    def test_direct_mapped_conflict_replaces(self):
        buf = lhb(num_entries=4)
        buf.access(1, 0, 1)
        buf.access(5, 0, 2)  # 5 % 4 == 1: replaces entry for 1
        assert buf.stats.conflict_replacements == 1
        assert not buf.access(1, 0, 3).hit  # replaces back
        assert buf.stats.conflict_replacements == 2

    def test_same_index_different_tag_is_miss_not_hit(self):
        buf = lhb(num_entries=4)
        buf.access(1, 0, 1)
        assert not buf.access(5, 0, 2).hit


class TestAssociativity:
    def test_two_way_avoids_single_conflict(self):
        buf = lhb(num_entries=8, assoc=2)
        buf.access(1, 0, 1)
        buf.access(5, 0, 2)  # same set, second way
        assert buf.access(1, 0, 3).hit
        assert buf.access(5, 0, 4).hit

    def test_lru_eviction_order(self):
        buf = lhb(num_entries=8, assoc=2)
        buf.access(1, 0, 1)
        buf.access(5, 0, 2)
        buf.access(1, 0, 3)  # refresh 1 -> 5 becomes LRU
        buf.access(9, 0, 4)  # evicts 5
        assert buf.access(1, 0, 5).hit
        assert not buf.access(5, 0, 6).hit

    def test_assoc_must_divide_entries(self):
        with pytest.raises(ValueError, match="divide"):
            LoadHistoryBuffer(num_entries=10, assoc=4)

    def test_full_assoc_limit(self):
        buf = lhb(num_entries=4, assoc=4)
        for e in (0, 1, 2, 3):
            buf.access(e, 0, e)
        for e in (0, 1, 2, 3):
            assert buf.access(e, 0, 9).hit


class TestOracle:
    def test_unbounded_capacity(self):
        buf = lhb(num_entries=None)
        for e in range(10000):
            buf.access(e, 0, e)
        for e in range(10000):
            assert buf.access(e, 0, 0).hit
        assert buf.is_oracle


class TestLifetime:
    def test_entry_expires_after_window(self):
        buf = lhb(lifetime=3)
        buf.access(1, 0, 1)  # seq 1, expires at 4
        buf.access(2, 0, 2)
        buf.access(3, 0, 3)
        buf.access(4, 0, 4)  # seq 4
        assert not buf.access(1, 0, 5).hit  # seq 5 >= 4: expired
        assert buf.stats.expired_misses == 1

    def test_hit_relays_lifetime(self):
        buf = lhb(lifetime=3)
        buf.access(1, 0, 1)  # expires at seq 4
        buf.access(2, 0, 2)
        buf.access(1, 0, 3)  # hit relays: now expires at seq 6
        buf.access(3, 0, 4)
        assert buf.access(1, 0, 5).hit  # would have expired without relay

    def test_oracle_respects_lifetime(self):
        buf = lhb(num_entries=None, lifetime=2)
        buf.access(1, 0, 1)
        buf.access(2, 0, 2)
        buf.access(3, 0, 3)
        assert not buf.access(1, 0, 4).hit

    def test_invalid_lifetime(self):
        with pytest.raises(ValueError, match="lifetime"):
            LoadHistoryBuffer(lifetime=0)


class TestInvalidateAndFlush:
    def test_store_invalidation(self):
        buf = lhb()
        buf.access(1, 0, 1)
        assert buf.invalidate(1, 0)
        assert not buf.access(1, 0, 2).hit
        assert buf.stats.store_invalidations == 1

    def test_invalidate_missing_tag(self):
        buf = lhb()
        assert not buf.invalidate(1, 0)

    def test_invalidate_oracle(self):
        buf = lhb(num_entries=None)
        buf.access(1, 0, 1)
        assert buf.invalidate(1, 0)
        assert not buf.access(1, 0, 2).hit

    def test_invalidate_expired_entry_not_counted(self):
        """A store hitting an already-dead entry must release it
        without bumping store_invalidations (the register no longer
        holds the datum, so there is nothing live to invalidate)."""
        buf = lhb(lifetime=2)
        buf.access(1, 0, 1)  # seq 1, expires at 3
        buf.access(2, 0, 2)
        buf.access(3, 0, 3)  # seq 3: entry for 1 is now dead
        assert not buf.invalidate(1, 0)
        assert buf.stats.store_invalidations == 0
        # The dead entry was still released, not merely skipped.
        assert all(e.tag[0] != 1 for ways in buf._sets for e in ways)

    def test_invalidate_expired_entry_oracle(self):
        buf = lhb(num_entries=None, lifetime=2)
        buf.access(1, 0, 1)
        buf.access(2, 0, 2)
        buf.access(3, 0, 3)  # entry for 1 expired
        assert not buf.invalidate(1, 0)
        assert buf.stats.store_invalidations == 0
        assert (1, 0, 0) not in buf._oracle

    def test_invalidate_live_then_expired_mix(self):
        """Only the live release counts; the later dead one does not."""
        buf = lhb(lifetime=3)
        buf.access(1, 0, 1)
        assert buf.invalidate(1, 0)  # live: counted
        buf.access(2, 0, 2)
        buf.access(3, 0, 3)
        buf.access(4, 0, 4)
        buf.access(5, 0, 5)  # seq 5: entry for 2 (expires at 5) is dead
        assert not buf.invalidate(2, 0)
        assert buf.stats.store_invalidations == 1

    def test_flush_clears_everything(self):
        buf = lhb()
        for e in range(8):
            buf.access(e, 0, e)
        buf.flush()
        assert buf.live_entries() == 0
        assert not buf.access(1, 0, 9).hit


class TestStatsAndMisc:
    def test_counters(self):
        buf = lhb(num_entries=4)
        buf.access(1, 0, 1)
        buf.access(1, 0, 2)
        buf.access(2, 0, 3)
        s = buf.stats
        assert s.lookups == 3
        assert s.hits == 1
        assert s.misses == 2
        assert s.compulsory_misses == 2
        assert s.hit_rate == pytest.approx(1 / 3)

    def test_stats_merge(self):
        a = LHBStats(lookups=10, hits=5, misses=5)
        b = LHBStats(lookups=2, hits=1, misses=1)
        merged = a.merge(b)
        assert merged.lookups == 12
        assert merged.hit_rate == 0.5

    def test_empty_hit_rate(self):
        assert LHBStats().hit_rate == 0.0

    def test_live_entries(self):
        buf = lhb(lifetime=100)
        buf.access(1, 0, 1)
        buf.access(2, 0, 2)
        assert buf.live_entries() == 2

    def test_storage_bits_paper_default(self):
        """The storage of the paper-default buffer is costed from its own
        geometry by the area model."""
        from repro.energy.model import DEFAULT_AREA

        buf = LoadHistoryBuffer(num_entries=1024)
        # 42-bit tag + 10-bit register ID + valid bit per entry.
        assert DEFAULT_AREA.lhb_bits(buf.num_entries, buf.assoc) == 1024 * 53

    def test_repr_mentions_geometry(self):
        assert "1024" in repr(LoadHistoryBuffer(num_entries=1024))
        assert "oracle" in repr(LoadHistoryBuffer(num_entries=None))

    def test_invalid_entries(self):
        with pytest.raises(ValueError, match="num_entries"):
            LoadHistoryBuffer(num_entries=0)

    def test_hashed_index_spreads_strided_ids(self):
        """Stride-64 element IDs (a 64-channel workspace) must not
        collapse onto a few sets under the default hash."""
        plain = LoadHistoryBuffer(num_entries=256, hashed_index=False)
        hashed = LoadHistoryBuffer(num_entries=256, hashed_index=True)
        ids = [i * 64 for i in range(256)]
        assert len({plain._index(e) for e in ids}) <= 4
        assert len({hashed._index(e) for e in ids}) > 64
