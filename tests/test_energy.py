"""Energy and area models (Section V-H)."""

import pytest

from repro.core.lhb import LoadHistoryBuffer
from repro.energy.model import (
    AreaModel,
    DEFAULT_AREA,
    DEFAULT_ENERGY,
    EnergyBreakdown,
    on_chip_energy_reduction,
)
from repro.gpu.stats import LayerStats


def baseline_stats():
    return LayerStats(
        loads_total=10000,
        l1_accesses=10000,
        l2_accesses=3000,
        dram_read_bytes=1000 * 128,
        dram_write_bytes=0,
    )


def duplo_stats():
    return LayerStats(
        loads_total=10000,
        eliminated_fragments=5000,
        lhb_lookups=6000,
        lhb_hits=5000,
        l1_accesses=5000,
        l2_accesses=1200,
        dram_read_bytes=500 * 128,
        dram_write_bytes=0,
    )


class TestEnergyModel:
    def test_baseline_has_no_lhb_energy(self):
        eb = DEFAULT_ENERGY.breakdown(baseline_stats())
        assert eb.picojoules["lhb"] == 0.0
        assert eb.picojoules["rename"] == 0.0

    def test_elimination_reduces_on_chip_energy(self):
        eb = DEFAULT_ENERGY.breakdown(baseline_stats())
        ed = DEFAULT_ENERGY.breakdown(duplo_stats())
        assert ed.on_chip_pj < eb.on_chip_pj
        reduction = on_chip_energy_reduction(eb, ed)
        assert 0 < reduction < 1

    def test_l1_tag_energy_not_saved_by_hits(self):
        """The paper: L1 is probed in parallel with the LHB, so its
        *tag* energy is spent even for eliminated loads; the data
        array is only read by loads that actually proceed."""
        ed = DEFAULT_ENERGY.breakdown(duplo_stats())
        expected = (5000 + 5000) * DEFAULT_ENERGY.l1_tag_pj
        expected += 5000 * DEFAULT_ENERGY.l1_data_pj
        assert ed.picojoules["l1"] == expected

    def test_rf_write_skipped_for_eliminated(self):
        ed = DEFAULT_ENERGY.breakdown(duplo_stats())
        assert ed.picojoules["rf_write"] == 5000 * DEFAULT_ENERGY.rf_write_pj

    def test_rf_reads_unchanged(self):
        eb = DEFAULT_ENERGY.breakdown(baseline_stats())
        ed = DEFAULT_ENERGY.breakdown(duplo_stats())
        assert eb.picojoules["rf_read"] == ed.picojoules["rf_read"]

    def test_dram_is_off_chip(self):
        eb = DEFAULT_ENERGY.breakdown(baseline_stats())
        assert "dram" not in EnergyBreakdown.ON_CHIP
        assert eb.total_pj > eb.on_chip_pj

    def test_merge(self):
        eb = DEFAULT_ENERGY.breakdown(baseline_stats())
        double = eb.merge(eb)
        assert double.on_chip_pj == pytest.approx(2 * eb.on_chip_pj)

    def test_reduction_validates_baseline(self):
        empty = EnergyBreakdown(picojoules={k: 0.0 for k in EnergyBreakdown.ON_CHIP})
        with pytest.raises(ValueError):
            on_chip_energy_reduction(empty, empty)


class TestAreaModel:
    def test_default_overhead_matches_paper(self):
        """Section V-H: 0.77% of the register file's area."""
        assert DEFAULT_AREA.area_overhead(1024) == pytest.approx(
            0.0077, rel=0.03
        )

    def test_overhead_scales_with_entries(self):
        assert DEFAULT_AREA.area_overhead(2048) > DEFAULT_AREA.area_overhead(1024)

    def test_lhb_bits(self):
        assert DEFAULT_AREA.lhb_bits(1024) == 1024 * 53

    def test_regfile_bits(self):
        assert DEFAULT_AREA.regfile_bits() == 256 * 1024 * 8

    def test_entries_validation(self):
        with pytest.raises(ValueError):
            DEFAULT_AREA.lhb_bits(0)
        for entries in (0, -1):
            with pytest.raises(ValueError, match="entries >= 1"):
                DEFAULT_AREA.tag_bits(entries)

    def test_tag_bits_fields_are_explicit(self):
        """22 upper element bits + 10 batch + 10 PID for the paper
        default; no width is baked into an opaque constant."""
        assert DEFAULT_AREA.tag_bits(1024) == 42
        # Widening the PID field must widen the tag by the same amount.
        assert AreaModel(pid_bits=16).tag_bits(1024) == 48
        assert AreaModel(batch_bits=0, pid_bits=0).tag_bits(1024) == 22

    def test_tag_bits_tracks_set_count(self):
        """More sets imply more index bits and a narrower stored tag."""
        small = DEFAULT_AREA.tag_bits(16)
        large = DEFAULT_AREA.tag_bits(1024)
        assert small - large == 6  # 2^10 vs 2^4 sets
        # Associativity reduces the set count, restoring tag bits.
        assert DEFAULT_AREA.tag_bits(1024, assoc=4) == large + 2
        # A fully associative buffer has one set and stores the whole ID.
        assert DEFAULT_AREA.tag_bits(16, assoc=16) == 52

    @pytest.mark.parametrize("entries,assoc", [(1024, 3), (1024, 2048)])
    def test_tag_bits_rejects_what_the_buffer_rejects(self, entries, assoc):
        """3 ways do not divide 1024 entries, and 2048 ways leave no
        set: the buffer refuses both, so their widths do not exist."""
        with pytest.raises(ValueError, match="must divide num_entries"):
            LoadHistoryBuffer(num_entries=entries, assoc=assoc)
        with pytest.raises(ValueError, match="must divide num_entries"):
            DEFAULT_AREA.tag_bits(entries, assoc)
        with pytest.raises(ValueError, match="must divide num_entries"):
            DEFAULT_AREA.lhb_bits(entries, assoc)

    def test_tag_bits_oracle_rejected(self):
        with pytest.raises(ValueError, match="no physical storage"):
            DEFAULT_AREA.tag_bits(None)

    def test_oracle_has_no_storage(self):
        with pytest.raises(ValueError, match="no physical storage"):
            DEFAULT_AREA.lhb_bits(None)
