"""Analytic timing model: component arithmetic and monotonicity."""

import pytest

from repro.gpu.config import TITAN_V
from repro.gpu.stats import LayerStats
from repro.gpu.timing import (
    KERNEL_OVERHEAD_CYCLES,
    TimingModel,
)


def stats(**kwargs):
    defaults = dict(
        loads_total=10000,
        loads_workspace=5000,
        loads_filter=5000,
        stores=500,
        mma_ops=300,
        l1_accesses=10000,
        l1_hits=8000,
        l2_accesses=2000,
        l2_hits=1000,
        dram_read_bytes=1000 * 128,
        dram_write_bytes=500 * 64,
    )
    defaults.update(kwargs)
    return LayerStats(**defaults)


MODEL = TimingModel()


class TestComponents:
    def test_compute_cycles(self):
        comps = MODEL.components(stats(), concurrent_warps=24, busy_sms=80)
        expected = 300 * TITAN_V.mma_macs / TITAN_V.macs_per_sm_cycle
        assert comps["compute"] == pytest.approx(expected)

    def test_ldst_charges_issued_fragments(self):
        s_all = stats()
        s_elim = stats(eliminated_fragments=4000, lhb_hits=250, lhb_lookups=5000)
        c_all = MODEL.components(s_all, 24, 80)["ldst"]
        c_elim = MODEL.components(s_elim, 24, 80)["ldst"]
        assert c_elim < c_all

    def test_dram_component_scales_with_bytes(self):
        c1 = MODEL.components(stats(), 24, 80)["dram"]
        c2 = MODEL.components(stats(dram_read_bytes=2000 * 128), 24, 80)["dram"]
        assert c2 > c1

    def test_fewer_busy_sms_get_more_bandwidth(self):
        few = MODEL.components(stats(), 24, busy_sms=8)["dram"]
        many = MODEL.components(stats(), 24, busy_sms=80)["dram"]
        assert few < many

    def test_exposed_latency_shrinks_with_warps(self):
        low = MODEL.components(stats(), concurrent_warps=8, busy_sms=80)
        high = MODEL.components(stats(), concurrent_warps=48, busy_sms=80)
        assert high["exposed_latency"] < low["exposed_latency"]


class TestTotalCycles:
    def test_total_exceeds_bottleneck(self):
        total, comps = MODEL.cycles(stats(), 24, 80)
        assert total >= max(comps.values()) + KERNEL_OVERHEAD_CYCLES

    def test_elimination_speeds_up(self):
        base, _ = MODEL.cycles(stats(), 24, 80)
        s = stats(
            eliminated_fragments=4000,
            lhb_hits=250,
            lhb_lookups=5000,
            l1_accesses=6000,
            l1_hits=5000,
            l2_accesses=1000,
            l2_hits=600,
            dram_read_bytes=400 * 128,
        )
        duplo, _ = MODEL.cycles(s, 24, 80)
        assert duplo < base

    def test_three_cycle_detection_costs_little(self):
        """Section IV-A: the 3-cycle detection unit loses ~0.9%."""
        s = stats(lhb_lookups=5000, lhb_hits=2500, eliminated_fragments=2500)
        fast, _ = TimingModel(detection_latency=2).cycles(s, 24, 80)
        slow, _ = TimingModel(detection_latency=3).cycles(s, 24, 80)
        assert slow >= fast
        assert (slow - fast) / fast < 0.05

    def test_execution_time_ms(self):
        model = TimingModel()
        assert model.execution_time_ms(1.2e6) == pytest.approx(1.0)

    def test_zero_overlap_is_pure_roofline(self):
        model = TimingModel(overlap=0.0)
        total, comps = model.cycles(stats(), 24, 80)
        assert total == pytest.approx(
            max(comps.values()) + KERNEL_OVERHEAD_CYCLES
        )

    def test_full_overlap_is_serialised_sum(self):
        model = TimingModel(overlap=1.0)
        total, comps = model.cycles(stats(), 24, 80)
        assert total == pytest.approx(sum(comps.values()) + KERNEL_OVERHEAD_CYCLES)
