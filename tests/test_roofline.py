"""Roofline analysis: the memory-boundedness premise."""

import pytest

from repro.analysis.roofline import roofline_point, roofline_table
from repro.conv.workloads import ALL_LAYERS, get_layer
from repro.gpu.config import ARCHS


class TestRooflinePoint:
    def test_explicit_gemm_is_memory_bound(self):
        """The Yan et al. premise the paper builds on: the explicit
        lowered GEMM of the large early layers sits under the
        bandwidth slope (late, channel-heavy layers with small
        workspaces climb above it)."""
        for name in ("C1", "C2", "C4"):
            point = roofline_point(get_layer("resnet", name))
            assert point.memory_bound, name
        for name in ("C2", "C3"):
            assert roofline_point(get_layer("yolo", name)).memory_bound

    def test_dedup_raises_intensity(self):
        spec = get_layer("resnet", "C2")
        explicit = roofline_point(spec, implicit=False)
        implicit = roofline_point(spec, implicit=True)
        assert implicit.arithmetic_intensity > explicit.arithmetic_intensity

    def test_attainable_capped_by_peak(self):
        for spec in ALL_LAYERS:
            point = roofline_point(spec)
            assert point.attainable_tflops <= point.peak_tflops + 1e-9

    def test_machine_balance_value(self):
        # ~98 TFLOPs over 652.8 GB/s -> ~150 FLOPs/byte.
        point = roofline_point(get_layer("resnet", "C2"))
        assert point.machine_balance == pytest.approx(150.6, rel=0.02)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_peak_is_the_presets_tensor_core_rate(self, arch):
        """Each preset's peak is its own MAC rate: 2 FLOPs per MAC,
        ``macs_per_sm_cycle`` per SM per cycle, over every SM."""
        gpu = ARCHS[arch].gpu
        point = roofline_point(get_layer("yolo", "C2"), gpu)
        assert point.peak_tflops == pytest.approx(
            2 * gpu.macs_per_sm_cycle * gpu.num_sms * gpu.clock_hz / 1e12
        )
        assert point.machine_balance == pytest.approx(
            point.peak_tflops * 1e3 / gpu.dram_bandwidth_gbps
        )

    def test_utilisation_bound_in_unit_interval(self):
        for spec in ALL_LAYERS:
            u = roofline_point(spec).utilisation_bound
            assert 0 < u <= 1


class TestRooflineTable:
    def test_headroom_reflects_duplication(self):
        rows = roofline_table(
            [get_layer("resnet", "C2"), get_layer("resnet", "C5")]
        )
        by_layer = {r["layer"]: r for r in rows}
        # C2 duplicates 9x; C5 barely 2x -> dedup headroom much larger
        # for C2.
        assert (
            by_layer["resnet/C2"]["dedup_headroom"]
            > by_layer["resnet/C5"]["dedup_headroom"]
        )

    def test_every_table1_layer_has_headroom(self):
        for row in roofline_table(ALL_LAYERS):
            assert row["dedup_headroom"] >= 1.0
