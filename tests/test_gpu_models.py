"""Tensor-core, register-file, and configuration models."""

import pytest

from repro.analysis.roofline import roofline_point
from repro.conv.workloads import get_layer
from repro.gpu.config import (
    BASELINE_KERNEL,
    KernelConfig,
    TITAN_V,
)
from repro.gpu import wmma
from repro.gpu.regfile import RegisterFileModel, WARP_REGISTER_BYTES


class TestTableIII:
    """The baseline GPU transcribes Table III of the paper."""

    def test_core_parameters(self):
        assert TITAN_V.num_sms == 80
        assert TITAN_V.clock_mhz == 1200
        assert TITAN_V.max_ctas_per_sm == 32
        assert TITAN_V.max_warps_per_sm == 64
        assert TITAN_V.warp_schedulers_per_sm == 4
        assert TITAN_V.tensor_cores_per_sm == 8
        assert TITAN_V.regfile_bytes_per_sm == 256 * 1024

    def test_memory_parameters(self):
        assert TITAN_V.l1_bytes == 128 * 1024
        assert TITAN_V.l2_bytes == 4608 * 1024
        assert TITAN_V.l2_assoc == 24
        assert TITAN_V.l2_latency == 120
        assert TITAN_V.dram_bandwidth_gbps == pytest.approx(652.8)

    def test_derived_bandwidth(self):
        assert TITAN_V.dram_bytes_per_cycle == pytest.approx(544.0)
        assert TITAN_V.dram_bytes_per_sm_cycle == pytest.approx(6.8)

    def test_cache_scaling_helpers(self):
        assert TITAN_V.scaled_l1(16).l1_bytes == 16 * 128 * 1024
        assert TITAN_V.scaled_l2(4).l2_bytes == 4 * 4608 * 1024


class TestKernelConfig:
    def test_baseline_occupancy_is_three_ctas(self):
        """Section II-C: C-only-in-shared fits three CTAs in 96 KB."""
        assert BASELINE_KERNEL.shared_mem_per_cta() == 32 * 1024
        assert BASELINE_KERNEL.ctas_per_sm(TITAN_V) == 3

    def test_all_operands_in_shared_fits_one_cta(self):
        kern = KernelConfig(shared_operands="abc")
        assert kern.ctas_per_sm(TITAN_V) < BASELINE_KERNEL.ctas_per_sm(TITAN_V)

    def test_warp_grid(self):
        assert BASELINE_KERNEL.warps_per_cta == 8

    def test_tiling_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(cta_tile_m=100)
        with pytest.raises(ValueError):
            KernelConfig(warp_tile_m=24)
        with pytest.raises(ValueError):
            KernelConfig(shared_operands="xyz")


class TestTensorCore:
    """Section II-B's tensor-core arithmetic, read from ``GPUConfig``."""

    def test_macs_per_core(self):
        """16 FEDPs x 4-element dot products = 64 MACs/cycle."""
        assert TITAN_V.macs_per_tensor_core_cycle == (
            wmma.FEDPS_PER_CORE * wmma.FEDP_WIDTH
        ) == 64

    def test_sm_throughput(self):
        assert TITAN_V.macs_per_sm_cycle == 512

    def test_wmma_cycles(self):
        """One 16x16x16 warp MMA occupies the SM's cores for 8 cycles."""
        assert TITAN_V.mma_macs == wmma.WMMA**3
        assert TITAN_V.mma_macs / TITAN_V.macs_per_sm_cycle == 8

    def test_paper_operational_intensity_claim(self):
        """Section II-B: tensor cores offer 8x the per-block MAC rate
        of the 16 fp32 units (16x counting mul+add separately)."""
        per_block = TITAN_V.macs_per_sm_cycle / TITAN_V.warp_schedulers_per_sm
        assert per_block / 16 == pytest.approx(8.0)

    def test_peak_tflops_order_of_magnitude(self):
        # 512 MACs x 80 SMs x 1.2 GHz x 2 = ~98 TFLOPs (V100-class).
        peak = roofline_point(get_layer("resnet", "C2")).peak_tflops
        assert peak == pytest.approx(98.3, rel=0.01)


class TestRegisterFile:
    MODEL = RegisterFileModel()

    def test_warp_register_count(self):
        assert self.MODEL.warp_registers_per_sm == 2048

    def test_operand_footprint_scales_with_runahead(self):
        one = self.MODEL.operand_registers_per_warp(1)
        four = self.MODEL.operand_registers_per_warp(4)
        assert four == 4 * one
        assert one > 0

    def test_octet_duplication_overhead_is_half(self):
        """Section II-B: dual copies double the operand registers."""
        assert self.MODEL.duplication_overhead() == 0.5

    def test_warp_register_is_128_bytes(self):
        assert WARP_REGISTER_BYTES == 32 * 4
