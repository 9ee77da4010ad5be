"""Implicit GEMM mode (Section II-C / V-D extension)."""

import numpy as np
import pytest

from repro.gpu.config import (
    ARCHS,
    BASELINE_KERNEL,
    GPUConfig,
    IMPLICIT_KERNEL,
    KernelConfig,
    SimulationOptions,
    TITAN_V,
    validate_arch,
)
from repro.gpu.isa import (
    INPUT_BASE,
    LOAD_A,
    LOAD_A_SHARED,
    LOAD_B_SHARED,
    LOAD_INPUT,
)
from repro.gpu.kernel import generate_sm_trace
from repro.gpu.simulator import EliminationMode, clear_trace_cache, simulate_layer

from tests.conftest import make_spec

GPU = GPUConfig(num_sms=2)
IMPLICIT_SMALL = KernelConfig(
    shared_operands="abc", implicit=True, warp_runahead=4, stage_k=32
)


@pytest.fixture(scope="module")
def spec():
    return make_spec(batch=2, h=8, w=8, c=16, filters=16)


@pytest.fixture(scope="module")
def trace(spec):
    return generate_sm_trace(spec, GPU, IMPLICIT_SMALL, SimulationOptions())


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    clear_trace_cache()
    yield
    clear_trace_cache()


class TestConfig:
    def test_implicit_requires_ab_staging(self):
        with pytest.raises(ValueError, match="implicit GEMM stages"):
            KernelConfig(shared_operands="c", implicit=True)

    def test_stage_k_tile_multiple(self):
        """The stage depth must be whole k-steps of the GPU's tile_k:
        24 is not on Volta (tile_k=16) but is on Turing (tile_k=8)."""
        kernel = KernelConfig(shared_operands="abc", implicit=True, stage_k=24)
        with pytest.raises(ValueError, match="stage_k"):
            validate_arch(TITAN_V, kernel)
        validate_arch(ARCHS["turing"].gpu, kernel)

    def test_one_cta_per_sm(self):
        """Section II-C: the 64 KB implicit CTA fits once in 96 KB."""
        assert IMPLICIT_KERNEL.ctas_per_sm(TITAN_V) == 1
        assert IMPLICIT_KERNEL.shared_mem_per_cta() > 32 * 1024


class TestTrace:
    def test_workspace_loads_become_shared(self, trace):
        kinds = set(trace.kind.tolist())
        assert LOAD_A_SHARED in kinds
        assert LOAD_B_SHARED in kinds
        assert LOAD_A not in kinds

    def test_staging_fetches_present(self, trace):
        assert LOAD_INPUT in set(trace.kind.tolist())
        inputs = trace.address[trace.kind == LOAD_INPUT]
        assert (inputs >= INPUT_BASE).all()

    def test_staging_fetches_unique_per_chunk(self, spec, trace):
        """The cooperative copy never refetches a block within one
        chunk, and total staged blocks cannot exceed the input size."""
        inputs = trace.address[trace.kind == LOAD_INPUT]
        blocks_per_cta = spec.input_elements * 2 / 32
        assert len(inputs) <= len(trace.kind)
        assert len(np.unique(inputs)) * 1.0 <= blocks_per_cta * trace.traced_ctas

    def test_global_traffic_smaller_than_explicit(self, spec):
        explicit = generate_sm_trace(
            spec, GPU, KernelConfig(warp_runahead=4), SimulationOptions()
        )
        imp = generate_sm_trace(spec, GPU, IMPLICIT_SMALL, SimulationOptions())
        explicit_global = int((explicit.kind == LOAD_A).sum())
        staged = int((imp.kind == LOAD_INPUT).sum())
        # Staging fetches the unexpanded input: far fewer global
        # fragments than the duplicated workspace reads.
        assert staged < explicit_global


class TestSimulation:
    def test_implicit_cuts_dram_reads(self, spec):
        base_exp = simulate_layer(
            spec,
            EliminationMode.BASELINE,
            kernel=KernelConfig(warp_runahead=4),
        )
        base_imp = simulate_layer(
            spec, EliminationMode.BASELINE, kernel=IMPLICIT_SMALL
        )
        assert base_imp.stats.dram_read_bytes < base_exp.stats.dram_read_bytes

    def test_duplo_still_helps_implicit(self, spec):
        """Section V-D: Duplo turns shared accesses into renaming."""
        base = simulate_layer(
            spec, EliminationMode.BASELINE, kernel=IMPLICIT_SMALL
        )
        duplo = simulate_layer(
            spec, EliminationMode.DUPLO, kernel=IMPLICIT_SMALL
        )
        assert duplo.stats.lhb_hits > 0
        assert duplo.stats.shared_accesses < base.stats.shared_accesses
        assert duplo.cycles <= base.cycles

    def test_breakdown_contains_shared(self, spec):
        base = simulate_layer(
            spec, EliminationMode.BASELINE, kernel=IMPLICIT_SMALL
        )
        assert base.stats.breakdown.shared > 0
        assert base.stats.breakdown.total == base.stats.loads_total

    def test_load_accounting_partitions(self, spec):
        r = simulate_layer(spec, EliminationMode.BASELINE, kernel=IMPLICIT_SMALL)
        s = r.stats
        assert s.loads_total == (
            s.loads_workspace + s.loads_filter + s.loads_input
        )
        assert s.loads_input > 0


class TestStagingCompleteness:
    def test_staged_blocks_cover_chunk_interior(self, spec):
        """Every interior input element a staged chunk references must
        be covered by the cooperative fetches (no element can appear
        in shared memory without having been read from global)."""
        import numpy as np

        from repro.conv.lowering import entries_to_padded_flat
        from repro.gpu.kernel import _stage_input_fragments, gemm_geometry

        geom = gemm_geometry(spec)
        eff = spec.effective_spec()
        row_range = (0, min(64, geom.m))
        col_range = (0, min(32, geom.k))
        frags = _stage_input_fragments(spec, geom, row_range, col_range)
        staged_blocks = set(((frags - INPUT_BASE) // 32).tolist())

        rr, cc = np.meshgrid(
            np.arange(*row_range), np.arange(*col_range), indexing="ij"
        )
        batch, element = entries_to_padded_flat(spec, rr.ravel(), cc.ravel())
        padded_w = eff.in_width + 2 * eff.pad
        py, rem = np.divmod(element, padded_w * eff.in_channels)
        px, ch = np.divmod(rem, eff.in_channels)
        iy, ix = py - eff.pad, px - eff.pad
        interior = (
            (iy >= 0) & (iy < eff.in_height) & (ix >= 0) & (ix < eff.in_width)
        )
        flat = (
            ((batch * eff.in_height + iy) * eff.in_width + ix)
            * eff.in_channels
            + ch
        )
        needed = set((flat[interior] * 2 // 32).tolist())
        assert needed <= staged_blocks
        assert needed == staged_blocks  # and nothing extra is fetched

    def test_empty_chunk_stages_nothing(self, spec):
        from repro.gpu.kernel import _stage_input_fragments, gemm_geometry

        geom = gemm_geometry(spec)
        frags = _stage_input_fragments(spec, geom, (geom.m, geom.m + 16), (0, 16))
        assert len(frags) == 0
