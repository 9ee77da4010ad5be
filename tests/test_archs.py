"""Architecture zoo: preset consistency plus the per-arch lock-in matrix.

The matrix is the PR's acceptance property: every preset in
``repro.gpu.config.ARCHS`` crossed with {DUPLO, WIR} must replay
*natively* on the vectorised fast path — the ``fast`` engine tier
answers — and stay bit-identical to the event-driven reference oracle,
on both a conv layer and an attention GEMM.
"""

import dataclasses

import pytest

from repro import obs
from repro.conv.attention import gemm_layer
from repro.energy.model import AreaModel
from repro.gpu.config import (
    ARCHS,
    BASELINE_KERNEL,
    DEFAULT_ARCH,
    GPUConfig,
    SimulationOptions,
    TITAN_V,
    arch_names,
    get_arch,
    validate_arch,
)
from repro.gpu.ldst import EliminationMode
from repro.gpu.simulator import simulate_layer

from tests.conftest import event_oracle, make_spec

OPTIONS = SimulationOptions(max_ctas=2)


@pytest.fixture(autouse=True)
def _exact_engine(monkeypatch):
    """The matrix asserts the exact tier answers: the analytic CI
    lane's ``$REPRO_ENGINE`` override may not reroute it."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
CONV_SPEC = make_spec(name="archconv", batch=2, h=6, w=6, c=8, filters=16)
GEMM_SPEC = gemm_layer("archgemm", batch=2, m=24, n=32, k=48)

ARCH_MODE_MATRIX = [
    pytest.param(arch, mode, id=f"{arch}-{mode.name.lower()}")
    for arch in sorted(ARCHS)
    for mode in (EliminationMode.DUPLO, EliminationMode.WIR)
]


class TestPresetConsistency:
    def test_volta_derivations(self):
        gpu = ARCHS["volta"].gpu
        # The canonical 16x16x16 fp16 point: 32 B fragments, 64 B
        # accumulator stores, 4096 MACs per mma.
        assert gpu.frag_bytes == 32
        assert gpu.frag_shift == 5
        assert gpu.store_frag_bytes == 64
        assert gpu.mma_macs == 4096

    def test_volta_preset_is_titan_v(self):
        assert ARCHS["volta"].gpu == TITAN_V

    def test_names_match(self):
        for name, preset in ARCHS.items():
            assert preset.name == name
            assert preset.gpu.name == name

    def test_fragments_are_pow2(self):
        for preset in ARCHS.values():
            frag = preset.gpu.frag_bytes
            assert frag & (frag - 1) == 0, preset.name

    def test_presets_validate_against_their_kernels(self):
        for preset in ARCHS.values():
            validate_arch(preset.gpu, preset.kernel)

    def test_narrow_operand_presets(self):
        assert ARCHS["ampere-int8"].gpu.element_bytes == 1
        assert ARCHS["hopper-fp8"].gpu.element_bytes == 1
        assert ARCHS["turing"].gpu == dataclasses.replace(
            ARCHS["turing"].gpu
        )  # frozen + replaceable

    def test_nonsquare_tiles(self):
        gpu = ARCHS["ampere"].gpu
        assert (gpu.tile_m, gpu.tile_n, gpu.tile_k) == (16, 8, 16)
        assert ARCHS["turing"].gpu.tile_k == 8


class TestGetArch:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARCH", raising=False)
        assert get_arch().name == DEFAULT_ARCH == "volta"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARCH", "ampere-int8")
        assert get_arch().name == "ampere-int8"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARCH", "ampere")
        assert get_arch("turing").name == "turing"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="kepler"):
            get_arch("kepler")

    def test_arch_names_ordering(self):
        # Registry order: the Volta default first, then the zoo.
        assert list(arch_names()) == list(ARCHS)
        assert list(arch_names())[0] == DEFAULT_ARCH


class TestValidateArch:
    def test_rejects_indivisible_warp_tile(self):
        gpu = GPUConfig(name="odd", tile_m=24, tile_k=16, element_bytes=2)
        with pytest.raises(ValueError, match="warp_tile_m"):
            validate_arch(gpu, BASELINE_KERNEL)

    def test_rejects_indivisible_stage(self):
        # stage_k=48 passes KernelConfig's own legacy-tile check but
        # does not decompose into ampere-int8's 32-deep k-steps.
        kernel = dataclasses.replace(BASELINE_KERNEL, stage_k=48)
        with pytest.raises(ValueError, match="stage_k"):
            validate_arch(ARCHS["ampere-int8"].gpu, kernel)

    def test_rejects_non_pow2_fragment(self):
        with pytest.raises(ValueError, match="power of two"):
            GPUConfig(tile_k=12, element_bytes=2)


class TestAreaModelForArch:
    def test_volta_keeps_canonical_width(self):
        assert AreaModel.for_arch(ARCHS["volta"].gpu).element_id_bits == 32

    def test_narrow_fragment_widens_ids(self):
        # Turing: tile_k=8 x fp16 -> 16 B fragments -> one extra bit.
        assert AreaModel.for_arch(ARCHS["turing"].gpu).element_id_bits == 33

    def test_wide_fragment_never_shrinks(self):
        gpu = GPUConfig(name="wide", tile_k=32, element_bytes=2)
        assert AreaModel.for_arch(gpu).element_id_bits == 32

    def test_overhead_stays_small_across_zoo(self):
        for preset in ARCHS.values():
            overhead = AreaModel.for_arch(preset.gpu).area_overhead(1024)
            assert 0 < overhead < 0.05, preset.name


@pytest.mark.parametrize("spec", [CONV_SPEC, GEMM_SPEC], ids=["conv", "gemm"])
@pytest.mark.parametrize("arch,mode", ARCH_MODE_MATRIX)
class TestArchDifferentialMatrix:
    """Every preset x mode x workload class replays natively."""

    def test_fast_path_native_and_bit_identical(self, arch, mode, spec):
        preset = ARCHS[arch]
        obs.enable()
        obs.reset()
        fast = simulate_layer(
            spec, mode, gpu=preset.gpu, kernel=preset.kernel, options=OPTIONS
        )
        assert obs.counters_with_prefix("engine.selected.") == {
            "engine.selected.fast": 1
        }
        with event_oracle():
            event = simulate_layer(
                spec, mode, gpu=preset.gpu, kernel=preset.kernel,
                options=OPTIONS,
            )
        assert dataclasses.asdict(fast.stats) == dataclasses.asdict(
            event.stats
        )
        assert fast.stats.loads_total > 0


@pytest.mark.parametrize("mode", [EliminationMode.DUPLO, EliminationMode.WIR])
def test_env_selected_preset_replays_natively(arch_preset, mode):
    """Whatever preset ``$REPRO_ARCH`` selects (the CI arch-matrix
    lane cycles it through the zoo) must hold the same fast-path
    contract as the explicit matrix above."""
    obs.enable()
    obs.reset()
    result = simulate_layer(
        GEMM_SPEC,
        mode,
        gpu=arch_preset.gpu,
        kernel=arch_preset.kernel,
        options=OPTIONS,
    )
    assert obs.counters_with_prefix("engine.selected.") == {
        "engine.selected.fast": 1
    }
    assert result.stats.loads_total > 0
