"""End-to-end layer simulation: modes, scaling, caching, improvements."""

import pytest

from repro.gpu.config import KernelConfig, SimulationOptions
from repro.gpu.simulator import (
    EliminationMode,
    clear_trace_cache,
    make_lhb,
    performance_improvement,
    simulate_layer,
    simulate_pair,
)

from tests.conftest import make_spec

KERNEL = KernelConfig(warp_runahead=8)


@pytest.fixture(scope="module")
def spec():
    # C=16 -> intra-patch duplicates at k-distance 1: detectable.
    return make_spec(batch=2, h=12, w=12, c=16, filters=16)


@pytest.fixture(autouse=True)
def _fresh_cache(monkeypatch):
    # Event/fast tier internals are asserted here; pin the engine so
    # the analytic CI lane cannot reroute them.
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    clear_trace_cache()
    yield
    clear_trace_cache()


class TestSimulateLayer:
    def test_baseline_ignores_lhb_args(self, spec):
        r = simulate_layer(spec, EliminationMode.BASELINE, kernel=KERNEL)
        assert r.lhb_entries is None
        assert r.stats.lhb_lookups == 0

    def test_duplo_records_configuration(self, spec):
        r = simulate_layer(spec, lhb_entries=512, lhb_assoc=2, kernel=KERNEL)
        assert (r.lhb_entries, r.lhb_assoc) == (512, 2)

    def test_cycles_positive_and_time_consistent(self, spec):
        r = simulate_layer(spec, kernel=KERNEL)
        assert r.cycles > 0
        assert r.time_ms == pytest.approx(r.cycles / 1.2e9 * 1e3)

    def test_components_recorded(self, spec):
        r = simulate_layer(spec, kernel=KERNEL)
        assert set(r.stats.cycle_components) == {
            "compute",
            "ldst",
            "l2",
            "dram",
            "exposed_latency",
        }

    def test_improvement_positive_for_duplicated_layer(self, spec):
        assert performance_improvement(spec, kernel=KERNEL) > 0

    def test_oracle_at_least_finite(self, spec):
        base, d1024 = simulate_pair(spec, kernel=KERNEL)
        oracle = simulate_layer(spec, lhb_entries=None, kernel=KERNEL)
        assert oracle.stats.lhb_hit_rate >= d1024.stats.lhb_hit_rate
        assert oracle.speedup_over(base) >= d1024.speedup_over(base) - 1e-9


class TestScaling:
    def test_cta_cap_extrapolates_counts(self):
        spec = make_spec(batch=8, h=16, w=16, c=16, filters=16)
        full = simulate_layer(spec, EliminationMode.BASELINE, kernel=KERNEL)
        capped = simulate_layer(
            spec,
            EliminationMode.BASELINE,
            kernel=KERNEL,
            options=SimulationOptions(max_ctas=1),
        )
        ratio = capped.stats.loads_total / full.stats.loads_total
        assert ratio == pytest.approx(1.0, rel=0.05)

    def test_full_stats_cover_whole_grid(self, spec):
        r = simulate_layer(spec, EliminationMode.BASELINE, kernel=KERNEL)
        # Full-layer load count must match the layer's tiling, not one
        # SM's share: every 16x16x16 tile triple implies A fragments.
        assert r.stats.loads_total > 0
        assert r.stats.mma_ops > 0


class TestTraceCache:
    @pytest.fixture
    def generated(self, monkeypatch):
        import repro.gpu.simulator as sim

        calls = []
        real = sim.generate_sm_trace

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sim, "generate_sm_trace", counting)
        return calls

    def test_cache_reuses_trace_across_modes(self, spec, generated):
        simulate_layer(spec, EliminationMode.BASELINE, kernel=KERNEL)
        simulate_layer(spec, EliminationMode.DUPLO, kernel=KERNEL)
        assert len(generated) == 1

    def test_different_options_different_trace(self, spec, generated):
        simulate_layer(spec, kernel=KERNEL)
        simulate_layer(
            spec, kernel=KERNEL, options=SimulationOptions(max_ctas=1)
        )
        assert len(generated) == 2


class TestMakeLhb:
    def test_oracle(self):
        assert make_lhb(None).is_oracle

    def test_parameters_propagate(self):
        lhb = make_lhb(256, assoc=4, lifetime=99, hashed_index=False)
        assert lhb.num_entries == 256
        assert lhb.assoc == 4
        assert lhb.lifetime == 99
        assert not lhb.hashed_index


class TestModesDiffer:
    def test_wir_vs_duplo_vs_baseline(self, spec):
        base = simulate_layer(spec, EliminationMode.BASELINE, kernel=KERNEL)
        wir = simulate_layer(spec, EliminationMode.WIR, kernel=KERNEL)
        duplo = simulate_layer(spec, EliminationMode.DUPLO, kernel=KERNEL)
        assert base.stats.lhb_hits == 0
        assert wir.stats.lhb_hits > 0
        assert duplo.stats.lhb_hits > 0
        # Duplo eliminates at least the same workspace traffic as the
        # same-address-only filter does on workspace loads.
        assert duplo.cycles <= base.cycles


class TestConvenienceApi:
    def test_performance_improvement_matches_pair(self, spec):
        from repro.gpu.simulator import performance_improvement

        base, duplo = simulate_pair(spec, kernel=KERNEL)
        imp = performance_improvement(spec, kernel=KERNEL)
        assert imp == pytest.approx(duplo.speedup_over(base) - 1)

    def test_top_level_reexport(self, spec):
        import repro

        r = repro.simulate_layer(spec, EliminationMode.BASELINE, kernel=KERNEL)
        assert r.cycles > 0
