"""Simulator trace-cache contract: full-options keys, LRU, disk store.

The seed implementation keyed its in-process cache on
``(spec, gpu, kernel, options.max_ctas, options.representative_sm)``
and evicted FIFO.  Two ``SimulationOptions`` objects that differed in
any *other* field (id_mode, lhb_lifetime, granularity, ...) aliased
to one cache slot — a latent correctness hazard the moment any such
field influences trace generation.  These tests pin the fixed
contract: distinct options ⇒ distinct entries, hits refresh recency
(true LRU), and the optional disk store round-trips traces exactly.
"""

import numpy as np
import pytest

from tests.conftest import make_spec
from repro import obs
from repro.core.idgen import IDMode
from repro.gpu import simulator
from repro.gpu.config import SimulationOptions
from repro.gpu.kernel import generate_sm_trace, plan_sm_trace
from repro.gpu.simulator import clear_trace_cache, simulate_layer, trace_cache_info
from repro.runtime import DiskCache
from repro.runtime.cachekey import trace_key


@pytest.fixture(autouse=True)
def _fresh_cache(monkeypatch):
    # Trace-count assertions require an exact tier: the analytic CI
    # lane's $REPRO_ENGINE=analytic would skip trace generation.
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    clear_trace_cache()
    simulator.set_trace_store(None)
    yield
    clear_trace_cache()
    simulator.set_trace_store(None)


@pytest.fixture
def count_generation(monkeypatch):
    calls = []
    real = simulator.generate_sm_trace

    def counting(spec, gpu, kernel, options):
        calls.append((spec.name, options))
        return real(spec, gpu, kernel, options)

    monkeypatch.setattr(simulator, "generate_sm_trace", counting)
    return calls


class TestFullOptionsKey:
    def test_options_beyond_cta_fields_do_not_alias(self, count_generation):
        """Regression: the seed cache keyed only on max_ctas /
        representative_sm, so these two options objects shared one
        trace slot.  They must occupy distinct entries."""
        spec = make_spec()
        a = SimulationOptions(max_ctas=2, id_mode=IDMode.CANONICAL)
        b = SimulationOptions(max_ctas=2, id_mode=IDMode.PAPER)
        simulate_layer(spec, options=a)
        simulate_layer(spec, options=b)
        assert len(count_generation) == 2
        assert len(trace_cache_info()["keys"]) == 2

    def test_distinct_lifetime_distinct_entries(self, count_generation):
        spec = make_spec()
        simulate_layer(spec, options=SimulationOptions(max_ctas=2))
        simulate_layer(
            spec, options=SimulationOptions(max_ctas=2, lhb_lifetime=128)
        )
        assert len(count_generation) == 2

    def test_equal_options_hit(self, count_generation):
        spec = make_spec()
        simulate_layer(spec, options=SimulationOptions(max_ctas=2))
        simulate_layer(spec, options=SimulationOptions(max_ctas=2))
        assert len(count_generation) == 1

    def test_disk_key_covers_full_options(self):
        spec = make_spec()
        gpu = simulator.TITAN_V
        kernel = simulator.BASELINE_KERNEL
        a = trace_key(spec, gpu, kernel, SimulationOptions(max_ctas=2))
        b = trace_key(
            spec, gpu, kernel,
            SimulationOptions(max_ctas=2, id_mode=IDMode.PAPER),
        )
        assert a != b


class TestLRUEviction:
    def test_hit_refreshes_recency(self, count_generation, monkeypatch):
        monkeypatch.setattr(simulator, "_TRACE_CACHE_LIMIT", 2)
        opts = SimulationOptions(max_ctas=1)
        s1, s2, s3 = (make_spec(name=f"lru{i}", h=6 + i) for i in range(3))
        simulate_layer(s1, options=opts)
        simulate_layer(s2, options=opts)
        simulate_layer(s1, options=opts)  # refresh s1
        simulate_layer(s3, options=opts)  # evicts s2, not s1
        n = len(count_generation)
        simulate_layer(s1, options=opts)  # still resident
        assert len(count_generation) == n
        simulate_layer(s2, options=opts)  # was evicted -> regenerates
        assert len(count_generation) == n + 1

    def test_limit_respected(self, monkeypatch):
        monkeypatch.setattr(simulator, "_TRACE_CACHE_LIMIT", 2)
        opts = SimulationOptions(max_ctas=1)
        for i in range(4):
            simulate_layer(make_spec(name=f"cap{i}", h=6 + i), options=opts)
        assert trace_cache_info()["size"] <= 2


class TestDiskBackedTraces:
    def test_round_trip_skips_regeneration(self, tmp_path, count_generation):
        store = DiskCache(tmp_path / "cache")
        simulator.set_trace_store(store)
        spec = make_spec()
        opts = SimulationOptions(max_ctas=2)
        first = simulate_layer(spec, options=opts)
        assert len(count_generation) == 1
        clear_trace_cache()  # drop memory; disk must serve
        second = simulate_layer(spec, options=opts)
        assert len(count_generation) == 1
        assert second.stats == first.stats
        assert second.cycles == first.cycles

    def test_persisted_trace_identical(self, tmp_path):
        store = DiskCache(tmp_path / "cache")
        simulator.set_trace_store(store)
        spec = make_spec()
        opts = SimulationOptions(max_ctas=2)
        trace = simulator._get_trace(
            spec, simulator.TITAN_V, simulator.BASELINE_KERNEL, opts
        )
        key = trace_key(
            spec, simulator.TITAN_V, simulator.BASELINE_KERNEL, opts
        )
        loaded = store.get_trace(key)
        np.testing.assert_array_equal(loaded.kind, trace.kind)
        np.testing.assert_array_equal(loaded.address, trace.address)
        np.testing.assert_array_equal(loaded.warp, trace.warp)
        np.testing.assert_array_equal(loaded.instr, trace.instr)
        assert loaded.grid_ctas == trace.grid_ctas
        assert loaded.lda == trace.lda

    def test_corrupt_artifact_degrades_to_miss(self, tmp_path, count_generation):
        store = DiskCache(tmp_path / "cache")
        simulator.set_trace_store(store)
        spec = make_spec()
        opts = SimulationOptions(max_ctas=1)
        simulate_layer(spec, options=opts)
        # Corrupt every persisted events file, drop memory, re-simulate.
        corrupted = 0
        for p in (tmp_path / "cache" / "traces").rglob("*.events.npy"):
            p.write_bytes(b"\x80corrupt")
            corrupted += 1
        assert corrupted, "no persisted trace artifacts found"
        clear_trace_cache()
        simulate_layer(spec, options=opts)
        assert len(count_generation) == 2


class TestTraceByteAccounting:
    """``store.trace_bytes_read/_written`` count the sidecar pair — for
    materialised puts and stream-written traces alike."""

    @pytest.fixture(autouse=True)
    def _metrics(self):
        obs.enable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    @staticmethod
    def _pair_bytes(root):
        files = list(root.rglob("*.events.npy")) + list(
            root.rglob("*.meta.json")
        )
        assert len(files) == 2
        return sum(p.stat().st_size for p in files)

    def test_put_and_get_count_the_sidecar_pair(self, tmp_path):
        trace = generate_sm_trace(make_spec(), options=SimulationOptions(
            max_ctas=1))
        store = DiskCache(tmp_path)
        store.put_trace("ab" * 32, trace)
        size = self._pair_bytes(tmp_path)
        store.get_trace("ab" * 32)
        assert obs.counters_with_prefix("store.trace_bytes_") == {
            "store.trace_bytes_written": size,
            "store.trace_bytes_read": size,
        }

    def test_stream_written_trace_is_counted(self, tmp_path):
        plan = plan_sm_trace(make_spec(), options=SimulationOptions(
            max_ctas=1))
        store = DiskCache(tmp_path)
        writer = store.trace_stream_writer(
            "cd" * 32, plan.meta(), plan.event_count()
        )
        for block in plan.iter_blocks(100):
            writer.append(block)
        writer.commit()
        size = self._pair_bytes(tmp_path)
        store.get_trace("cd" * 32)
        assert obs.counters_with_prefix("store.trace_bytes_") == {
            "store.trace_bytes_written": size,
            "store.trace_bytes_read": size,
        }
