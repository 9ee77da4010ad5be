"""Simulator trace-slot contract: full-options keys, one trace per thread.

The seed implementation keyed its in-process cache on
``(spec, gpu, kernel, options.max_ctas, options.representative_sm)``.
Two ``SimulationOptions`` objects that differed in any *other* field
(id_mode, lhb_lifetime, granularity, ...) aliased to one cache slot — a
latent correctness hazard the moment any such field influences trace
generation.  These tests pin the fixed contract: distinct options ⇒
distinct traces, equal options ⇒ one synthesis, and each thread holds
at most one trace, its own.
"""

import threading

import pytest

from tests.conftest import make_spec
from repro.conv.workloads import get_layer
from repro.core.idgen import IDMode
from repro.gpu import fastpath, simulator
from repro.gpu.config import SimulationOptions
from repro.gpu.kernel import plan_sm_trace
from repro.gpu.simulator import clear_trace_cache, simulate_layer
from repro.runtime.cachekey import result_key


@pytest.fixture(autouse=True)
def _fresh_cache(monkeypatch):
    # Trace-count assertions require an exact tier: the analytic CI
    # lane's $REPRO_ENGINE=analytic would skip trace generation.
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    clear_trace_cache()
    yield
    clear_trace_cache()


@pytest.fixture
def count_generation(monkeypatch):
    calls = []
    real = simulator.generate_sm_trace

    def counting(spec, gpu, kernel, options):
        calls.append((spec.name, options))
        return real(spec, gpu, kernel, options)

    monkeypatch.setattr(simulator, "generate_sm_trace", counting)
    return calls


def _held_key():
    entry = getattr(fastpath._fed_memo, "entry", None)
    return None if entry is None else entry[1]


class TestFullOptionsKey:
    def test_options_beyond_cta_fields_do_not_alias(self, count_generation):
        """Regression: the seed cache keyed only on max_ctas /
        representative_sm, so these two options objects shared one
        trace slot.  Each must get its own trace."""
        spec = make_spec()
        a = SimulationOptions(max_ctas=2, id_mode=IDMode.CANONICAL)
        b = SimulationOptions(max_ctas=2, id_mode=IDMode.PAPER)
        simulate_layer(spec, options=a)
        first = _held_key()
        simulate_layer(spec, options=b)
        assert len(count_generation) == 2
        assert _held_key() != first

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
        a = result_key(
            spec, gpu, kernel, SimulationOptions(max_ctas=2), "duplo", 64, 1
        )
        b = result_key(
            spec, gpu, kernel,
            SimulationOptions(max_ctas=2, id_mode=IDMode.PAPER),
            "duplo", 64, 1,
        )
        assert a != b


class TestOneSlotPerThread:
    def test_a_new_trace_replaces_the_held_one(self, count_generation):
        opts = SimulationOptions(max_ctas=1)
        s1, s2 = (make_spec(name=f"slot{i}", h=6 + i) for i in range(2))
        simulate_layer(s1, options=opts)
        simulate_layer(s2, options=opts)
        simulate_layer(s1, options=opts)  # s2 took the slot
        assert [name for name, _ in count_generation] == [
            "slot0", "slot1", "slot0"
        ]

    def test_clear_empties_the_slot(self, count_generation):
        spec = make_spec()
        opts = SimulationOptions(max_ctas=1)
        simulate_layer(spec, options=opts)
        clear_trace_cache()
        assert _held_key() is None
        simulate_layer(spec, options=opts)
        assert len(count_generation) == 2

    def test_threads_never_see_each_others_slot(self, count_generation):
        """Two threads replaying different layers each synthesize and
        keep their own trace; neither sees the other's."""
        opts = SimulationOptions(max_ctas=1)
        specs = [make_spec(name=f"thread{i}", h=6 + i) for i in range(2)]
        barrier = threading.Barrier(2)
        held = {}

        def work(spec):
            simulate_layer(spec, options=opts)
            barrier.wait(30)  # both slots are filled now
            held[spec.name] = _held_key()[0]
            simulate_layer(spec, options=opts)  # still its own trace

        threads = [threading.Thread(target=work, args=(s,)) for s in specs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        assert held == {s.name: s for s in specs}
        assert sorted(name for name, _ in count_generation) == [
            "thread0", "thread1"
        ]
        assert _held_key() is None  # the main thread holds nothing


class TestSlotBookkeeping:
    def test_keyed_replay_takes_the_slot(self):
        """A replay given a trace key leaves that trace in the slot, so
        the next lookup under the key synthesizes nothing."""
        spec = make_spec()
        opts = SimulationOptions(max_ctas=1)
        trace = simulator.generate_sm_trace(
            spec, simulator.TITAN_V, simulator.BASELINE_KERNEL, opts
        )
        key = ("replayed", spec)
        fastpath.replay_trace_fast(trace, spec, options=opts, trace_key=key)

        def boom():
            raise AssertionError("the slot should hold the trace")

        assert fastpath.held_trace(key, boom) is trace

    def test_new_trace_drops_the_old_streams(self):
        spec = make_spec()
        opts = SimulationOptions(max_ctas=1)
        simulate_layer(spec, options=opts)
        entry = fastpath._fed_memo.entry
        assert entry[3] is not None  # the fold of that trace
        simulate_layer(make_spec(name="other", h=7), options=opts)
        assert fastpath._fed_memo.entry[1] != entry[1]
        assert fastpath._fed_memo.entry[3] is not entry[3]

    def test_clear_reaches_other_threads(self, count_generation):
        """``clear_trace_cache`` in one thread invalidates a slot
        another thread filled earlier."""
        spec = make_spec()
        opts = SimulationOptions(max_ctas=1)
        filled, cleared = threading.Event(), threading.Event()

        def work():
            simulate_layer(spec, options=opts)
            filled.set()
            if cleared.wait(30):
                simulate_layer(spec, options=opts)

        worker = threading.Thread(target=work)
        worker.start()
        assert filled.wait(30)
        clear_trace_cache()
        cleared.set()
        worker.join(60)
        assert not worker.is_alive()
        assert len(count_generation) == 2


class TestIdleSm:
    """An SM that runs no CTA is not a result: reject it up front."""

    def test_max_ctas_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_ctas"):
            SimulationOptions(max_ctas=0)

    def test_negative_representative_sm_rejected(self):
        with pytest.raises(ValueError, match="representative_sm"):
            SimulationOptions(representative_sm=-1)

    @pytest.mark.parametrize("network,layer,grid", [
        ("gan", "TC3", 64), ("resnet", "C6", 52),
    ])
    def test_sm_without_a_cta_rejected(self, network, layer, grid):
        spec = get_layer(network, layer)
        options = SimulationOptions(representative_sm=79)
        with pytest.raises(
            ValueError, match=rf"{network}/{layer}.*grid_ctas={grid}"
        ):
            plan_sm_trace(spec, options=options)
        with pytest.raises(ValueError, match="grid_ctas"):
            simulate_layer(spec, options=options)

    def test_analytic_tier_rejects_it_too(self):
        options = SimulationOptions(representative_sm=79, engine="analytic")
        with pytest.raises(ValueError, match="grid_ctas"):
            simulate_layer(get_layer("gan", "TC3"), options=options)

    def test_sm_beyond_the_gpu_rejected(self):
        options = SimulationOptions(representative_sm=80, max_ctas=1)
        with pytest.raises(ValueError, match="80 SMs"):
            plan_sm_trace(get_layer("yolo", "C2"), options=options)

    def test_last_busy_sm_is_a_result(self):
        spec = get_layer("gan", "TC3")
        result = simulate_layer(
            spec, options=SimulationOptions(representative_sm=63)
        )
        assert result.stats.lhb_hits > 0
        assert result.stats.loads_total > 0
