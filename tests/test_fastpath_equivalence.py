"""Fast path vs. event path: bit-identical LayerStats, end to end.

The acceptance bar for the vectorised replay: `dataclasses.asdict`
equality on every counter, for every elimination mode, on real Table I
layer traces — plus the plumbing around it (:func:`simulate_layer`
against the oracle, its `$REPRO_ENGINE` override and cache-key
normalisation).  Both replays are called explicitly, so the module needs no
environment forcing.
"""

import dataclasses

import pytest

from repro import obs
from repro.conv.workloads import get_layer
from repro.core.idgen import IDMode
from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.config import (
    BASELINE_KERNEL,
    IMPLICIT_KERNEL,
    SimulationOptions,
    TITAN_V,
)
from repro.gpu.fastpath import replay_blocks_fast, replay_trace_fast
from repro.gpu.kernel import generate_sm_trace, plan_sm_trace
from repro.gpu.ldst import EliminationMode, replay_trace, workspace_unique_ids
from repro.gpu.multikernel import (
    _interleave,
    _workspace_stream,
    simulate_shared_lhb,
)
from repro.gpu.simulator import make_lhb, simulate_layer
from repro.runtime.cachekey import result_key
from repro.runtime.executor import SimPoint, _resolves_analytic

from tests.conftest import event_oracle, make_spec


@pytest.fixture(autouse=True)
def _exact_engine(monkeypatch):
    """Fast-vs-event equivalence is meaningless under the analytic
    tier; the engine lanes must not reroute these dispatch tests."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)

TABLE_I_LAYERS = [
    ("resnet", "C2"),
    ("resnet", "C8"),
    ("gan", "TC1"),
    ("gan", "TC3"),
    ("gan", "C2"),
    ("yolo", "C2"),
    ("yolo", "C5"),
]

OPTIONS = SimulationOptions(max_ctas=1)

_traces = {}


def layer_trace(network, layer, options=OPTIONS, kernel=BASELINE_KERNEL):
    """Per-module trace cache: one generation pays for all four modes."""
    key = (network, layer, options, kernel)
    if key not in _traces:
        spec = get_layer(network, layer)
        _traces[key] = (
            spec, generate_sm_trace(spec, TITAN_V, kernel, options)
        )
    return _traces[key]


def both_replays(
    trace, spec, options, mode, lhb_entries="default", lhb_assoc=1
):
    """Run the event and fast replays on fresh, identical state."""

    def fresh_lhb():
        if mode is EliminationMode.BASELINE:
            return None
        entries = 1024 if lhb_entries == "default" else lhb_entries
        return make_lhb(
            entries, lhb_assoc, options.lhb_lifetime, options.lhb_hashed_index
        )

    event = replay_trace(trace, spec, TITAN_V, options, mode, fresh_lhb())
    fast = replay_trace_fast(trace, spec, TITAN_V, options, mode, fresh_lhb())
    return event, fast


def assert_identical(event, fast, context):
    assert dataclasses.asdict(event) == dataclasses.asdict(fast), context


@pytest.mark.parametrize("network,layer", TABLE_I_LAYERS)
@pytest.mark.parametrize(
    "mode,lhb_entries,lhb_assoc",
    [
        (EliminationMode.BASELINE, "default", 1),
        (EliminationMode.DUPLO, "default", 1),  # paper's 1024-entry LHB
        (EliminationMode.DUPLO, None, 1),  # oracle
        (EliminationMode.WIR, "default", 1),
        # Figure 12's associativity axis, per-set LRU in closed form.
        # The 64-entry 4-way point is deliberately conflict-rich.
        (EliminationMode.BASELINE, "default", 4),
        (EliminationMode.DUPLO, "default", 2),
        (EliminationMode.DUPLO, 64, 4),
        (EliminationMode.DUPLO, "default", 8),
        (EliminationMode.DUPLO, None, 4),  # oracle ignores geometry
        (EliminationMode.WIR, 64, 4),
    ],
    ids=[
        "baseline", "duplo", "oracle", "wir",
        "baseline-4way", "duplo-2way", "duplo-4way-small", "duplo-8way",
        "oracle-4way", "wir-4way-small",
    ],
)
def test_bit_identical_on_table1_layers(network, layer, mode, lhb_entries, lhb_assoc):
    spec, trace = layer_trace(network, layer)
    event, fast = both_replays(trace, spec, OPTIONS, mode, lhb_entries, lhb_assoc)
    assert_identical(event, fast, (network, layer, mode, lhb_entries, lhb_assoc))
    # Not vacuous: the trace really exercised the hierarchy.
    assert event.loads_total > 0 and event.l1_accesses > 0


@pytest.mark.parametrize(
    "options,kernel",
    [
        (SimulationOptions(max_ctas=1, lhb_granularity="instruction"),
         BASELINE_KERNEL),
        (SimulationOptions(max_ctas=1, merge_padding=True), BASELINE_KERNEL),
        (SimulationOptions(max_ctas=1, lhb_hashed_index=False),
         BASELINE_KERNEL),
        (SimulationOptions(max_ctas=1, lhb_lifetime=None), BASELINE_KERNEL),
        (SimulationOptions(max_ctas=1), IMPLICIT_KERNEL),
        (SimulationOptions(max_ctas=1, lhb_granularity="instruction"),
         IMPLICIT_KERNEL),
    ],
    ids=[
        "instruction-granularity", "merge-padding", "unhashed-index",
        "no-lifetime", "implicit-gemm", "implicit-instruction",
    ],
)
def test_bit_identical_across_configurations(options, kernel):
    """Config axes that reroute the replay internals, on the paper's
    flagship layer (YOLO C2, Section IV-D)."""
    spec, trace = layer_trace("yolo", "C2", options, kernel)
    for mode in (EliminationMode.DUPLO, EliminationMode.WIR):
        event, fast = both_replays(trace, spec, options, mode, "default")
        assert_identical(event, fast, (options, kernel, mode))


def test_small_lhb_bit_identical():
    """16-entry buffer: conflict-dominated regime."""
    spec, trace = layer_trace("gan", "C2")
    event, fast = both_replays(
        trace, spec, OPTIONS, EliminationMode.DUPLO, 16
    )
    assert_identical(event, fast, "16-entry")
    assert event.lhb_hits < event.lhb_lookups  # conflicts actually bit


class TestSimulateLayerSwitch:
    def test_on_off_identical_results(self):
        spec = get_layer("gan", "TC3")
        fast = simulate_layer(spec, EliminationMode.DUPLO, options=OPTIONS)
        with event_oracle():
            event = simulate_layer(
                spec, EliminationMode.DUPLO, options=OPTIONS
            )
        assert dataclasses.asdict(fast.stats) == dataclasses.asdict(
            event.stats
        )
        assert dataclasses.asdict(fast.sm_stats) == dataclasses.asdict(
            event.sm_stats
        )
        assert fast.cycles == event.cycles
        assert fast.time_ms == event.time_ms

    def test_set_associative_on_off_identical(self):
        """assoc > 1 runs the vectorised replay — and it agrees with
        the oracle end to end through simulate_layer."""
        spec = get_layer("gan", "TC3")
        fast = simulate_layer(
            spec, EliminationMode.DUPLO, lhb_assoc=4, options=OPTIONS
        )
        with event_oracle():
            event = simulate_layer(
                spec, EliminationMode.DUPLO, lhb_assoc=4, options=OPTIONS
            )
        assert dataclasses.asdict(fast.stats) == dataclasses.asdict(
            event.stats
        )
        assert fast.cycles == event.cycles

    def test_no_covered_config_falls_back(self):
        """Every simulate_layer configuration in the matrix takes the
        fast path under auto."""
        obs.enable()
        obs.reset()
        try:
            spec = get_layer("gan", "TC3")
            matrix = [
                (EliminationMode.BASELINE, 1024, 1),
                (EliminationMode.DUPLO, 1024, 1),
                (EliminationMode.DUPLO, 1024, 4),
                (EliminationMode.DUPLO, 1024, 8),
                (EliminationMode.DUPLO, None, 1),
                (EliminationMode.WIR, 64, 2),
            ]
            for mode, entries, assoc in matrix:
                simulate_layer(
                    spec, mode, lhb_entries=entries, lhb_assoc=assoc,
                    options=OPTIONS,
                )
            assert obs.counters_with_prefix("engine.selected.") == {
                "engine.selected.fast": len(matrix)
            }
            assert obs.snapshot()["counters"]["fastpath.replays"] == len(
                matrix
            )
        finally:
            obs.reset()
            obs.disable()

    def test_env_override_steers_auto(self, monkeypatch):
        """``$REPRO_ENGINE=analytic`` steers ``engine="auto"`` — in the
        simulator and in the executor's pure mirror alike — and any
        other value, the retired tier names included, is ignored."""
        spec = get_layer("gan", "TC3")

        def tiers(options):
            obs.enable()
            obs.reset()
            try:
                simulate_layer(spec, EliminationMode.DUPLO, options=options)
                selected = obs.counters_with_prefix("engine.selected.")
            finally:
                obs.reset()
                obs.disable()
            return list(selected), _resolves_analytic(
                SimPoint(spec, options=options)
            )

        monkeypatch.setenv("REPRO_ENGINE", "analytic")
        assert tiers(OPTIONS) == (["engine.selected.analytic"], True)
        for retired in ("event", "fast"):
            monkeypatch.setenv("REPRO_ENGINE", retired)
            assert tiers(OPTIONS) == (["engine.selected.fast"], False)

    def test_invalid_choice_rejected(self):
        for engine in ("sometimes", "fast", "event"):
            with pytest.raises(ValueError, match="engine"):
                SimulationOptions(engine=engine)
        # engine is the only replay selector.
        with pytest.raises(TypeError, match="fast_path"):
            SimulationOptions(fast_path="on")


def event_scheduler(specs, options, entries, assoc, chunk):
    """The shared-LHB run as the oracle sees it: the interleaved
    stream fed through ``lhb.access`` one lookup at a time."""
    lhb = make_lhb(entries, assoc, options.lhb_lifetime,
                   options.lhb_hashed_index)
    streams = [
        _workspace_stream(spec, TITAN_V, BASELINE_KERNEL, options)
        for spec in specs
    ]
    batch, element, pid = _interleave(streams, chunk)
    hits = [0] * len(specs)
    for b, e, p in zip(batch.tolist(), element.tolist(), pid.tolist()):
        if lhb.access(e, b, 0, pid=p).hit:
            hits[p] += 1
    lookups = [len(e) for _, e in streams]
    return list(zip(lookups, hits)), lhb


class TestMultiKernelEquivalence:
    """PID-tagged shared-LHB interleavings: the fast path folds the PID
    into the tag key and must reproduce the event scheduler exactly —
    per-kernel hit counts and every shared-buffer counter."""

    @staticmethod
    def _check(specs, entries, assoc, chunk):
        lhb = make_lhb(entries, assoc, OPTIONS.lhb_lifetime,
                       OPTIONS.lhb_hashed_index)
        shares = simulate_shared_lhb(
            specs, entries, chunk=chunk, options=OPTIONS, lhb=lhb
        )
        expected, ref = event_scheduler(specs, OPTIONS, entries, assoc, chunk)
        assert dataclasses.asdict(lhb.stats) == dataclasses.asdict(
            ref.stats
        ), (specs, entries, assoc, chunk)
        assert [(s.lookups, s.hits) for s in shares] == expected
        assert [s.pid for s in shares] == list(range(len(specs)))
        assert sum(s.lookups for s in shares) == lhb.stats.lookups

    @pytest.mark.parametrize("network,layer", TABLE_I_LAYERS)
    def test_bit_identical_shared_replay(self, network, layer):
        """Each Table I layer co-scheduled with a second kernel."""
        specs = [get_layer(network, layer), get_layer("gan", "TC3")]
        self._check(specs, 256, 1, 128)

    @pytest.mark.parametrize("entries,assoc", [(256, 4), (64, 8), (None, 1)])
    @pytest.mark.parametrize("chunk", [64, 997])
    def test_geometry_and_chunk_axes(self, entries, assoc, chunk):
        """Associativity x interleave-granularity sweep, incl. oracle
        and a chunk size coprime to the stream lengths."""
        specs = [get_layer("gan", "TC3"), get_layer("resnet", "C2")]
        self._check(specs, entries, assoc, chunk)

    def test_three_kernels_hold_isolation(self):
        """PIDs keep identical kernels from aliasing: three copies of
        one spec share no tags, so hits match the solo run only when
        capacity permits — here we just require fast == event."""
        spec = get_layer("gan", "TC3")
        self._check([spec] * 3, 128, 2, 32)


class TestCacheKeyNormalisation:
    def test_fast_path_choice_shares_artifacts(self):
        """auto and analytic runs key the same result (the executor
        keeps analytic answers out of the result cache)."""
        spec = get_layer("yolo", "C2")
        rkeys = set()
        for choice in ("auto", "analytic"):
            options = dataclasses.replace(OPTIONS, engine=choice)
            rkeys.add(
                result_key(
                    spec, TITAN_V, BASELINE_KERNEL, options,
                    "duplo", 1024, 1,
                )
            )
        assert len(rkeys) == 1

    def test_real_option_changes_still_split(self):
        spec = get_layer("yolo", "C2")
        a = result_key(spec, TITAN_V, BASELINE_KERNEL, OPTIONS,
                       "duplo", 1024, 1)
        b = result_key(
            spec, TITAN_V, BASELINE_KERNEL,
            dataclasses.replace(OPTIONS, max_ctas=2), "duplo", 1024, 1,
        )
        assert a != b


class TestModeFreeAccounting:
    def test_default_lhb_honours_the_options(self):
        """Regression: a replay given no buffer built a hashed-index
        LHB whatever ``options.lhb_hashed_index`` said (resnet C2 read
        a hit rate of 0.855 instead of 0.488).  The fast, blockwise and
        event paths now build the options' buffer, as
        :func:`simulate_layer` does."""
        spec = get_layer("resnet", "C2")
        options = SimulationOptions(max_ctas=2, lhb_hashed_index=False)
        trace = generate_sm_trace(spec, TITAN_V, BASELINE_KERNEL, options)
        plan = plan_sm_trace(spec, TITAN_V, BASELINE_KERNEL, options)

        def replay(hashed_index):
            return replay_trace_fast(
                trace, spec, TITAN_V, options,
                lhb=LoadHistoryBuffer(
                    lifetime=options.lhb_lifetime, hashed_index=hashed_index
                ),
            )

        expected = replay(False)
        assert replay(True).lhb_hits != expected.lhb_hits
        defaults = [
            replay_trace_fast(trace, spec, TITAN_V, options),
            replay_blocks_fast(
                plan.iter_blocks(4096), plan.meta(), spec, TITAN_V, options
            ),
            replay_trace(trace, spec, TITAN_V, options),
        ]
        for got in defaults:
            assert dataclasses.asdict(got) == dataclasses.asdict(expected)
        assert simulate_layer(spec, options=options).lhb_hit_rate == (
            pytest.approx(expected.lhb_hit_rate)
        )

    @pytest.mark.parametrize("merge_padding", [False, True])
    @pytest.mark.parametrize("id_mode", list(IDMode))
    @pytest.mark.parametrize("granularity", ["fragment", "instruction"])
    def test_workspace_accounting_is_mode_free(
        self, granularity, id_mode, merge_padding
    ):
        """Workspace instructions and unique workspace IDs come from the
        one translation every mode shares: they are equal under every
        mode and equal to the event path's oracle."""
        spec = make_spec(name="ws", h=9, w=7, c=4, filters=8)
        options = SimulationOptions(
            max_ctas=1, lhb_granularity=granularity, id_mode=id_mode,
            merge_padding=merge_padding,
        )
        trace = generate_sm_trace(spec, TITAN_V, BASELINE_KERNEL, options)
        oracle = workspace_unique_ids(trace, spec, options, TITAN_V)
        assert oracle[0] > 0
        for mode in EliminationMode:
            stats = replay_trace_fast(trace, spec, TITAN_V, options, mode)
            got = (stats.workspace_instructions, stats.unique_workspace_ids)
            assert got == oracle, mode
