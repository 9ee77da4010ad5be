"""Each distinct piece of work is replayed once, with unchanged results.

Three layers of reuse are pinned here:

* the sweep executor runs equal points of one submission once and
  hands every repeat the first occurrence's result object;
* the fast replay keeps, per thread, one fold of the trace it last
  replayed, whatever the mode, so an LHB size or associativity sweep
  and the BASELINE, DUPLO and WIR points of one trace fold it once —
  one A-load translation — and a memo hit is bit-identical to a fresh
  feed, even with several threads replaying the same layer.  The
  analytic profile takes its streams from the same memo, so a profile
  build and an exact replay of one layer feed once;
* Figure 14 submits its forward, data-gradient and weight-gradient
  points as one sweep, so it simulates three points per layer.
"""

import dataclasses

import pytest

from tests.conftest import make_spec
from repro import obs
from repro.analysis.experiments import figure14
from repro.analysis.network import NON_CONV_EPSILON
from repro.analytic import clear_profile_cache
from repro.conv.gradients import data_gradient_spec
from repro.conv.workloads import TABLE_I
from repro.core.idgen import IDGenerator
from repro.gpu import fastpath, ldst, simulator
from repro.gpu.config import BASELINE_KERNEL, SimulationOptions, TITAN_V
from repro.gpu.fastpath import (
    clear_fed_memo,
    replay_blocks_fast,
    replay_trace_fast,
)
from repro.gpu.kernel import generate_sm_trace, plan_sm_trace
from repro.gpu.ldst import EliminationMode
from repro.gpu.simulator import clear_trace_cache, simulate_layer
from repro.gpu.stats import geometric_mean
from repro.runtime import DiskCache, SimPoint, SweepExecutor

SPEC = make_spec(name="once-plain")
OTHER = make_spec(name="once-strided", h=9, w=9, pad=0, stride=2)
OPTIONS = SimulationOptions(max_ctas=2)

#: (mode, lhb_entries, lhb_assoc, options) configurations on one layer:
#: LHB sizes, associativities, the oracle, a shorter retirement window,
#: the instruction granularity and every mode.
CONFIGS = [
    (EliminationMode.DUPLO, 256, 1, OPTIONS),
    (EliminationMode.DUPLO, 1024, 1, OPTIONS),
    (EliminationMode.DUPLO, 1024, 2, OPTIONS),
    (EliminationMode.DUPLO, 1024, 8, OPTIONS),
    (EliminationMode.DUPLO, None, 1, OPTIONS),
    (EliminationMode.WIR, 1024, 1, OPTIONS),
    (EliminationMode.WIR, 256, 4, OPTIONS),
    (EliminationMode.DUPLO, 512, 1,
     dataclasses.replace(OPTIONS, lhb_lifetime=64)),
    (EliminationMode.DUPLO, 512, 4,
     dataclasses.replace(OPTIONS, lhb_lifetime=64)),
    (EliminationMode.BASELINE, 1024, 1, OPTIONS),
    (EliminationMode.DUPLO, 256, 1,
     dataclasses.replace(OPTIONS, lhb_granularity="instruction")),
    (EliminationMode.DUPLO, 1024, 2,
     dataclasses.replace(OPTIONS, lhb_granularity="instruction")),
    (EliminationMode.DUPLO, 1024, 1, OPTIONS),
]


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    obs.disable()
    obs.reset()
    clear_trace_cache()
    yield
    obs.disable()
    obs.reset()
    clear_trace_cache()


def _rows(results):
    return [
        (dataclasses.asdict(r.stats), dataclasses.asdict(r.sm_stats),
         r.cycles, r.time_ms, r.lhb_entries, r.lhb_assoc)
        for r in results
    ]


def _points(spec=SPEC):
    return [
        SimPoint(spec, mode, lhb_entries=entries, lhb_assoc=assoc,
                 options=options)
        for mode, entries, assoc, options in CONFIGS
    ]


def _counters():
    return obs.snapshot()["counters"]


# ----------------------------------------------------------------------
# Duplicate points
# ----------------------------------------------------------------------


def _duplicated_chunks():
    """Repeats inside one chunk and across chunks, of two layers."""
    a = SimPoint(SPEC, options=OPTIONS)
    b = SimPoint(SPEC, EliminationMode.BASELINE, options=OPTIONS)
    c = SimPoint(OTHER, lhb_entries=64, options=OPTIONS)
    chunks = [[a, b, a], [c, b], [a], [c, c, b]]
    return chunks, 3


@pytest.mark.parametrize("jobs", [1, 4])
def test_duplicates_run_once(jobs):
    chunks, distinct = _duplicated_chunks()
    reference = [
        [simulate_layer(p.spec, p.mode, lhb_entries=p.lhb_entries,
                        lhb_assoc=p.lhb_assoc, options=p.options)
         for p in chunk]
        for chunk in chunks
    ]
    clear_trace_cache()
    obs.enable()
    obs.reset()
    out = SweepExecutor(jobs=jobs).run_chunks(chunks)
    counters = _counters()
    assert counters["sim.layers_simulated"] == distinct
    assert counters["executor.duplicate_points"] == (
        sum(len(c) for c in chunks) - distinct
    )
    # The two all-repeat chunks never reach a worker.
    assert counters["executor.chunks_skipped"] == 2
    assert [_rows(row) for row in out] == [_rows(r) for r in reference]
    # Every repeat holds the first occurrence's result object.
    first = {}
    for chunk, row in zip(chunks, out):
        for point, result in zip(chunk, row):
            assert first.setdefault(point, result) is result


@pytest.mark.parametrize("jobs", [1, 4])
def test_duplicates_persist_once(tmp_path, monkeypatch, jobs):
    chunks, distinct = _duplicated_chunks()
    puts = []
    put_result = DiskCache.put_result

    def counting_put(self, key, result):
        puts.append(key)
        return put_result(self, key, result)

    monkeypatch.setattr(DiskCache, "put_result", counting_put)
    executor = SweepExecutor(jobs=jobs, cache=DiskCache(tmp_path / "c"))
    cold = executor.run_chunks(chunks)
    assert len(puts) == len(set(puts)) == distinct
    clear_trace_cache()
    assert [_rows(r) for r in executor.run_chunks(chunks)] == [
        _rows(r) for r in cold
    ]
    assert len(puts) == distinct  # the warm rerun persists nothing


def test_run_collapses_duplicates():
    point = SimPoint(SPEC, options=OPTIONS)
    obs.enable()
    obs.reset()
    first, second = SweepExecutor().run([point, point])
    assert first is second
    assert _counters()["sim.layers_simulated"] == 1


# ----------------------------------------------------------------------
# Fed-stream memo
# ----------------------------------------------------------------------


def _simulate_recording_lhbs(points, monkeypatch, clear_each):
    """Simulate ``points`` in order; return results and LHB counters."""
    lhbs = []
    make_lhb = simulator.make_lhb

    def recording(*args, **kwargs):
        lhbs.append(make_lhb(*args, **kwargs))
        return lhbs[-1]

    monkeypatch.setattr(simulator, "make_lhb", recording)
    results = []
    for p in points:
        if clear_each:
            clear_fed_memo()
        results.append(simulate_layer(
            p.spec, p.mode, lhb_entries=p.lhb_entries,
            lhb_assoc=p.lhb_assoc, options=p.options,
        ))
    monkeypatch.setattr(simulator, "make_lhb", make_lhb)
    return results, [dataclasses.asdict(lhb.stats) for lhb in lhbs]


def test_memo_matches_fresh_feeds(monkeypatch):
    points = _points()
    obs.enable()
    obs.reset()
    memo, memo_lhbs = _simulate_recording_lhbs(points, monkeypatch, False)
    assert _counters()["fastpath.fed_reuses"] > 0
    clear_trace_cache()
    fresh, fresh_lhbs = _simulate_recording_lhbs(points, monkeypatch, True)
    assert _rows(memo) == _rows(fresh)
    assert memo_lhbs == fresh_lhbs


def test_one_feed_per_trace_and_mode(monkeypatch):
    """A direct-mapped size sweep, then the associativities, on one
    trace and mode: one feed, every later replay a memo hit."""
    feeds = []
    feed = fastpath._StreamAccumulator.feed

    def counting_feed(self, *args):
        feeds.append(self.options)
        return feed(self, *args)

    monkeypatch.setattr(fastpath._StreamAccumulator, "feed", counting_feed)
    obs.enable()
    obs.reset()
    sweep = [(entries, 1) for entries in (256, 512, 1024, 2048, None)]
    sweep += [(1024, assoc) for assoc in (2, 4, 8)]
    for entries, assoc in sweep:
        simulate_layer(SPEC, lhb_entries=entries, lhb_assoc=assoc,
                       options=OPTIONS)
    assert feeds == [OPTIONS]
    assert _counters()["fastpath.fed_reuses"] == len(sweep) - 1


@pytest.mark.parametrize("change", ["gpu", "options", "mode"])
def test_memo_never_shares_across_configurations(change):
    """Points that differ only in the GPU or the options never reuse
    each other's fold.  A point that differs only in the mode replays
    the same trace, so it reuses the fold, with the result of a fresh
    one."""
    first = SimPoint(SPEC, options=OPTIONS)
    second = {
        "gpu": dataclasses.replace(first, gpu=dataclasses.replace(
            TITAN_V, l2_bytes=TITAN_V.l2_bytes // 64)),
        "options": dataclasses.replace(first, options=dataclasses.replace(
            OPTIONS, lhb_granularity="instruction")),
        "mode": dataclasses.replace(first, mode=EliminationMode.WIR),
    }[change]
    clear_fed_memo()
    expected = simulate_layer(
        second.spec, second.mode, gpu=second.gpu, options=second.options
    )
    clear_fed_memo()
    obs.enable()
    obs.reset()
    for p in (first, second):
        got = simulate_layer(p.spec, p.mode, gpu=p.gpu, options=p.options)
    if change == "mode":
        assert _counters()["fastpath.fed_reuses"] == 1
    else:
        assert "fastpath.fed_reuses" not in _counters()
    assert _rows([got]) == _rows([expected])


MODES = list(EliminationMode)


def _lhb(mode, options):
    """A fresh 2-way buffer under ``options``; none for the baseline."""
    if mode is EliminationMode.BASELINE:
        return None
    return simulator.make_lhb(
        256, 2, options.lhb_lifetime, options.lhb_hashed_index
    )


@pytest.mark.parametrize("granularity", ["fragment", "instruction"])
@pytest.mark.parametrize(
    "order", [MODES, MODES[::-1]], ids=["forward", "reverse"]
)
def test_one_fold_for_every_mode(monkeypatch, order, granularity):
    """BASELINE, DUPLO and WIR replays of one trace in one slot fold it
    once — one A-load translation — and each equals a fresh-slot replay
    and the blockwise replay at two block sizes."""
    options = dataclasses.replace(OPTIONS, lhb_granularity=granularity)
    trace = generate_sm_trace(SPEC, TITAN_V, BASELINE_KERNEL, options)
    plan = plan_sm_trace(SPEC, TITAN_V, BASELINE_KERNEL, options)

    def replay(mode):
        return dataclasses.asdict(replay_trace_fast(
            trace, SPEC, TITAN_V, options, mode, _lhb(mode, options),
            trace_key="one-slot",
        ))

    expected = {}
    for mode in order:
        clear_fed_memo()
        expected[mode] = replay(mode)
        for block in (64, 4096):
            blockwise = replay_blocks_fast(
                plan.iter_blocks(block), plan.meta(), SPEC, TITAN_V,
                options, mode, _lhb(mode, options),
            )
            assert dataclasses.asdict(blockwise) == expected[mode], block

    translations = []
    generate = IDGenerator.generate_for_addresses

    def counting(self, addresses):
        translations.append(len(addresses))
        return generate(self, addresses)

    clear_fed_memo()
    monkeypatch.setattr(IDGenerator, "generate_for_addresses", counting)
    obs.enable()
    obs.reset()
    assert {mode: replay(mode) for mode in order} == expected
    assert len(translations) == 1
    assert _counters()["fastpath.fed_reuses"] == len(order) - 1


def test_one_translator_per_fold(monkeypatch):
    """The workspace translator is programmed once per kernel: a fold
    of a trace many ``_FOLD_BLOCK`` blocks long builds one
    ``IDGenerator`` (and its tables), and so do BASELINE, DUPLO and WIR
    replays of that trace, each folding it afresh."""
    spec = make_spec(name="once-translator")
    trace = generate_sm_trace(spec, TITAN_V, BASELINE_KERNEL, OPTIONS)
    monkeypatch.setattr(fastpath, "_FOLD_BLOCK", 97)
    assert len(trace) > 4 * fastpath._FOLD_BLOCK
    built = []

    class Counting(IDGenerator):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ldst, "IDGenerator", Counting)
    for mode in MODES:
        replay_trace_fast(
            trace, spec, TITAN_V, OPTIONS, mode, _lhb(mode, OPTIONS)
        )
    assert len(built) == 1


@pytest.mark.parametrize("granularity", ["fragment", "instruction"])
def test_fold_block_size_is_invisible(monkeypatch, granularity):
    """Folding a held trace in blocks (with carries across their
    boundaries) gives every mode the streams of a one-block fold."""
    options = dataclasses.replace(OPTIONS, lhb_granularity=granularity)
    trace = generate_sm_trace(SPEC, TITAN_V, BASELINE_KERNEL, options)

    def replays():
        return [
            dataclasses.asdict(replay_trace_fast(
                trace, SPEC, TITAN_V, options, mode, _lhb(mode, options)
            ))
            for mode in MODES
        ]

    monkeypatch.setattr(fastpath, "_FOLD_BLOCK", len(trace))
    whole = replays()
    monkeypatch.setattr(fastpath, "_FOLD_BLOCK", 97)
    assert replays() == whole


def _layer_chunks(count):
    """``count`` chunks of one layer's configurations, distinct across
    chunks (each grows the LHB sizes by 8), so none collapses as a repeat
    and every chunk feeds its traces and then re-uses the memo."""
    return [
        [dataclasses.replace(p, lhb_entries=p.lhb_entries + 8 * k)
         if p.lhb_entries else p for p in _points()]
        for k in range(count)
    ]


def test_threaded_sweep_matches_serial():
    """jobs=4 threads replaying one layer's configurations at once —
    each thread re-using its own memo — equal the serial sweep."""
    chunks = _layer_chunks(4)
    reference = [_rows(row) for row in SweepExecutor(jobs=1).run_chunks(chunks)]
    for _ in range(2):
        clear_trace_cache()
        obs.enable()
        obs.reset()
        threaded = SweepExecutor(jobs=4).run_chunks(chunks)
        assert _counters()["executor.dispatch.threads"] == 4
        assert _counters()["fastpath.fed_reuses"] > 0
        assert [_rows(row) for row in threaded] == reference


def test_chunk_end_empties_the_memo():
    """A thread holds no fed streams once its chunk is done."""
    simulate_layer(SPEC, options=OPTIONS)
    assert getattr(fastpath._fed_memo, "entry", None) is not None
    SweepExecutor(jobs=1).run_chunks(_layer_chunks(2))
    assert getattr(fastpath._fed_memo, "entry", None) is None


def test_analytic_sweep_empties_the_memo():
    """The prefilter answers analytic points in the calling thread,
    where no chunk ends: it empties the slot the profile builds used."""
    clear_profile_cache()
    analytic = dataclasses.replace(OPTIONS, engine="analytic")
    chunks = [
        [SimPoint(SPEC, lhb_entries=entries, options=analytic)
         for entries in (256, 1024)],
        [SimPoint(OTHER, EliminationMode.WIR, options=analytic)],
    ]
    obs.enable()
    obs.reset()
    SweepExecutor(jobs=1).run_chunks(chunks)
    assert _counters()["executor.analytic_prefilter"] == 3
    assert _counters()["analytic.profile.built"] == 2
    assert getattr(fastpath._fed_memo, "entry", None) is None


def test_analytic_build_then_exact_replay_feeds_once(monkeypatch):
    """A profile build and an exact replay of one layer and mode share
    one synthesis and one fold."""
    clear_profile_cache()
    synths = []
    generate = simulator.generate_sm_trace

    def counting_generate(*args, **kwargs):
        synths.append(args[0])
        return generate(*args, **kwargs)

    monkeypatch.setattr(simulator, "generate_sm_trace", counting_generate)
    obs.enable()
    obs.reset()
    analytic = simulate_layer(
        SPEC, options=dataclasses.replace(OPTIONS, engine="analytic")
    )
    exact = simulate_layer(SPEC, options=OPTIONS)
    assert _counters()["engine.selected.analytic"] == 1
    assert _counters()["fastpath.fed_reuses"] == 1
    assert synths == [SPEC]
    assert analytic.stats.lhb_hits == exact.stats.lhb_hits


def test_fed_streams_are_read_only():
    trace = simulator._get_trace(SPEC, TITAN_V, BASELINE_KERNEL, OPTIONS)
    acc = fastpath._StreamAccumulator(SPEC, trace.lda, TITAN_V, OPTIONS)
    acc.feed(trace.kind, trace.address, trace.instr)
    streams = acc.fold()
    for name in ("consult", "shared", "lines", "element", "batch"):
        assert not getattr(streams, name).flags.writeable, name
    with pytest.raises(dataclasses.FrozenInstanceError):
        streams.totals.loads = 0


# ----------------------------------------------------------------------
# Figure 14 as one sweep
# ----------------------------------------------------------------------


def _network_times_oracle(mode, options):
    """Per-layer ``simulate_layer`` calls, one per GEMM of each layer."""
    times = {}
    for network, layers in TABLE_I.items():
        forward = backward = 0.0
        for spec in layers:
            fwd = simulate_layer(spec, mode, options=options).cycles
            dgrad = simulate_layer(
                data_gradient_spec(spec), EliminationMode.BASELINE,
                options=options,
            ).cycles
            wgrad = simulate_layer(
                spec, EliminationMode.BASELINE, options=options
            ).cycles
            forward += fwd
            backward += dgrad + wgrad
        times[network] = (
            forward * (1 + NON_CONV_EPSILON),
            (forward + backward) * (1 + NON_CONV_EPSILON),
        )
    return times


def test_figure14_is_one_sweep_of_three_points_per_layer():
    options = SimulationOptions(max_ctas=1)
    obs.enable()
    obs.reset()
    exp = figure14(options=options)
    counters = _counters()
    obs.disable()
    layers = sum(len(layers) for layers in TABLE_I.values())
    assert counters["sim.layers_simulated"] == 3 * layers

    base = _network_times_oracle(EliminationMode.BASELINE, options)
    duplo = _network_times_oracle(EliminationMode.DUPLO, options)
    rows = []
    for network in TABLE_I:
        inf_red = 1.0 - duplo[network][0] / base[network][0]
        trn_red = 1.0 - duplo[network][1] / base[network][1]
        rows.append({
            "network": network,
            "inference_reduction": inf_red,
            "training_reduction": trn_red,
            "norm_inference_time": 1 - inf_red,
            "norm_training_time": 1 - trn_red,
        })
    assert exp.rows == rows
    assert exp.summary == {
        "gmean_inference_reduction": 1 - geometric_mean(
            [r["norm_inference_time"] for r in rows]),
        "gmean_training_reduction": 1 - geometric_mean(
            [r["norm_training_time"] for r in rows]),
    }
