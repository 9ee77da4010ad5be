"""Engine-tier selection: routing, counters, and cache hygiene.

Pins the selection matrix of :mod:`repro.analytic.engine` as wired
into :func:`repro.gpu.simulator.simulate_layer`:

* which tier answers for every (``options.engine``, ``$REPRO_ENGINE``)
  combination — explicit option beats environment beats auto;
* ``engine.selected.*`` / ``analytic.fallback.*`` counters asserted
  *exactly* (whole counter families compared at once, so an
  unexpected fallback fails);
* once a layer's profile is built, covered analytic queries at other
  geometries **request no trace** — the property that makes each
  further geometry O(1);
* analytic answers bypass the persistent result cache in both
  directions (never served from exact results, never persisted where
  an exact tier would read them);
* the analytic predictor takes fresh LHBs only.
"""

import dataclasses

import pytest

from repro import obs
from repro.analytic import (
    AnalyticUnsupported,
    analytic_fallback_reason,
    clear_profile_cache,
    layer_profile,
    predict_stats,
    resolve_engine,
)
from repro.analytic.engine import analytic_resolves
from repro.conv.workloads import get_layer
from repro.core.lhb import LoadHistoryBuffer
from repro.gpu import simulator
from repro.gpu.config import (
    BASELINE_KERNEL,
    IMPLICIT_KERNEL,
    SimulationOptions,
)
from repro.gpu.ldst import EliminationMode
from repro.gpu.multikernel import simulate_shared_lhb
from repro.gpu.simulator import simulate_layer
from repro.runtime.executor import SimPoint, simulate_point
from repro.runtime.store import DiskCache

from tests.conftest import make_spec


@pytest.fixture(autouse=True)
def _clean_env_and_obs(monkeypatch):
    """This module asserts tier routing itself: the engine
    environment override may not leak in, and every test starts with a
    clean metrics registry."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


SPEC = make_spec(name="engine", h=16, w=16, c=8, filters=16)
OPTS = SimulationOptions(max_ctas=1)


def _selected(**kwargs):
    obs.enable()
    obs.reset()
    simulate_layer(SPEC, **kwargs)
    counters = obs.counters_with_prefix("engine.selected.")
    assert sum(counters.values()) == 1, counters
    return next(iter(counters))[len("engine.selected."):]


class TestSelectionMatrix:
    @pytest.mark.parametrize(
        "engine,env,expected",
        [
            ("auto", None, "fast"),
            ("auto", "analytic", "analytic"),
            # Retired tier names are ignored like any unknown value.
            ("auto", "fast", "fast"),
            ("auto", "event", "fast"),
            ("analytic", None, "analytic"),
            ("analytic", "event", "analytic"),  # explicit beats env
        ],
    )
    def test_requested_tier(self, monkeypatch, engine, env, expected):
        if env is not None:
            monkeypatch.setenv("REPRO_ENGINE", env)
        options = SimulationOptions(max_ctas=1, engine=engine)
        assert resolve_engine(options) == (
            "analytic" if "analytic" in (engine, env) else "auto"
        )
        assert _selected(options=options) == expected

    def test_unknown_env_value_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp-speed")
        assert resolve_engine(SimulationOptions()) == "auto"
        assert _selected(options=OPTS) == "fast"

    def test_bad_engine_option_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            SimulationOptions(engine="bogus")

    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_retired_engine_option_rejected(self, engine):
        """The event-level oracle is no runtime tier, and "fast" was an
        alias of "auto"."""
        with pytest.raises(ValueError, match="engine"):
            SimulationOptions(engine=engine)

    def test_auto_never_selects_analytic(self):
        """The default stays exact: auto runs the fast replay."""
        assert _selected(options=OPTS) == "fast"
        assert obs.counters_with_prefix("analytic.fallback") == {}


def _resolves(kernel, options, mode, entries, assoc):
    return analytic_resolves(
        kernel, dataclasses.replace(options, engine="analytic"), mode,
        entries, assoc,
    )


class TestAnalyticCoverage:
    def test_covered_configurations(self):
        for mode in EliminationMode:
            # A non-power-of-two set count is covered when no LHB is used.
            npo2_ok = mode is EliminationMode.BASELINE
            for entries, assoc in (
                (1024, 1),
                (None, 1),  # the oracle
                (64, 8),
                (96 * 2, 2) if npo2_ok else (2048, 4),
            ):
                assert analytic_fallback_reason(
                    BASELINE_KERNEL, OPTS, mode, entries, assoc
                ) is None
                assert _resolves(BASELINE_KERNEL, OPTS, mode, entries, assoc)
                # Covered, but only the analytic tier resolves it.
                assert not analytic_resolves(
                    BASELINE_KERNEL, OPTS, mode, entries, assoc
                )

    @pytest.mark.parametrize(
        "kernel,options,entries,assoc,reason",
        [
            (IMPLICIT_KERNEL, OPTS, 1024, 1, "implicit-kernel"),
            (
                BASELINE_KERNEL,
                SimulationOptions(max_ctas=1, lhb_granularity="instruction"),
                1024,
                1,
                "instruction-granularity",
            ),
            (BASELINE_KERNEL, OPTS, 96, 1, "npo2-sets"),
            (BASELINE_KERNEL, OPTS, 24 * 8, 8, "npo2-sets"),
        ],
    )
    def test_fallback_reasons_and_counters(
        self, kernel, options, entries, assoc, reason
    ):
        assert (
            analytic_fallback_reason(
                kernel, options, EliminationMode.DUPLO, entries, assoc
            )
            == reason
        )
        assert not _resolves(
            kernel, options, EliminationMode.DUPLO, entries, assoc
        )
        # The profile (for its kernel and options) or the predictor
        # (for the LHB) refuses what the rule rejects, for its reason.
        with pytest.raises(AnalyticUnsupported, match=reason):
            profile = layer_profile(
                SPEC, EliminationMode.DUPLO, kernel=kernel, options=options
            )
            predict_stats(
                profile, LoadHistoryBuffer(num_entries=entries, assoc=assoc)
            )
        obs.enable()
        obs.reset()
        tier = _selected(
            lhb_entries=entries,
            lhb_assoc=assoc,
            kernel=kernel,
            options=SimulationOptions(
                max_ctas=options.max_ctas,
                lhb_granularity=options.lhb_granularity,
                engine="analytic",
            ),
        )
        assert tier == "fast"
        assert obs.counters_with_prefix("analytic.fallback") == {
            "analytic.fallback": 1,
            f"analytic.fallback.{reason}": 1,
        }

    def test_covered_run_counts_no_fallback(self):
        assert _selected(
            options=SimulationOptions(max_ctas=1, engine="analytic")
        ) == "analytic"
        assert obs.counters_with_prefix("analytic.fallback") == {}

    def test_used_lhb_is_refused(self):
        """The closed forms assume a fresh buffer: the predictor
        refuses a buffer the event path has touched, and one it has
        already filled.  Before the freshness rule counted lookups, a
        second prediction on one buffer doubled its lookup count."""
        warm = LoadHistoryBuffer(num_entries=16)
        warm.access(1, 0, dest_reg=0)
        profile = layer_profile(
            SPEC, EliminationMode.DUPLO, options=OPTS
        )
        with pytest.raises(AnalyticUnsupported, match="fresh"):
            predict_stats(profile, warm)
        with pytest.raises(ValueError, match="fresh"):
            simulate_shared_lhb([SPEC], 16, lhb=warm, options=OPTS)

        yolo_c2 = layer_profile(
            get_layer("yolo", "C2"), EliminationMode.DUPLO, options=OPTS
        )
        lhb = LoadHistoryBuffer(num_entries=1024)
        assert predict_stats(yolo_c2, lhb).lhb_lookups == 9216
        assert not lhb.is_fresh()
        with pytest.raises(AnalyticUnsupported, match="fresh"):
            predict_stats(yolo_c2, lhb)
        assert lhb.stats.lookups == 9216


class TestNoTraceGeneration:
    def test_built_profile_requests_no_further_trace(self, monkeypatch):
        """The O(1)-per-geometry property: the profile build takes the
        layer's trace once, and every further covered analytic query
        at another geometry requests none — not from the generator,
        not from the slot."""
        simulator.clear_trace_cache()
        clear_profile_cache()
        requests = []
        get_trace = simulator._get_trace

        def counting(*args, **kwargs):
            requests.append(args[0])
            return get_trace(*args, **kwargs)

        monkeypatch.setattr(simulator, "_get_trace", counting)
        analytic = SimulationOptions(max_ctas=1, engine="analytic")
        built = simulate_layer(SPEC, options=analytic)
        assert requests == [SPEC]

        def boom(*args, **kwargs):
            raise AssertionError("analytic tier requested a trace")

        monkeypatch.setattr(simulator, "_get_trace", boom)
        monkeypatch.setattr(simulator, "generate_sm_trace", boom)
        for entries, assoc in ((1024, 1), (64, 1), (256, 4), (None, 1)):
            result = simulate_layer(
                SPEC, lhb_entries=entries, lhb_assoc=assoc, options=analytic
            )
            assert result.stats.loads_total == built.stats.loads_total > 0
            assert result.cycles > 0
        # ... and the exact tier still does.
        with pytest.raises(AssertionError, match="requested a trace"):
            simulate_layer(SPEC, options=OPTS)


class TestResultCacheHygiene:
    def test_analytic_points_bypass_result_cache(self, tmp_path):
        cache = DiskCache(tmp_path)
        exact_point = SimPoint(SPEC, options=SimulationOptions(max_ctas=1))
        analytic_point = SimPoint(
            SPEC, options=SimulationOptions(max_ctas=1, engine="analytic")
        )
        # The cache key normalises the engine field away ...
        assert exact_point.cache_key() == analytic_point.cache_key()
        # ... which is exactly why analytic answers must bypass it.
        assert not analytic_resolves(
            exact_point.kernel, exact_point.options, exact_point.mode,
            exact_point.lhb_entries, exact_point.lhb_assoc,
        )
        assert analytic_resolves(
            analytic_point.kernel, analytic_point.options,
            analytic_point.mode, analytic_point.lhb_entries,
            analytic_point.lhb_assoc,
        )

        exact = simulate_point(exact_point, cache)
        analytic = simulate_point(analytic_point, cache)
        # Exact LHB counters agree; the analytic run was *not* the
        # cached exact result object round-tripped.
        assert analytic.stats.lhb_hits == exact.stats.lhb_hits
        # The persisted artifact is still the exact one.
        cached = cache.get_result(exact_point.cache_key())
        assert cached is not None
        assert cached.stats == exact.stats

    def test_analytic_point_never_persists(self, tmp_path):
        cache = DiskCache(tmp_path)
        point = SimPoint(
            SPEC, options=SimulationOptions(max_ctas=1, engine="analytic")
        )
        simulate_point(point, cache)
        assert cache.get_result(point.cache_key()) is None

    def test_uncovered_analytic_point_uses_cache_normally(self, tmp_path):
        """A point that *falls back* to an exact tier is exact and may
        cache: analytic_resolves mirrors the coverage predicate."""
        cache = DiskCache(tmp_path)
        point = SimPoint(
            SPEC,
            lhb_entries=96,  # npo2 -> exact fallback
            options=SimulationOptions(max_ctas=1, engine="analytic"),
        )
        assert not analytic_resolves(
            point.kernel, point.options, point.mode,
            point.lhb_entries, point.lhb_assoc,
        )
        result = simulate_point(point, cache)
        cached = cache.get_result(point.cache_key())
        assert cached is not None
        assert cached.stats == result.stats
