"""The observability layer: spans, metrics, manifests, CLI wiring."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.conv.workloads import get_layer
from repro.gpu.config import SimulationOptions
from repro.gpu.simulator import EliminationMode, simulate_layer

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


@pytest.fixture(autouse=True)
def _obs_clean(monkeypatch):
    """Every test starts and ends with observability off and empty,
    and with no engine override (counter assertions here assume the
    exact tiers answer)."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_nesting(self):
        obs.enable()
        with obs.span("outer", kind="root"):
            with obs.span("inner.a"):
                pass
            with obs.span("inner.b", x=2):
                with obs.span("leaf"):
                    pass
        tree = obs.tree()
        assert [s["name"] for s in tree["spans"]] == ["outer"]
        outer = tree["spans"][0]
        assert outer["attrs"] == {"kind": "root"}
        assert [c["name"] for c in outer["children"]] == [
            "inner.a", "inner.b",
        ]
        leaf = outer["children"][1]["children"][0]
        assert leaf["name"] == "leaf"
        assert leaf["duration_s"] >= 0.0
        # Children never outlast their parent.
        assert outer["duration_s"] >= leaf["duration_s"]

    def test_set_attrs_on_open_span(self):
        obs.enable()
        with obs.span("phase") as sp:
            sp.set(rows=7)
        assert obs.tree()["spans"][0]["attrs"] == {"rows": 7}

    def test_phase_timings_aggregate(self):
        obs.enable()
        for _ in range(3):
            with obs.span("repeated"):
                pass
        timings = obs.phase_timings()
        assert timings["repeated"]["count"] == 3
        assert timings["repeated"]["total_s"] >= 0.0

    def test_threads_record_independently(self):
        obs.enable()

        def record(i):
            with obs.span(f"thread.{i}"):
                pass

        threads = [
            threading.Thread(target=record, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        names = sorted(s["name"] for s in obs.tree()["spans"])
        assert names == sorted(f"thread.{i}" for i in range(8))


class TestDisabledMode:
    def test_span_is_shared_noop(self):
        assert obs.span("anything", x=1) is obs.NULL_SPAN
        with obs.span("quiet"):
            pass
        assert obs.tree() == {"spans": []}

    def test_metrics_record(self):
        """The enable flag gates spans only: counters and gauges are
        the one registry, and record either way."""
        obs.add("some.counter", 5)
        obs.gauge("some.gauge", 1.5)
        assert obs.snapshot() == {
            "counters": {"some.counter": 5}, "gauges": {"some.gauge": 1.5},
        }

    def test_simulation_emits_nothing(self):
        """A disabled run emits no spans, while its counts land in the
        registry."""
        result = simulate_layer(
            get_layer("resnet", "C8"),
            options=SimulationOptions(max_ctas=1),
        )
        assert obs.tree() == {"spans": []}
        counters = obs.snapshot()["counters"]
        assert counters["sim.layers_simulated"] == 1
        assert counters["sim.lhb.hits"] == result.stats.lhb_hits


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counters_and_gauges(self):
        obs.enable()
        obs.add("hits")
        obs.add("hits", 4)
        obs.gauge("util", 0.5)
        obs.gauge("util", 0.75)
        snap = obs.snapshot()
        assert snap["counters"]["hits"] == 5
        assert snap["gauges"]["util"] == 0.75

    def test_concurrent_thread_increments(self):
        obs.enable()
        per_thread, threads_n = 2000, 8

        def spin():
            for _ in range(per_thread):
                obs.add("race.hits")

        threads = [threading.Thread(target=spin) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert (
            obs.snapshot()["counters"]["race.hits"]
            == per_thread * threads_n
        )


class TestSweepExecutor:
    def test_warm_rerun_skips_workers_entirely(self, tmp_path):
        from repro.runtime import DiskCache, SimPoint, SweepExecutor

        options = SimulationOptions(max_ctas=1)
        points = [SimPoint(get_layer("resnet", "C8"), options=options)]
        cache = DiskCache(tmp_path / "c")
        SweepExecutor(jobs=1, cache=cache).run(points)
        obs.enable()
        obs.reset()
        SweepExecutor(jobs=2, cache=cache).run(points)
        snap = obs.snapshot()
        assert snap["counters"]["executor.prefilter_hits"] == 1
        assert "sim.layers_simulated" not in snap["counters"]


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


class TestManifest:
    def test_round_trips_through_json(self, tmp_path):
        obs.enable()
        with obs.span("phase.a"):
            obs.add("m.hits", 3)
        manifest = obs.collect_manifest(
            "unit-test",
            argv=["repro", "simulate"],
            options=SimulationOptions(max_ctas=2),
        )
        path = tmp_path / "manifest.json"
        manifest.write(str(path))
        restored = obs.RunManifest.from_json(path.read_text())
        assert restored.command == "unit-test"
        assert restored.argv == ["repro", "simulate"]
        assert restored.schema_version == manifest.schema_version
        assert restored.options["max_ctas"] == 2
        assert restored.metrics["counters"]["m.hits"] == 3
        assert "phase.a" in restored.phases
        assert restored.host["python"]
        assert restored.host["numpy"]
        # Re-serializing the restored manifest is a fixed point.
        assert restored.to_json() == manifest.to_json()

    def test_captures_git_and_rss(self):
        manifest = obs.collect_manifest("unit-test", argv=[])
        assert manifest.git.get("sha", "").strip() != ""
        assert manifest.peak_rss_bytes is None or (
            manifest.peak_rss_bytes > 1024 * 1024
        )

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"),
        reason="reads VmHWM from procfs",
    )
    def test_child_peak_rss_is_its_own(self):
        """A small child of a large caller reports its own peak:
        ``ru_maxrss`` would carry the caller's high-water mark across
        fork and exec."""
        ballast = np.ones(320 * 2**20 // 8)  # written, so resident
        caller_peak = obs.peak_rss_bytes()
        assert caller_peak >= 300 * 2**20
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro import obs; print(obs.peak_rss_bytes())"],
            capture_output=True, text=True, env=env, check=True,
        )
        del ballast
        assert int(proc.stdout) < caller_peak

    def test_embeds_cache_stats(self, tmp_path):
        from repro.runtime import DiskCache

        cache = DiskCache(tmp_path / "c")
        cache.put_result("ab" * 32, {"x": 1})
        manifest = obs.collect_manifest("unit-test", argv=[], cache=cache)
        assert manifest.cache["result_files"] == 1


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------


class TestCliWiring:
    def test_metrics_out_matches_layer_stats(self, tmp_path, capsys):
        """Acceptance: ``--metrics-out`` LHB counters == LayerStats."""
        metrics_path = tmp_path / "metrics.json"
        assert main(
            [
                "simulate", "resnet", "C8", "--max-ctas", "1",
                "--metrics-out", str(metrics_path),
            ]
        ) == 0
        capsys.readouterr()
        payload = json.loads(metrics_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["command"] == "simulate"
        counters = payload["counters"]

        duplo = simulate_layer(
            get_layer("resnet", "C8"),
            EliminationMode.DUPLO,
            lhb_entries=1024,
            lhb_assoc=1,
            options=SimulationOptions(max_ctas=1),
        )
        assert counters["sim.lhb.hits"] == duplo.stats.lhb_hits
        assert counters["sim.lhb.lookups"] == duplo.stats.lhb_lookups
        assert counters["sim.layers_simulated"] == 2  # baseline + duplo
        assert counters["sim.events_replayed"] > 0

    def test_trace_and_manifest_written(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(
            [
                "simulate", "resnet", "C8", "--max-ctas", "1",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        ) == 0
        capsys.readouterr()
        trace = json.loads(trace_path.read_text())
        assert trace["spans"][0]["name"] == "cli"
        names = {c["name"] for c in trace["spans"][0]["children"]}
        assert "sim.layer" in names
        manifest = obs.RunManifest.from_json(
            (tmp_path / "metrics.manifest.json").read_text()
        )
        assert manifest.command == "simulate"
        assert manifest.options is not None
        assert manifest.phases  # cli + sim.* at minimum

    def test_manifest_out_alone(self, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        assert main(
            [
                "layers", "--manifest-out", str(manifest_path),
            ]
        ) == 0
        capsys.readouterr()
        manifest = obs.RunManifest.from_json(manifest_path.read_text())
        assert manifest.command == "layers"

    def test_obs_disabled_after_main(self, tmp_path, capsys):
        assert main(
            [
                "layers", "--manifest-out", str(tmp_path / "m.json"),
            ]
        ) == 0
        capsys.readouterr()
        assert not obs.enabled()

    def test_log_level_flag(self, tmp_path, capsys):
        import logging

        assert main(["layers", "--log-level", "debug"]) == 0
        capsys.readouterr()
        logger = logging.getLogger("repro")
        assert logger.level == logging.DEBUG
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            main(["layers", "--log-level", "loud"])


class TestCacheStatsRegression:
    def test_stats_on_missing_cache_dir(self, tmp_path, capsys):
        """``repro cache stats`` on a never-created cache reports empty."""
        missing = tmp_path / "never" / "created"
        assert main(["cache", "stats", "--dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "result files:  0" in out
        assert "disk bytes:    0" in out
        assert "not created yet" in out

    def test_clear_on_missing_cache_dir(self, tmp_path, capsys):
        missing = tmp_path / "never" / "created"
        assert main(["cache", "clear", "--dir", str(missing)]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_stats_default_dir_missing(
        self, tmp_path, monkeypatch, capsys
    ):
        """The default results/cache location may not exist either."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 0
        assert "result files:  0" in capsys.readouterr().out
