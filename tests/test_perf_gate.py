"""The perf gate's baseline comparison (``scripts/perf_gate.py``).

Host-shaped rates are compared only against a baseline recorded with
the same core count; every other rule applies whatever the host.
"""

import importlib.util
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(__file__), "..", "scripts", "perf_gate.py"
)
_spec = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)


def _report(cpu_count, **derived):
    return {
        "host": {"cpu_count": cpu_count},
        "benchmarks": {
            "replay_fast.yolo_c2": {"median_s": 1.0, "counters": {"hits": 7}},
        },
        "derived": derived,
    }


def _check(report, baseline):
    return perf_gate.check_against(
        report, baseline, tolerance=0.25, time_tolerance=3.0
    )


@pytest.mark.parametrize("rate", perf_gate.HOST_SHAPED_RATES)
def test_host_shaped_rate_needs_equal_cpu_count(capsys, rate):
    baseline = _report(1, **{rate: 100.0})
    slow = _report(2, **{rate: 10.0})
    assert _check(slow, baseline) == []
    assert "not comparable" in capsys.readouterr().out

    same_host = _report(1, **{rate: 10.0})
    failures = _check(same_host, baseline)
    assert len(failures) == 1 and rate in failures[0]

    within = _report(1, **{rate: 80.0})
    assert _check(within, baseline) == []


def test_host_independent_ratio_compared_across_core_counts():
    baseline = _report(1, fast_path_speedup=16.0)
    failures = _check(_report(2, fast_path_speedup=8.0), baseline)
    assert len(failures) == 1 and "fast_path_speedup" in failures[0]
    assert _check(_report(2, fast_path_speedup=15.0), baseline) == []


def test_counters_and_times_checked_across_core_counts():
    baseline = _report(1)
    drifted = _report(2)
    drifted["benchmarks"]["replay_fast.yolo_c2"] = {
        "median_s": 4.0, "counters": {"hits": 8},
    }
    failures = _check(drifted, baseline)
    assert len(failures) == 2
    assert any("counter drift" in line for line in failures)
    assert any("time regression" in line for line in failures)
