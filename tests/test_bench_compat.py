"""The benchmark harness under ``bench/`` still resolves every name it
wraps.

``bench/tracing.py`` times the package from outside by replacing
attributes on its modules, and it is never edited together with the
package.  A name it wraps that the package no longer defines makes
every benchmark run fail at start-up.  Both install paths run here in a
child interpreter, so the wrappers never leak into other tests; the
traced run then simulates one small layer through them.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer

from repro.conv.workloads import get_layer
from repro.gpu import simulator
from repro.gpu.config import SimulationOptions
from repro.runtime import store

Tracer().install_layers()
tracer = Tracer()
tracer.install()
simulator.simulate_layer(
    get_layer("resnet", "C8"), options=SimulationOptions(max_ctas=1)
)
retired = []
for call in (
    lambda: store.DiskCache(sys.argv[2]).get_trace("00" * 32),
    lambda: store.DiskCache(sys.argv[2]).put_trace("00" * 32, None),
    lambda: store.TraceStreamWriter().append(None),
    lambda: store.TraceStreamWriter().commit(),
):
    try:
        call()
    except NotImplementedError:
        retired.append(True)
json.dump({
    "spans": sorted({span[2] for span in tracer.spans}),
    "retired": len(retired),
}, sys.stdout)
"""


def test_tracer_installs_and_traces_a_layer(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_ENGINE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, os.path.join(ROOT, "bench"),
         str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert {"simulator.layer", "kernel.generate", "fastpath.replay",
            "fastpath.feed"} <= set(payload["spans"])
    assert payload["retired"] == 4
