"""Regenerate the golden regression fixtures under tests/goldens/.

Run from the repository root after an *intentional* model change:

    PYTHONPATH=src python scripts/make_goldens.py

and commit the refreshed JSON together with the change that shifted
the numbers.  The goldens pin ``figure9`` / ``figure10`` /
``figure12`` / ``table2`` / ``multikernel`` on a fixed three-layer
subset at ``max_ctas=2`` (see GOLDEN_LAYERS / GOLDEN_OPTIONS,
mirrored in tests/test_goldens.py) so refactors that should be
numerically neutral — the vectorised set-associative and PID-tagged
replays included — cannot silently shift reported results.

``analytic`` additionally pins the analytic engine tier's predictions
(``repro.analytic.prediction_rows``) on the same layers, so accuracy
drift in the closed-form model is byte-visible in golden-drift CI
even while the differential bounds still pass.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import experiments
from repro.analytic import prediction_rows
from repro.conv.workloads import get_layer
from repro.gpu.config import ARCHS, SimulationOptions

GOLDEN_LAYERS = [("resnet", "C2"), ("gan", "TC3"), ("yolo", "C2")]
#: The arch-zoo fixtures add one attention GEMM so every preset pins
#: both workload classes (conv + transformer).
ARCH_GOLDEN_LAYERS = GOLDEN_LAYERS + [("attention", "QK")]
GOLDEN_MAX_CTAS = 2
OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "goldens")


def main() -> int:
    layers = [get_layer(net, name) for net, name in GOLDEN_LAYERS]
    options = SimulationOptions(max_ctas=GOLDEN_MAX_CTAS)
    os.makedirs(OUT_DIR, exist_ok=True)
    config = {
        "layers": ["/".join(p) for p in GOLDEN_LAYERS],
        "max_ctas": GOLDEN_MAX_CTAS,
    }
    for name in ("figure9", "figure10", "figure12", "table2", "multikernel"):
        exp = experiments.REGISTRY[name](layers, options, None)
        payload = {
            "config": config,
            "rows": exp.rows,
            "summary": exp.summary,
        }
        path = os.path.join(OUT_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path} ({len(exp.rows)} rows)")

    rows = prediction_rows(layers, options=options)
    path = os.path.join(OUT_DIR, "analytic.json")
    with open(path, "w") as fh:
        json.dump(
            {"config": config, "rows": rows}, fh, indent=1, sort_keys=True
        )
        fh.write("\n")
    print(f"wrote {path} ({len(rows)} rows)")

    # Per-architecture fixtures: one arch_<preset>.json per zoo entry,
    # pinning that preset's duplo/wir rows (conv + attention layers)
    # and its slice of the arch_zoo summary.
    arch_layers = [get_layer(net, name) for net, name in ARCH_GOLDEN_LAYERS]
    zoo = experiments.arch_zoo(arch_layers, options=options)
    arch_config = {
        "layers": ["/".join(p) for p in ARCH_GOLDEN_LAYERS],
        "max_ctas": GOLDEN_MAX_CTAS,
    }
    for name in ARCHS:
        payload = {
            "config": dict(arch_config, arch=name),
            "rows": [r for r in zoo.rows if r["arch"] == name],
            "summary": {
                k: v for k, v in zoo.summary.items() if k.endswith(f"_{name}")
            },
        }
        path = os.path.join(OUT_DIR, f"arch_{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path} ({len(payload['rows'])} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
