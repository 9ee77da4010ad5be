"""Export every figure's data series to CSV for external plotting.

Writes one ``results/figureN.csv`` per experiment (plus table2 and
energy_area) so the paper's plots can be regenerated with any plotting
tool.  Accepts ``--quick`` for the capped configuration.

Run:  python scripts/export_figures.py [--quick]
"""

import csv
import os
import sys
import tempfile

from repro.analysis.experiments import (
    energy_area,
    figure2,
    figure3,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    table2,
)
from repro.conv.workloads import ALL_LAYERS, get_layer
from repro.gpu.config import SimulationOptions
from repro.runtime import DiskCache, SweepExecutor


def flatten(row: dict) -> dict:
    """Expand nested dict cells (Figure 11's breakdowns) to columns."""
    flat = {}
    for key, value in row.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                flat[f"{key}_{sub}"] = v
        else:
            flat[key] = value
    return flat


def main() -> None:
    quick = "--quick" in sys.argv
    if quick:
        layers = [get_layer(n, l) for n, l in
                  [("resnet", "C2"), ("gan", "TC3"), ("yolo", "C2")]]
        options = SimulationOptions(max_ctas=3)
    else:
        layers = list(ALL_LAYERS)
        options = SimulationOptions()

    # One executor on a throwaway store: the run stays cold, and
    # figures that share sweep points simulate them once.
    with tempfile.TemporaryDirectory() as store:
        ex = SweepExecutor(cache=DiskCache(store))
        experiments = [
            figure2(layers),
            figure3(layers),
            table2(),
            figure9(layers, options, executor=ex),
            figure10(layers, options, executor=ex),
            figure11(layers, options=options, executor=ex),
            figure12(layers, options, executor=ex),
            figure13(layers, options, executor=ex),
            figure14(options=options, executor=ex),
            energy_area(layers, options=options, executor=ex),
        ]
    os.makedirs("results", exist_ok=True)
    for exp in experiments:
        rows = [flatten(r) for r in exp.rows]
        columns = list(dict.fromkeys(k for r in rows for k in r))
        path = os.path.join("results", f"{exp.name}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
        summary_path = os.path.join("results", f"{exp.name}_summary.csv")
        with open(summary_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "measured", "paper"])
            for key, value in exp.summary.items():
                writer.writerow([key, value, exp.paper.get(key, "")])
        print(f"wrote {path} ({len(rows)} rows)", flush=True)


if __name__ == "__main__":
    main()
