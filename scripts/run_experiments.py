"""Regenerate the paper's evaluation in one pass.

Runs every experiment of ``PAPER_EVALUATION`` once, through one sweep
executor on a throwaway store, so the run stays cold while figures
that share sweep points simulate them once.  Writes, under
``results/`` in the working directory:

* ``experiments.txt`` — the paper-vs-measured record EXPERIMENTS.md
  quotes;
* ``<name>.csv`` — each experiment's rows, for external plotting;
* ``<name>_summary.csv`` — each summary metric beside its paper value.

Wall times go to stdout only, so the files are deterministic.  Full
traces over all 22 Table I layers; ``--quick`` runs three layers with
a CTA cap instead.

Run:  python scripts/run_experiments.py [--quick]
"""

import csv
import os
import sys
import tempfile
import time

from repro.analysis.experiments import PAPER_EVALUATION, REGISTRY
from repro.analysis.report import comparison_lines, format_experiment
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


def write_csvs(exp, out_dir: str) -> None:
    """``<name>.csv`` of the rows and ``<name>_summary.csv`` of the
    summary metrics with their paper values."""
    rows = [flatten(r) for r in exp.rows]
    columns = list(dict.fromkeys(k for r in rows for k in r))
    with open(os.path.join(out_dir, f"{exp.name}.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    summary_path = os.path.join(out_dir, f"{exp.name}_summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "measured", "paper"])
        for key, value in exp.summary.items():
            writer.writerow([key, value, exp.paper.get(key, "")])


def main() -> None:
    quick = "--quick" in sys.argv
    if quick:
        layers = [get_layer(net, name) for net, name in
                  [("resnet", "C2"), ("gan", "TC3"), ("yolo", "C2")]]
        options = SimulationOptions(max_ctas=3)
    else:
        layers = list(ALL_LAYERS)
        options = SimulationOptions()

    os.makedirs("results", exist_ok=True)
    out_path = os.path.join("results", "experiments.txt")
    with tempfile.TemporaryDirectory() as store, open(out_path, "w") as fh:
        ex = SweepExecutor(cache=DiskCache(store))
        for name in PAPER_EVALUATION:
            t0 = time.time()
            exp = REGISTRY[name](layers, options, ex)
            dt = time.time() - t0
            fh.write(format_experiment(exp) + "\n\n")
            write_csvs(exp, "results")
            for line in comparison_lines(exp):
                print(line, flush=True)
            print(f"  ... {name} done in {dt:.1f}s", flush=True)
    print(f"\nwrote {out_path} and results/<name>[_summary].csv")


if __name__ == "__main__":
    main()
