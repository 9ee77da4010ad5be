"""Run every paper experiment at full scale and emit EXPERIMENTS data.

Writes ``results/experiments.txt`` with the complete paper-vs-measured
record used by EXPERIMENTS.md.  Full traces over all 22 Table I
layers; takes tens of minutes.

Run:  python scripts/run_experiments.py [--quick]
"""

import os
import sys
import tempfile
import time

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
from repro.analysis.report import comparison_lines, format_experiment
from repro.conv.workloads import ALL_LAYERS, get_layer
from repro.gpu.config import SimulationOptions
from repro.runtime import DiskCache, SweepExecutor


def main() -> None:
    quick = "--quick" in sys.argv
    if quick:
        layers = [get_layer(n, l) for n, l in
                  [("resnet", "C2"), ("gan", "TC3"), ("yolo", "C2")]]
        options = SimulationOptions(max_ctas=3)
    else:
        layers = list(ALL_LAYERS)
        options = SimulationOptions()

    os.makedirs("results", exist_ok=True)
    out_path = os.path.join("results", "experiments.txt")
    # One executor on a throwaway store: the run stays cold, and
    # figures that share sweep points simulate them once.
    with tempfile.TemporaryDirectory() as store, open(out_path, "w") as fh:
        ex = SweepExecutor(cache=DiskCache(store))
        experiments = [
            ("figure2", lambda: figure2(layers)),
            ("figure3", lambda: figure3(layers)),
            ("table2", table2),
            ("figure9", lambda: figure9(layers, options, executor=ex)),
            ("figure10", lambda: figure10(layers, options, executor=ex)),
            ("figure11",
             lambda: figure11(layers, options=options, executor=ex)),
            ("figure12", lambda: figure12(layers, options, executor=ex)),
            ("figure13", lambda: figure13(layers, options, executor=ex)),
            ("figure14", lambda: figure14(options=options, executor=ex)),
            ("energy_area",
             lambda: energy_area(layers, options=options, executor=ex)),
        ]
        for name, fn in experiments:
            t0 = time.time()
            exp = fn()
            dt = time.time() - t0
            block = format_experiment(exp)
            fh.write(block + f"\n[{dt:.0f}s]\n\n")
            fh.flush()
            for line in comparison_lines(exp):
                print(line, flush=True)
            print(f"  ... {name} done in {dt:.0f}s", flush=True)
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
