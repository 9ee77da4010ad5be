"""The committed ``results/`` against the one pass that writes them and
against the EXPERIMENTS.md headline table that quotes them."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.claims import measured_claims

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

#: Headline-table row ``(figure, metric label)`` -> ``(experiment,
#: summary metric, scale, sign)``: the table prints ``sign * scale *``
#: the CSV value.  Fig 11, Fig 14 and Sec V-H print reductions as
#: negative percentages, and Fig 13 prints its "degradation" as the
#: change in improvement, so negated.  A Paper cell is checked where
#: the summary has a paper value; the 1024-entry hit rate is read off
#: Fig 10 and not catalogued, so only its Measured cell is checked.
HEADLINE = {
    ("Fig 2", "GEMM speedup over direct"): ("figure2", "gmean_gemm", 1, 1),
    ("Fig 2", "Winograd"): ("figure2", "gmean_winograd", 1, 1),
    ("Fig 2", "FFT"): ("figure2", "gmean_fft", 1, 1),
    ("Fig 2", "GEMM_TC"): ("figure2", "gmean_gemm_tc", 1, 1),
    ("Fig 3", "GEMM memory vs direct"): ("figure3", "mean_gemm", 1, 1),
    ("Fig 3", "GEMM_TC (implicit)"): ("figure3", "mean_gemm_tc", 1, 1),
    ("Fig 3", "Winograd"): ("figure3", "mean_winograd", 1, 1),
    ("Fig 3", "FFT"): ("figure3", "mean_fft", 1, 1),
    ("Fig 9", "oracle gmean improvement"):
        ("figure9", "gmean_oracle", 100, 1),
    ("Fig 9", "1024-entry gmean"): ("figure9", "gmean_1024-entry", 100, 1),
    ("Fig 10", "oracle hit rate"): ("figure10", "hit_oracle", 100, 1),
    ("Fig 10", "1024-entry hit rate"):
        ("figure10", "hit_1024-entry", 100, 1),
    ("Fig 10", "theoretical limit"):
        ("figure10", "theoretical_limit", 100, 1),
    ("Fig 11", "DRAM traffic reduction"):
        ("figure11", "mean_dram_traffic_reduction", 100, -1),
    ("Fig 11", "L1 service reduction"):
        ("figure11", "mean_l1_service_reduction", 100, -1),
    ("Fig 11", "L2 service reduction"):
        ("figure11", "mean_l2_service_reduction", 100, -1),
    ("Fig 12", "8-way over direct-mapped"):
        ("figure12", "eight_way_advantage", 100, 1),
    ("Fig 13", "batch 8→32 degradation"):
        ("figure13", "batch32_degradation", 100, -1),
    ("Fig 14", "inference time reduction"):
        ("figure14", "gmean_inference_reduction", 100, -1),
    ("Fig 14", "training time reduction"):
        ("figure14", "gmean_training_reduction", 100, -1),
    ("Sec V-H", "on-chip energy reduction"):
        ("energy_area", "on_chip_energy_reduction", 100, -1),
    ("Sec V-H", "area overhead vs RF"):
        ("energy_area", "area_overhead", 100, 1),
}

#: A printed number: optional "~" and sign, digits, then "%" or "×".
NUMBER = re.compile(r"~?([+−-]?)(\d+(?:\.(\d+))?)[%×]")


def headline_table():
    """``(figure, metric label) -> (paper cell, measured cell)`` of
    EXPERIMENTS.md's headline table; a blank first cell continues the
    figure above it."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = text.split("## Headline results", 1)[1].split("\n## ", 1)[0]
    rows, figure = {}, None
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 5 or cells[0].startswith("---"):
            continue
        figure = cells[0].strip("*") or figure
        rows[(figure, cells[1])] = (cells[2], cells[3])
    return rows


def summary(experiment: str) -> dict:
    with open(RESULTS / f"{experiment}_summary.csv", newline="") as fh:
        return {row["metric"]: row for row in csv.DictReader(fh)}


def assert_prints(cell: str, value: str, scale: int, sign: int) -> None:
    """``cell`` is ``sign * scale * value`` at the cell's precision."""
    match = NUMBER.fullmatch(cell)
    assert match, f"not a number: {cell!r}"
    minus, digits, decimals = match.groups()
    shown = ("-" if minus in ("−", "-") else "") + digits
    expected = f"{sign * scale * float(value):.{len(decimals or '')}f}"
    assert shown == expected, f"{cell!r} should print {expected}"


@pytest.mark.parametrize("row", list(HEADLINE), ids=" / ".join)
def test_headline_cells_match_the_committed_summaries(row):
    experiment, metric, scale, sign = HEADLINE[row]
    table = headline_table()
    assert row in table, f"EXPERIMENTS.md has no headline row {row}"
    paper_cell, measured_cell = table[row]
    committed = summary(experiment)[metric]
    assert_prints(measured_cell, committed["measured"], scale, sign)
    if committed["paper"]:
        assert_prints(paper_cell, committed["paper"], scale, sign)


def test_fig14_dilution_is_training_over_inference_reduction():
    """Fig 14's dilution row, and the prose under "Figure 14", print
    the training reduction over the inference reduction at two
    decimals: 0.0304 / 0.1178 measured, 8.3 / 22.7 in the paper."""
    paper_cell, measured_cell = headline_table()[
        ("Fig 14", "training/inference dilution")
    ]
    fig14 = summary("figure14")
    ratio = {
        column: float(fig14["gmean_training_reduction"][column])
        / float(fig14["gmean_inference_reduction"][column])
        for column in ("measured", "paper")
    }
    assert measured_cell == f"{ratio['measured']:.2f}"
    assert paper_cell == f"{ratio['paper']:.2f}" == "0.37"
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    prose = " ".join(text.split("### Figure 14", 1)[1].split("###", 1)[0].split())
    assert (
        f"dilution ratio comes out {ratio['measured']:.2f} vs the paper's "
        f"{ratio['paper']:.2f}"
    ) in prose


def test_every_measured_figure_claim_has_a_headline_row():
    mapped = {(exp, metric) for exp, metric, _, _ in HEADLINE.values()}
    claimed = {c.measured_by for c in measured_claims()}
    # Table II's single hit is a row of its workflow, not a number.
    assert claimed - mapped == {("table2", "hits")}


def test_one_pass_writes_the_committed_file_set_deterministically(tmp_path):
    """``run_experiments.py`` writes ``experiments.txt`` and exactly
    the CSVs committed under ``results/``, and a rerun rewrites them
    byte for byte."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_ENGINE", None)
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_experiments.py"),
             "--quick"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs.append({p.name: p.read_bytes()
                     for p in (tmp_path / "results").iterdir()})
    committed = {p.name for p in RESULTS.glob("*.csv")}
    assert set(runs[0]) == committed | {"experiments.txt"}
    assert runs[1] == runs[0]
