"""Terminal bar charts for experiment results.

The paper's figures are grouped bar charts over the Table I layer
set.  :func:`bar_chart` renders one series and :func:`grouped_chart`
renders the per-layer series of an :class:`Experiment` the way the
figures group them, so examples and the CLI can "draw" Figures 9–14
in a terminal.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.analysis.experiments import Experiment

#: Glyph per bar cell.
FULL_BLOCK = "#"


def _fmt(value: float, percent: bool) -> str:
    return f"{value:+.1%}" if percent else f"{value:.3g}"


def bar_chart(
    values: Mapping[str, float],
    width: int = 40,
    percent: bool = True,
    title: Optional[str] = None,
) -> str:
    """Horizontal bar chart of label -> value.

    Bars scale to the largest magnitude; negative values render with
    ``-`` cells so regressions are visually distinct.
    """
    if not values:
        return "(no data)"
    peak = max(abs(v) for v in values.values()) or 1.0
    label_w = max(len(str(k)) for k in values)
    lines = [] if title is None else [title]
    for label, value in values.items():
        cells = round(abs(value) / peak * width)
        glyph = FULL_BLOCK if value >= 0 else "-"
        lines.append(
            f"{str(label).ljust(label_w)} |{(glyph * cells).ljust(width)}| "
            f"{_fmt(value, percent)}"
        )
    return "\n".join(lines)


def grouped_chart(
    exp: Experiment,
    group_key: str,
    series_key: str,
    value_key: str,
    width: int = 30,
    percent: bool = True,
    max_groups: Optional[int] = None,
) -> str:
    """Render an experiment's rows as per-group bar clusters.

    ``group_key`` selects the outer grouping column (e.g. ``layer``),
    ``series_key`` the within-group series (e.g. ``lhb``), and
    ``value_key`` the plotted metric.
    """
    groups: Dict[str, Dict[str, float]] = {}
    for row in exp.rows:
        g = str(row[group_key])
        groups.setdefault(g, {})[str(row[series_key])] = row[value_key]
    if max_groups is not None:
        groups = dict(list(groups.items())[:max_groups])
    if not groups:
        return "(no data)"

    peak = max(
        (abs(v) for series in groups.values() for v in series.values()),
        default=1.0,
    ) or 1.0
    series_w = max(
        len(s) for series in groups.values() for s in series
    )
    lines = [f"== {exp.name}: {exp.description} =="]
    for g, series in groups.items():
        lines.append(g)
        for s, v in series.items():
            cells = round(abs(v) / peak * width)
            glyph = FULL_BLOCK if v >= 0 else "-"
            lines.append(
                f"  {s.ljust(series_w)} |{(glyph * cells).ljust(width)}| "
                f"{_fmt(v, percent)}"
            )
    return "\n".join(lines)


def summary_chart(exp: Experiment, width: int = 40, percent: bool = True) -> str:
    """Bar chart of an experiment's summary metrics with paper marks."""
    lines = [f"== {exp.name} summary =="]
    chart = bar_chart(exp.summary, width=width, percent=percent)
    lines.append(chart)
    if exp.paper:
        refs = ", ".join(
            f"{k}={_fmt(v, percent)}" for k, v in exp.paper.items()
        )
        lines.append(f"paper: {refs}")
    return "\n".join(lines)
