"""Markdown report generation for studies.

Produces self-contained markdown documents (tables + ASCII charts in code
fences) from study result tables — the offline stand-in for sharing a
dashboard link.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.results.table import ResultTable
from repro.viz.ascii import bar_chart
from repro.viz.dashboard import render_views


def _fence(text: str) -> str:
    return "```\n" + text + "\n```"


def _winners(
    table: ResultTable, winner_column: str, group_column: str
) -> Optional[list[str]]:
    """The winners-per-group table, or ``None`` if no row has ``group_column``.

    One pass finds, per value of ``group_column``, the first row with
    the least non-``None`` ``winner_column``.  Groups are the distinct
    values of the rows holding the column, in first-seen order; a row
    lacking it falls in the ``None`` group, and a group unequal to
    itself (NaN) matches no row.
    """
    groups: dict = {}
    best: dict = {}
    for row in table:
        if group_column in row:
            groups.setdefault(row[group_column], None)
        value = row.get(winner_column)
        if value is None:
            continue
        key = row.get(group_column)
        current = best.get(key)
        if current is None or value < current[winner_column]:
            best[key] = row
    if not groups:
        return None
    winners = {}
    for group in groups:
        row = best.get(group) if group == group else None
        if row is not None:
            winners[str(group)] = (
                f"{row.get('cell', '?')} ({row[winner_column]:.4g})"
            )
    lines = [f"| {group_column} | winner ({winner_column}) |", "|---|---|"]
    return lines + [f"| {g} | {w} |" for g, w in winners.items()]


def study_report(
    title: str,
    table: ResultTable,
    description: str = "",
    include_views: Sequence[str] = ("power", "latency", "lifetime", "array"),
    winner_column: Optional[str] = "total_power_mw",
    group_column: str = "workload",
    figure: Optional[str] = None,
) -> str:
    """Render a study into a markdown report.

    Includes the standard dashboard views, a winners-per-group table when
    ``winner_column`` is set, and the full data as a markdown table.
    ``figure`` tags the paper figure the study reproduces.  The views
    share one extraction of their columns, the winners come from one
    pass over the rows, and the data table is rendered column-wise
    (:meth:`~repro.results.table.ResultTable.to_markdown`).
    """
    sections: list[str] = [f"# {title}", ""]
    if figure:
        sections += [f"*Reproduces paper {figure}.*", ""]
    if description:
        sections += [description, ""]
    sections.append(f"*{len(table)} evaluation rows.*\n")

    charts = render_views(table, include_views)
    for name in include_views:
        rendered = charts.get(name)
        if rendered is None or "(no data)" in rendered:
            continue
        sections += [f"## {name.title()} view", "", _fence(rendered), ""]

    winners = _winners(table, winner_column, group_column) if winner_column else None
    if winners is not None:
        sections += ["## Winners", "", *winners, ""]

    sections += ["## Data", "", table.to_markdown(), ""]
    return "\n".join(sections)


def comparison_report(
    title: str,
    values: dict[str, float],
    unit: str,
    log: bool = False,
) -> str:
    """A one-chart markdown report comparing labelled scalars."""
    chart = bar_chart(values, title=f"{title} [{unit}]", log=log)
    return "\n".join([f"# {title}", "", _fence(chart), ""])
