"""Text dashboards over result tables.

The interactive-dashboard equivalent for a terminal: given a
:class:`~repro.results.ResultTable` of evaluations, render the standard
NVMExplorer views (power vs. read rate, latency vs. write rate, lifetime,
array characteristics) and apply the same constraint filters the web tool
exposes.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.results.table import ResultTable
from repro.viz.ascii import bar_chart, scatter


def filter_by_constraints(
    table: ResultTable,
    max_power_mw: Optional[float] = None,
    max_latency_s_per_s: Optional[float] = None,
    min_lifetime_years: Optional[float] = None,
    max_area_mm2: Optional[float] = None,
    feasible_only: bool = True,
) -> ResultTable:
    """The dashboard's constraint panel: drop rows violating any bound."""

    def keep(row: dict) -> bool:
        if feasible_only and row.get("feasible") is False:
            return False
        if max_power_mw is not None and (row.get("total_power_mw") or 0) > max_power_mw:
            return False
        if max_latency_s_per_s is not None:
            latency = row.get("memory_latency_s_per_s")
            if latency is not None and latency > max_latency_s_per_s:
                return False
        if min_lifetime_years is not None:
            lifetime = row.get("lifetime_years")
            if lifetime is not None and lifetime < min_lifetime_years:
                return False
        if max_area_mm2 is not None and (row.get("area_mm2") or 0) > max_area_mm2:
            return False
        return True

    return table.filter(keep)


#: The standard views: name -> (x column, y column, x label, y label, title).
_VIEWS = {
    "power": (
        "reads_per_s", "total_power_mw", "reads/s", "power [mW]",
        "Total memory power vs read traffic",
    ),
    "latency": (
        "writes_per_s", "memory_latency_s_per_s", "writes/s", "latency [s/s]",
        "Total memory latency vs write traffic",
    ),
    "lifetime": (
        "writes_per_s", "lifetime_years", "writes/s", "lifetime [y]",
        "Projected memory lifetime vs write traffic",
    ),
    "array": (
        "read_latency_ns", "read_energy_pj", "read latency [ns]",
        "read energy [pJ]", "Array read characteristics",
    ),
}


def _drawable(values: list) -> list:
    """Each value that a log axis can show, else ``None``.

    Every dashboard view draws on log axes, so non-numeric and
    non-positive values are dropped: zero-rate points (e.g. a read-only
    workload's write rate) simply have nothing to show there.
    """
    return [
        v if isinstance(v, (int, float)) and not v <= 0 else None
        for v in values
    ]


def render_views(
    table: ResultTable, names: Iterable[str], by: str = "cell"
) -> dict[str, str]:
    """Render the named standard views, extracting each column once.

    Returns ``{name: chart}`` for every name in ``names`` that is a
    standard view; a view with no drawable point renders ``(no data)``.
    Each view's series are grouped by ``str`` of the ``by`` column.
    """
    columns: dict[str, list] = {}

    def drawable(name: str) -> list:
        if name not in columns:
            columns[name] = _drawable(table.column(name))
        return columns[name]

    labels: Optional[list[str]] = None
    charts = {}
    for name in dict.fromkeys(names):
        if name not in _VIEWS:
            continue
        x, y, x_label, y_label, title = _VIEWS[name]
        if labels is None:
            labels = list(map(str, table.column(by, "all")))
        series: dict[str, list[tuple[float, float]]] = {}
        for label, xv, yv in zip(labels, drawable(x), drawable(y)):
            if xv is not None and yv is not None:
                series.setdefault(label, []).append((xv, yv))
        charts[name] = scatter(
            series, x_label=x_label, y_label=y_label,
            log_x=True, log_y=True, title=title,
        )
    return charts


def power_view(table: ResultTable, by: str = "cell") -> str:
    """Total memory power vs. read access rate (Figure 8/9 left)."""
    return render_views(table, ["power"], by)["power"]


def latency_view(table: ResultTable, by: str = "cell") -> str:
    """Aggregate memory latency vs. write access rate (Figure 8/9 middle)."""
    return render_views(table, ["latency"], by)["latency"]


def lifetime_view(table: ResultTable, by: str = "cell") -> str:
    """Projected lifetime vs. write access rate (Figure 8/9 right)."""
    return render_views(table, ["lifetime"], by)["lifetime"]


def array_view(table: ResultTable, by: str = "cell") -> str:
    """Read energy vs. read latency for arrays (Figure 3/5/10 style)."""
    return render_views(table, ["array"], by)["array"]


def density_view(table: ResultTable) -> str:
    """Storage density bars per cell."""
    best: dict[str, float] = {}
    for row in table:
        cell = str(row.get("cell"))
        density = row.get("density_mbit_mm2")
        if density is not None:
            best[cell] = max(best.get(cell, 0.0), density)
    return bar_chart(best, title="Storage density [Mbit/mm^2]", log=False)


def summary_dashboard(table: ResultTable) -> str:
    """All standard views stacked, like the web dashboard's landing page."""
    views = [*render_views(table, _VIEWS).values(), density_view(table)]
    return "\n\n".join(views)
