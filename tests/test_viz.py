"""ASCII visualization and dashboard tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.results import ResultTable
from repro.viz import report as report_module
from repro.viz.ascii import _MARKERS, _nice_fmt, _transform
from repro.viz import (
    array_view,
    bar_chart,
    density_view,
    filter_by_constraints,
    latency_view,
    lifetime_view,
    power_view,
    scatter,
    study_report,
    summary_dashboard,
)


class TestScatter:
    def test_renders_markers_and_legend(self):
        text = scatter({"stt": [(1, 1), (2, 2)], "rram": [(3, 1)]})
        assert "o=stt" in text and "x=rram" in text
        assert "o" in text.splitlines()[1]

    def test_empty(self):
        assert scatter({}) == "(no data)"

    def test_log_axes(self):
        text = scatter({"s": [(1e3, 1e-3), (1e9, 1e3)]}, log_x=True, log_y=True)
        assert "(log)" in text

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            scatter({"s": [(0.0, 1.0)]}, log_x=True)

    def test_single_point(self):
        text = scatter({"s": [(5.0, 5.0)]})
        assert "s" in text

    def test_title_shown(self):
        assert scatter({"s": [(1, 1)]}, title="hello").startswith("hello")


class TestBarChart:
    def test_bars_scale(self):
        text = bar_chart({"a": 1.0, "b": 10.0})
        lines = text.splitlines()
        assert lines[0].count("#") < lines[1].count("#")

    def test_handles_none(self):
        assert "(n/a)" in bar_chart({"a": None, "b": 1.0})

    def test_empty(self):
        assert bar_chart({}) == "(no data)"


@pytest.fixture()
def eval_table():
    return ResultTable(
        [
            {
                "cell": "STT-optimistic", "tech": "STT",
                "reads_per_s": 1e6, "writes_per_s": 1e4,
                "total_power_mw": 2.0, "memory_latency_s_per_s": 0.01,
                "lifetime_years": 50.0, "feasible": True,
                "read_latency_ns": 2.0, "read_energy_pj": 9.0,
                "density_mbit_mm2": 100.0, "area_mm2": 0.6,
            },
            {
                "cell": "RRAM-optimistic", "tech": "RRAM",
                "reads_per_s": 1e6, "writes_per_s": 1e4,
                "total_power_mw": 1.0, "memory_latency_s_per_s": 0.02,
                "lifetime_years": 0.5, "feasible": True,
                "read_latency_ns": 3.0, "read_energy_pj": 12.0,
                "density_mbit_mm2": 400.0, "area_mm2": 0.2,
            },
            {
                "cell": "PCM-pessimistic", "tech": "PCM",
                "reads_per_s": 1e6, "writes_per_s": 1e4,
                "total_power_mw": 30.0, "memory_latency_s_per_s": 3.0,
                "lifetime_years": None, "feasible": False,
                "read_latency_ns": 300.0, "read_energy_pj": 170.0,
                "density_mbit_mm2": 45.0, "area_mm2": 1.5,
            },
        ]
    )


class TestDashboard:
    def test_constraint_filter_drops_infeasible(self, eval_table):
        kept = filter_by_constraints(eval_table)
        assert len(kept) == 2

    def test_constraint_filter_power(self, eval_table):
        kept = filter_by_constraints(eval_table, max_power_mw=1.5)
        assert len(kept) == 1
        assert kept[0]["tech"] == "RRAM"

    def test_constraint_filter_lifetime(self, eval_table):
        kept = filter_by_constraints(eval_table, min_lifetime_years=10)
        assert {r["tech"] for r in kept} == {"STT"}

    def test_constraint_filter_latency_and_area(self, eval_table):
        kept = filter_by_constraints(
            eval_table, max_latency_s_per_s=0.015, max_area_mm2=1.0,
            feasible_only=False,
        )
        assert {r["tech"] for r in kept} == {"STT"}

    def test_views_render(self, eval_table):
        for view in (power_view, latency_view, lifetime_view, array_view):
            text = view(eval_table)
            assert isinstance(text, str) and len(text) > 50

    def test_lifetime_view_skips_unlimited(self, eval_table):
        text = lifetime_view(eval_table)
        assert "PCM" not in text  # its lifetime is None

    def test_density_view_takes_best(self, eval_table):
        text = density_view(eval_table)
        assert "RRAM-optimistic" in text

    def test_summary_dashboard_combines(self, eval_table):
        text = summary_dashboard(eval_table)
        assert "power" in text and "lifetime" in text.lower()


# --- one-pass views, winners and scatter against the code they replaced -----


def oracle_scatter(
    series,
    width=70,
    height=20,
    x_label="x",
    y_label="y",
    log_x=False,
    log_y=False,
    title="",
):
    """``repro.viz.ascii.scatter`` before the one-transform rewrite, verbatim."""
    points = [
        (label, x, y)
        for label, pts in series.items()
        for x, y in pts
    ]
    if not points:
        return "(no data)"
    xs = [_transform(x, log_x) for _, x, _ in points]
    ys = [_transform(y, log_y) for _, _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, x, y) in enumerate(points):
        marker = _MARKERS[list(series).index(label) % len(_MARKERS)]
        cx = int((_transform(x, log_x) - x_lo) / x_span * (width - 1))
        cy = int((_transform(y, log_y) - y_lo) / y_span * (height - 1))
        row = height - 1 - cy
        if grid[row][cx] not in (" ", marker):
            grid[row][cx] = "?"  # collision between different series
        else:
            grid[row][cx] = marker

    lines = []
    if title:
        lines.append(title)
    y_hi_text = _nice_fmt(10**y_hi if log_y else y_hi)
    y_lo_text = _nice_fmt(10**y_lo if log_y else y_lo)
    lines.append(f"{y_label} ^  (top={y_hi_text}, bottom={y_lo_text}"
                 f"{', log' if log_y else ''})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width + f"> {x_label}"
                 f"{' (log)' if log_x else ''}")
    x_lo_text = _nice_fmt(10**x_lo if log_x else x_lo)
    x_hi_text = _nice_fmt(10**x_hi if log_x else x_hi)
    lines.append(f"  x: {x_lo_text} .. {x_hi_text}")
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={label}" for i, label in enumerate(series)
    )
    lines.append("  " + legend)
    return "\n".join(lines)


def oracle_series(table, x, y, by):
    """``repro.viz.dashboard._series`` before the one-pass views, verbatim."""
    series = {}
    for row in table:
        xv, yv = row.get(x), row.get(y)
        if xv is None or yv is None:
            continue
        if not (isinstance(xv, (int, float)) and isinstance(yv, (int, float))):
            continue
        if xv <= 0 or yv <= 0:
            continue
        series.setdefault(str(row.get(by, "all")), []).append((xv, yv))
    return {label: pts for label, pts in series.items() if pts}


#: The views before the one-pass rewrite: (x, y, scatter keywords).
ORACLE_VIEWS = {
    "power": ("reads_per_s", "total_power_mw", dict(
        x_label="reads/s", y_label="power [mW]",
        title="Total memory power vs read traffic")),
    "latency": ("writes_per_s", "memory_latency_s_per_s", dict(
        x_label="writes/s", y_label="latency [s/s]",
        title="Total memory latency vs write traffic")),
    "lifetime": ("writes_per_s", "lifetime_years", dict(
        x_label="writes/s", y_label="lifetime [y]",
        title="Projected memory lifetime vs write traffic")),
    "array": ("read_latency_ns", "read_energy_pj", dict(
        x_label="read latency [ns]", y_label="read energy [pJ]",
        title="Array read characteristics")),
}


def oracle_view(table, name, by="cell"):
    """One standard view as the pre-rewrite view function drew it."""
    if name == "lifetime":
        table = table.filter(lambda r: r.get("lifetime_years") is not None)
    x, y, kwargs = ORACLE_VIEWS[name]
    return oracle_scatter(
        oracle_series(table, x, y, by), log_x=True, log_y=True, **kwargs)


def oracle_winners(table, winner_column, group_column):
    """The winners loop of ``study_report`` before the one-pass rewrite."""
    sections = []
    if winner_column and group_column in table.columns:
        sections += ["## Winners", ""]
        winners = {}
        for group in table.unique(group_column):
            rows = table.where(**{group_column: group}).filter(
                lambda r: r.get(winner_column) is not None
            )
            if rows:
                best = rows.min_by(winner_column)
                winners[str(group)] = (
                    f"{best.get('cell', '?')} ({best[winner_column]:.4g})"
                )
        lines = [f"| {group_column} | winner ({winner_column}) |", "|---|---|"]
        lines += [f"| {g} | {w} |" for g, w in winners.items()]
        sections += lines + [""]
    return sections


def new_winners(table, winner_column, group_column):
    lines = report_module._winners(table, winner_column, group_column)
    return [] if lines is None else ["## Winners", "", *lines, ""]


def oracle_report(table, winner_column="total_power_mw", group_column="workload"):
    """``study_report``'s body before the rewrite, on the oracle pieces."""
    sections = ["# t", "", "*Reproduces paper Fig. 1.*", "", "d", "",
                f"*{len(table)} evaluation rows.*\n"]
    for name in ORACLE_VIEWS:
        rendered = oracle_view(table, name)
        if "(no data)" in rendered:
            continue
        sections += [f"## {name.title()} view", "", "```\n" + rendered + "\n```", ""]
    sections += oracle_winners(table, winner_column, group_column)
    sections += ["## Data", "", table.to_markdown(), ""]
    return "\n".join(sections)


def outcome(func, *args, **kwargs):
    """``func``'s result, or the type and message of what it raised."""
    try:
        return func(*args, **kwargs)
    except Exception as exc:  # any error: both renderers must raise alike
        return (type(exc), str(exc))


_COORD = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([1e-12, 1.0, 10.0, 1e9, 0.0, -1.0]),
)
_SERIES = st.dictionaries(
    st.text(max_size=3),
    st.lists(st.tuples(_COORD, _COORD), max_size=12),
    max_size=10,
)
_NUMBER = st.one_of(
    st.none(),
    st.sampled_from([0, 0.0, -1.0, 1, True, False, 0.5, 1e3, 2e-9, math.inf, "7"]),
    st.floats(1e-6, 1e6),
)
#: Winner values are numbers (or None): the winners table compares them.
_WINNER = st.one_of(
    st.none(),
    st.sampled_from([0, 0.0, -0.0, 1, True, False, 0.5, 1e3, math.inf, math.nan]),
    st.floats(1e-6, 1e6),
)
_WINNER_COLUMNS = ("total_power_mw", "read_energy_pj")
_GROUP = st.sampled_from([None, 1, 1.0, True, 0, "a", "b", "1", math.nan, 2.5])
_VIEW_COLUMNS = (
    "reads_per_s", "writes_per_s", "total_power_mw", "memory_latency_s_per_s",
    "lifetime_years", "read_latency_ns", "read_energy_pj",
)


@st.composite
def eval_tables(draw):
    """Evaluation-like records: view columns, cells, groups, gaps."""
    records = []
    for _ in range(draw(st.integers(0, 14))):
        record = {"cell": draw(st.sampled_from(["STT", "RRAM", "PCM", 3, None]))}
        for name in _VIEW_COLUMNS:
            if draw(st.integers(0, 7)):
                record[name] = draw(_WINNER if name in _WINNER_COLUMNS else _NUMBER)
        if draw(st.integers(0, 5)):
            record["workload"] = draw(_GROUP)
        if not draw(st.integers(0, 5)):
            del record["cell"]
        records.append(record)
    return ResultTable(records)


class TestOnePassRendering:
    @settings(max_examples=100, deadline=None)
    @given(_SERIES, st.booleans(), st.booleans(), st.sampled_from([(70, 20), (5, 3)]))
    def test_scatter_matches_the_oracle(self, series, log_x, log_y, size):
        width, height = size
        kwargs = dict(width=width, height=height, log_x=log_x, log_y=log_y, title="t")
        assert outcome(scatter, series, **kwargs) == outcome(
            oracle_scatter, series, **kwargs)

    @settings(max_examples=100, deadline=None)
    @given(eval_tables())
    def test_views_match_the_oracle(self, table):
        views = {"power": power_view, "latency": latency_view,
                 "lifetime": lifetime_view, "array": array_view}
        for name, view in views.items():
            assert outcome(view, table) == outcome(oracle_view, table, name)

    @settings(max_examples=100, deadline=None)
    @given(eval_tables(), st.sampled_from(_WINNER_COLUMNS))
    def test_winners_match_the_oracle(self, table, winner):
        assert new_winners(table, winner, "workload") == oracle_winners(
            table, winner, "workload")

    @settings(max_examples=50, deadline=None)
    @given(eval_tables())
    def test_report_matches_the_oracle(self, table):
        assert outcome(
            study_report, "t", table, description="d", figure="Fig. 1"
        ) == outcome(oracle_report, table)

    @pytest.mark.parametrize(
        "records",
        [
            pytest.param(
                [{"cell": c, "workload": "w", "total_power_mw": p}
                 for c, p in [("A", 2.0), ("B", 1.0), ("C", 1.0), ("D", 1.0)]],
                id="ties-keep-the-first-row",
            ),
            pytest.param(
                [{"cell": "A", "workload": "w", "total_power_mw": None},
                 {"cell": "B", "workload": "v", "total_power_mw": None},
                 {"cell": "C", "workload": "v", "total_power_mw": 3.0}],
                id="none-winner-values",
            ),
            pytest.param(
                [{"cell": "A", "total_power_mw": 0.5},
                 {"cell": "B", "workload": "w", "total_power_mw": 2.0},
                 {"cell": "C", "workload": None, "total_power_mw": 4.0},
                 {"cell": "D", "total_power_mw": 0.1}],
                id="group-key-missing-on-some-rows",
            ),
            pytest.param(
                [{"cell": "A", "total_power_mw": 0.5},
                 {"cell": "B", "workload": "w", "total_power_mw": 2.0}],
                id="missing-key-rows-without-a-none-group",
            ),
            pytest.param(
                [{"cell": "A", "workload": 1, "total_power_mw": 3.0},
                 {"cell": "B", "workload": True, "total_power_mw": 2.0},
                 {"cell": "C", "workload": 1.0, "total_power_mw": 1.0},
                 {"cell": "D", "workload": "1", "total_power_mw": 0.5},
                 {"cell": "E", "workload": math.nan, "total_power_mw": 0.1}],
                id="equal-groups-of-other-types-and-nan",
            ),
            pytest.param([{"cell": "A", "total_power_mw": 1.0}], id="no-group-column"),
            pytest.param([], id="empty-table"),
        ],
    )
    def test_winner_edge_cases_match_the_oracle(self, records):
        table = ResultTable(records)
        assert new_winners(table, "total_power_mw", "workload") == oracle_winners(
            table, "total_power_mw", "workload")
        assert study_report("t", table, description="d", figure="Fig. 1") == (
            oracle_report(table))
