"""ResultTable tests."""

import csv
import io
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.results import ResultTable
from repro.results import table as table_module


@pytest.fixture()
def table():
    return ResultTable(
        [
            {"tech": "STT", "power": 2.0, "latency": 1.5},
            {"tech": "RRAM", "power": 1.0, "latency": 2.5},
            {"tech": "PCM", "power": 3.0, "latency": 4.0},
            {"tech": "STT", "power": 2.5, "latency": 1.0},
        ]
    )


class TestBasics:
    def test_len_iter_index(self, table):
        assert len(table) == 4
        assert table[1]["tech"] == "RRAM"
        assert sum(1 for _ in table) == 4

    def test_columns_in_first_seen_order(self):
        t = ResultTable([{"a": 1}, {"b": 2, "a": 3}])
        assert t.columns == ["a", "b"]

    def test_column_extraction_with_default(self, table):
        assert table.column("power") == [2.0, 1.0, 3.0, 2.5]
        assert table.column("missing", default=0) == [0, 0, 0, 0]

    def test_append_copies(self):
        t = ResultTable()
        record = {"x": 1}
        t.append(record)
        record["x"] = 99
        assert t[0]["x"] == 1

    def test_bool(self):
        assert not ResultTable()
        assert ResultTable([{"a": 1}])


class TestVerbs:
    def test_where(self, table):
        stt = table.where(tech="STT")
        assert len(stt) == 2

    def test_filter(self, table):
        cheap = table.filter(lambda r: r["power"] < 2.5)
        assert len(cheap) == 2

    def test_select(self, table):
        slim = table.select("tech")
        assert slim.columns == ["tech"]
        assert len(slim) == 4

    def test_sort_by_with_none_last(self):
        t = ResultTable([{"v": None}, {"v": 2}, {"v": 1}])
        ordered = t.sort_by("v")
        assert ordered.column("v") == [1, 2, None]

    def test_group_by(self, table):
        groups = table.group_by("tech")
        assert set(groups) == {("STT",), ("RRAM",), ("PCM",)}
        assert len(groups[("STT",)]) == 2

    def test_min_max_by(self, table):
        assert table.min_by("power")["tech"] == "RRAM"
        assert table.max_by("latency")["tech"] == "PCM"

    def test_min_by_ignores_none(self):
        t = ResultTable([{"v": None}, {"v": 5}])
        assert t.min_by("v")["v"] == 5

    def test_min_by_empty_raises(self):
        with pytest.raises(ReproError):
            ResultTable().min_by("v")

    def test_aggregate(self, table):
        assert table.aggregate("power", sum) == pytest.approx(8.5)
        with pytest.raises(ReproError):
            table.aggregate("nothing", sum)

    def test_unique_preserves_order(self, table):
        assert table.unique("tech") == ["STT", "RRAM", "PCM"]

    def test_concat(self, table):
        both = table.concat(table)
        assert len(both) == 8

    def test_with_column(self, table):
        extended = table.with_column("edp", lambda r: r["power"] * r["latency"])
        assert extended[0]["edp"] == pytest.approx(3.0)
        assert "edp" not in table[0]


class TestExport:
    def test_csv_roundtrip(self, table):
        text = table.to_csv()
        back = ResultTable.from_csv(text)
        assert len(back) == 4
        assert back[0]["power"] == pytest.approx(2.0)
        assert back[1]["tech"] == "RRAM"

    def test_csv_writes_file(self, table, tmp_path):
        path = tmp_path / "out.csv"
        table.to_csv(str(path))
        assert path.exists()
        assert "tech" in path.read_text()

    def test_csv_coerces_types(self):
        back = ResultTable.from_csv("a,b,c,d\n1,2.5,True,hello\n")
        row = back[0]
        assert row["a"] == 1 and isinstance(row["a"], int)
        assert row["b"] == pytest.approx(2.5)
        assert row["c"] is True
        assert row["d"] == "hello"

    def test_csv_empty_values_become_none(self):
        back = ResultTable.from_csv("a,b\n1,\n")
        assert back[0]["b"] is None

    def test_markdown_render(self, table):
        md = table.to_markdown()
        assert md.startswith("| tech | power | latency |")
        assert "| RRAM | 1 | 2.5 |" in md

    def test_markdown_empty(self):
        assert ResultTable().to_markdown() == "(empty table)"


# --- the column-wise renderer against the row-wise one it replaced ----------


def oracle_to_csv(table):
    """``ResultTable.to_csv`` before the column-wise renderer, verbatim."""
    columns = table.columns
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for record in table:
        writer.writerow({c: record.get(c, "") for c in columns})
    text = buffer.getvalue()
    return text


def oracle_to_markdown(table, float_format="{:.4g}"):
    """``ResultTable.to_markdown`` before the column-wise renderer, verbatim."""
    columns = table.columns
    if not columns:
        return "(empty table)"

    def fmt(value):
        if isinstance(value, float):
            return float_format.format(value)
        return "" if value is None else str(value)

    header = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    rows = [
        "| " + " | ".join(fmt(r.get(c)) for c in columns) + " |"
        for r in table
    ]
    return "\n".join([header, rule, *rows])


def assert_renders_like_oracle(records):
    """Both renderers match the oracles, in one block and in many."""
    table = ResultTable(records)
    for block_rows in (table_module._BLOCK_ROWS, 2):
        with mock.patch.object(table_module, "_BLOCK_ROWS", block_rows):
            assert table.to_csv() == oracle_to_csv(table)
            assert table.to_markdown() == oracle_to_markdown(table)
            assert table.to_markdown("{!r}") == oracle_to_markdown(table, "{!r}")
            assert table.to_markdown("{:.2f}") == oracle_to_markdown(table, "{:.2f}")


_KEYS = st.sampled_from(["a", "b", "c", "d e", "f,g", 'h"i', "j\nk", ""])
_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1, 1.0, True, math.nan, math.inf, -math.inf]),
    st.text(max_size=4),
    st.sampled_from(["", ",", '"', "\r", "\n", "x y", "\r\n"]),
)
#: Per-kind pools small enough that columns repeat values (the memo path).
_POOLS = {
    "float": st.sampled_from([0.5, 1.0, 2.25, 1e-9, 3e300, 0.0, -0.0, math.nan]),
    "int": st.sampled_from([0, 1, -1, 7, 10**20]),
    "bool": st.booleans(),
    "str": st.sampled_from(["STT", "RRAM", "", "a,b", 'q"t', "x\ny"]),
    "mixed": st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, "1"]),
}


@st.composite
def typed_tables(draw):
    """Tables of typed columns with repeats, ``None`` cells and gaps."""
    names = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    kinds = {name: draw(st.sampled_from(sorted(_POOLS))) for name in names}
    rows = draw(st.integers(0, 12))
    records = []
    for _ in range(rows):
        record = {}
        for name in names:
            presence = draw(st.sampled_from(["value"] * 6 + ["none", "missing"]))
            if presence == "value":
                record[name] = draw(_POOLS[kinds[name]])
            elif presence == "none":
                record[name] = None
        records.append(record)
    return records


class TestColumnwiseRendering:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.dictionaries(_KEYS, _CELLS, max_size=4), max_size=10))
    def test_arbitrary_records_render_like_the_oracle(self, records):
        assert_renders_like_oracle(records)

    @settings(max_examples=150, deadline=None)
    @given(typed_tables())
    def test_typed_columns_render_like_the_oracle(self, records):
        assert_renders_like_oracle(records)

    @pytest.mark.parametrize(
        "records",
        [
            pytest.param(
                [{"name": s, "n": i} for i, s in enumerate(
                    ["plain", "a,b", 'say "hi"', "cr\rhere", "lf\nhere", "", ""]
                )],
                id="quoting-and-empty-strings",
            ),
            pytest.param(
                [{"a": 1.5, "b": None}, {"a": None}, {"b": "x", "c": 2.0},
                 {"a": 1.5, "b": None, "c": 2.0}] * 3,
                id="none-and-ragged-rows",
            ),
            pytest.param(
                [{"z": v, "k": "x"} for v in [1.5] * 6 + [0.0, -0.0, -0.0, 0.0]],
                id="positive-and-negative-zero",
            ),
            pytest.param(
                [{"z": -0.0, "k": "x"}] * 5 + [{"z": 0.0, "k": "x"}] * 5,
                id="negative-zero-first",
            ),
            pytest.param(
                [{"v": v, "k": "x"}
                 for v in [math.nan, math.inf, -math.inf, 2.5] * 3],
                id="nan-and-inf",
            ),
            pytest.param(
                [{"v": v, "k": "x"} for v in [1, 1.0, True] * 4],
                id="one-int-float-and-bool",
            ),
            pytest.param(
                [{"v": v, "k": "x"} for v in [True] * 4 + [1] * 4 + [1.0] * 4],
                id="one-per-type-in-runs",
            ),
            pytest.param([{"only": ""}, {"only": None}, {}, {"only": "v"}],
                         id="one-column-with-empty-values"),
            pytest.param([], id="empty-table"),
            pytest.param([{}, {}], id="rows-without-columns"),
            pytest.param(
                [{"a,b": 1, 'c"d': 2.5}, {"a,b": 3, 'c"d': 0.1}],
                id="header-needs-quoting",
            ),
        ],
    )
    def test_edge_cases_render_like_the_oracle(self, records):
        assert_renders_like_oracle(records)

    def test_same_value_of_another_type_keeps_its_own_text(self):
        table = ResultTable([{"v": v, "k": "x"} for v in [1, 1.0, True, -0.0, 0.0]])
        assert table.to_csv().split("\r\n")[1:6] == [
            "1,x", "1.0,x", "True,x", "-0.0,x", "0.0,x"]
        assert "| -0 | x |" in table.to_markdown()

    def test_file_matches_returned_text(self, tmp_path):
        table = ResultTable([{"a": "x", "b": 0.25}] * 3)
        path = tmp_path / "t.csv"
        text = table.to_csv(str(path))
        assert path.read_bytes() == text.encode()
        assert text == oracle_to_csv(table)
