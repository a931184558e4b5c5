"""A small column-oriented results table.

pandas is not available offline, so the framework carries its own result
container: a list of records with pandas-ish verbs (filter, sort, group_by,
select, aggregate) plus CSV/markdown export.  Every study returns one of
these; the visualization layer and benches consume them.
"""

from __future__ import annotations

import csv
import io
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import ReproError

_NONE = type(None)
#: Cell types whose equal values render alike (``-0.0`` aside), so a
#: column holding one of them formats each distinct value once.
_MEMO_TYPES = frozenset({str, float, int, bool})
#: Rows rendered per block: bounds the cell vectors alive at once.
_BLOCK_ROWS = 1024


class ResultTable:
    """An immutable-ish table of records (dicts with shared keys)."""

    def __init__(self, records: Iterable[Mapping[str, Any]] = ()) -> None:
        self._records: list[dict[str, Any]] = [dict(r) for r in records]

    # --- basics -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._records)

    def __getitem__(self, index: int) -> dict[str, Any]:
        return self._records[index]

    def __bool__(self) -> bool:
        return bool(self._records)

    @property
    def columns(self) -> list[str]:
        """Union of keys across records, in first-seen order."""
        return list(dict.fromkeys(chain.from_iterable(self._records)))

    def column(self, name: str, default: Any = None) -> list[Any]:
        """All values of one column."""
        return _values(self._records, name, default)

    def append(self, record: Mapping[str, Any]) -> None:
        self._records.append(dict(record))

    def extend(self, records: Iterable[Mapping[str, Any]]) -> None:
        for record in records:
            self.append(record)

    # --- verbs ---------------------------------------------------------------

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "ResultTable":
        return ResultTable(r for r in self._records if predicate(r))

    def where(self, **equals: Any) -> "ResultTable":
        """Filter on column equality: ``table.where(tech="STT", flavor="optimistic")``."""
        def match(record: dict[str, Any]) -> bool:
            return all(record.get(k) == v for k, v in equals.items())
        return self.filter(match)

    def select(self, *columns: str) -> "ResultTable":
        return ResultTable({c: r.get(c) for c in columns} for r in self._records)

    def sort_by(self, column: str, reverse: bool = False) -> "ResultTable":
        def key(record: dict[str, Any]):
            value = record.get(column)
            # Sort missing values last.
            return (value is None, value)
        return ResultTable(sorted(self._records, key=key, reverse=reverse))

    def group_by(self, *columns: str) -> dict[tuple, "ResultTable"]:
        groups: dict[tuple, ResultTable] = {}
        for record in self._records:
            key = tuple(record.get(c) for c in columns)
            groups.setdefault(key, ResultTable()).append(record)
        return groups

    def min_by(self, column: str) -> dict[str, Any]:
        """The record minimizing ``column`` (None values excluded)."""
        candidates = [r for r in self._records if r.get(column) is not None]
        if not candidates:
            raise ReproError(f"no records with column {column!r}")
        return min(candidates, key=lambda r: r[column])

    def max_by(self, column: str) -> dict[str, Any]:
        candidates = [r for r in self._records if r.get(column) is not None]
        if not candidates:
            raise ReproError(f"no records with column {column!r}")
        return max(candidates, key=lambda r: r[column])

    def aggregate(
        self, column: str, func: Callable[[Sequence[float]], float]
    ) -> float:
        values = [r[column] for r in self._records if r.get(column) is not None]
        if not values:
            raise ReproError(f"no values to aggregate in column {column!r}")
        return func(values)

    def unique(self, column: str) -> list[Any]:
        seen: dict[Any, None] = {}
        for record in self._records:
            if column in record:
                seen.setdefault(record[column], None)
        return list(seen)

    def concat(self, other: "ResultTable") -> "ResultTable":
        return ResultTable([*self._records, *other._records])

    def with_column(
        self, name: str, func: Callable[[dict[str, Any]], Any]
    ) -> "ResultTable":
        """A copy with a derived column appended."""
        out = []
        for record in self._records:
            new = dict(record)
            new[name] = func(record)
            out.append(new)
        return ResultTable(out)

    # --- export ----------------------------------------------------------------

    def to_csv(self, path: Optional[str] = None) -> str:
        """Render as CSV; write to ``path`` when given.

        Cells are formatted column-wise (:func:`_rendered_rows`) and
        joined (:func:`_joined_csv`), unless ``csv.writer`` must quote a
        field: then it writes the formatted cells.
        """
        columns = self.columns
        text = _joined_csv(self._records, columns)
        if text is None:
            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(columns)
            writer.writerows(_rendered_rows(self._records, columns, _csv_cell, str))
            text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        return text

    def to_markdown(self, float_format: str = "{:.4g}") -> str:
        """Render as a GitHub-flavored markdown table, column-wise."""
        columns = self.columns
        if not columns:
            return "(empty table)"

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return float_format.format(value)
            return "" if value is None else str(value)

        header = "| " + " | ".join(columns) + " |"
        rule = "|" + "|".join("---" for _ in columns) + "|"
        rows = _rendered_rows(self._records, columns, fmt, float_format.format)
        return "\n".join(
            [header, rule, *("| " + " | ".join(row) + " |" for row in rows)]
        )

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        """Parse a CSV string, converting numeric-looking fields."""
        reader = csv.DictReader(io.StringIO(text))
        records = []
        for row in reader:
            parsed: dict[str, Any] = {}
            for key, value in row.items():
                parsed[key] = _coerce(value)
            records.append(parsed)
        return cls(records)


def _coerce(value: Optional[str]) -> Any:
    if value is None or value == "":
        return None
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    if value in ("True", "False"):
        return value == "True"
    return value


def _values(
    records: list[dict[str, Any]], name: str, default: Any = None
) -> list[Any]:
    """One column's values, ``default`` where a record lacks the key."""
    try:
        return list(map(itemgetter(name), records))
    except KeyError:
        return [record.get(name, default) for record in records]


def _csv_cell(value: Any) -> str:
    """One field as ``csv.writer`` writes it, before any quoting."""
    if value is None:
        return ""
    return str.__str__(value) if isinstance(value, str) else str(value)


def _format_column(
    values: list[Any],
    cell: Callable[[Any], str],
    float_text: Callable[[float], str],
    memos: dict[type, dict[Any, str]],
) -> list[str]:
    """``[cell(v) for v in values]``, formatting each distinct value once.

    A column of one exact ``_MEMO_TYPES`` type (``None`` aside, which
    ``cell`` renders ``""``) renders floats with ``float_text`` and the
    rest with ``str``, through ``memos[type]``, which persists across a
    column's blocks.  ``1 == 1.0 == True`` render differently, so a
    mixed column renders cell by cell; ``0.0 == -0.0`` too, so zeros
    always render directly.  Mostly distinct values skip the memo.
    """
    kinds = set(map(type, values))
    kind = next(iter(kinds - {_NONE}), _NONE)
    if kinds - {_NONE, kind} or kind not in _MEMO_TYPES:
        return list(map(cell, values))
    if kind is str and _NONE not in kinds:
        return values
    render = float_text if kind is float else str
    distinct = set(values)
    if _NONE not in kinds and len(distinct) * 2 > len(values):
        return list(map(render, values))
    memo = memos.setdefault(kind, {None: ""})
    distinct.difference_update(memo)
    memo.update(zip(distinct, map(render, distinct)))
    if kind is float and 0.0 in memo:
        return [memo[v] if v else cell(v) for v in values]
    return list(map(memo.__getitem__, values))


def _rendered_rows(
    records: list[dict[str, Any]],
    columns: list[str],
    cell: Callable[[Any], str],
    float_text: Callable[[float], str],
) -> Iterator[tuple[str, ...]]:
    """Each record's ``cell`` texts, one tuple per record, in order.

    Blocks of ``_BLOCK_ROWS`` rows are extracted and formatted column by
    column (:func:`_format_column`), then zipped into rows (empty rows
    when there are no columns).
    """
    memos: dict[str, dict[type, dict[Any, str]]] = {name: {} for name in columns}
    for start in range(0, len(records), _BLOCK_ROWS):
        block = records[start:start + _BLOCK_ROWS]
        fields = [
            _format_column(_values(block, name), cell, float_text, memos[name])
            for name in columns
        ]
        yield from zip(*fields) if fields else [()] * len(block)


def _joined_csv(records: list[dict[str, Any]], columns: list[str]) -> Optional[str]:
    """The CSV text by plain joins, or ``None`` if ``csv.writer`` must quote.

    ``csv.writer`` quotes a lone empty field and any field holding a
    delimiter, quote or line break, so a table with fewer than two
    columns takes its path, and so does one with such a field: joined
    fields hold none iff the text has exactly one delimiter per field
    boundary, one line break per line and no quote.
    """
    if len(columns) < 2:
        return None
    rows = _rendered_rows(records, columns, _csv_cell, str)
    lines = [",".join(map(_csv_cell, columns)), *map(",".join, rows), ""]
    text = "\r\n".join(lines)
    breaks = len(lines) - 1
    if (
        text.count(",") != breaks * (len(columns) - 1)
        or text.count("\r") != breaks
        or text.count("\n") != breaks
        or '"' in text
    ):
        return None
    return text
