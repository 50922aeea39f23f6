"""Tabular feature container: named columns of cells, stored column by column.

Cells are numbers, text, or None (missing). CSV output is RFC-4180 quoted
UTF-8 with missing cells as empty strings and floats in shortest round-trip
form, so a written table re-parses to an identical one.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import field
from fractions import Fraction
from typing import Iterable, Mapping, TextIO, Union

from .records import record

Cell = Union[int, float, str, None]

IDENTITY_COLUMNS = ("FileName", "WindowStart", "WindowEnd")

_INT_RE = re.compile(r"^-?\d+$")
_PLAIN_CELL_TYPES = frozenset((int, float, str))


def as_cell(value) -> Cell:
    """Coerce a feature value to a plain cell (int, float, str, or None)."""
    if value is None or type(value) in _PLAIN_CELL_TYPES:
        return value  # the very object the checks below would return
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else float(value)
    try:
        return float(value)  # also float subclasses, such as numpy's float64
    except (TypeError, ValueError):
        raise TypeError(f"unsupported cell value {value!r}") from None


@record
class FeatureTable:
    """One row per score or window, one column per feature: ``columns`` maps
    each name, in first-seen order, to its ``num_rows`` cells."""

    columns: dict[str, list[Cell]] = field(default_factory=dict)
    num_rows: int = 0

    def __post_init__(self):
        if any(len(cells) != self.num_rows for cells in self.columns.values()):
            raise ValueError("column length does not match row count")

    @classmethod
    def from_rows(cls, records: Iterable[Mapping[str, object]]) -> "FeatureTable":
        """One row per record. Columns are the union of the record keys in
        first-seen order; a name a record lacks is a missing cell."""
        records = list(records)
        columns: dict[str, list[Cell]] = {}
        for i, record in enumerate(records):
            for name, value in record.items():
                cells = columns.get(name)
                if cells is None:  # made at full length, so no column list regrows
                    cells = columns[name] = [None] * len(records)
                cells[i] = value if type(value) in _PLAIN_CELL_TYPES else as_cell(value)
        return cls(columns, len(records))

    def _rows(self) -> Iterable[tuple[Cell, ...]]:
        return zip(*self.columns.values()) if self.columns else [()] * self.num_rows

    def to_csv(self, stream: TextIO) -> None:
        """Write the table to ``stream`` as CSV, one row at a time."""
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self._rows())  # None -> empty field, floats by repr

    @classmethod
    def from_csv(cls, text: str) -> "FeatureTable":
        reader = csv.reader(io.StringIO(text))
        names = next(reader, [])
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        rows = list(reader)
        if any(len(row) != len(names) for row in rows):
            raise ValueError("row width does not match column count")
        cells = zip(*rows) if rows else [()] * len(names)
        return cls({name: list(map(_parse_cell, column)) for name, column in zip(names, cells)},
                   len(rows))

    def to_jsonl(self, stream: TextIO) -> None:
        """Write the table to ``stream`` as JSON lines, one object per row."""
        names = list(self.columns)
        stream.writelines(json.dumps(dict(zip(names, row)), ensure_ascii=False) + "\n"
                          for row in self._rows())


def _parse_cell(text: str) -> Cell:
    if text == "":
        return None
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text
