"""Tabular feature container: named columns x rows with missing cells.

Cells are numbers, text, or None (missing). CSV output is RFC-4180 quoted
UTF-8 with missing cells as empty strings and floats in shortest round-trip
form, so a written table re-parses to an identical one.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

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


@dataclass
class FeatureTable:
    """One row per score or window, one column per feature."""

    columns: list[str] = field(default_factory=list)
    rows: list[list[Cell]] = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match column count")

    @classmethod
    def from_rows(cls, records: Iterable[Mapping[str, object]]) -> "FeatureTable":
        """One row per record. Columns are the union of the record keys in
        first-seen order; a name a record lacks is a missing cell."""
        records = list(records)
        columns = list(dict.fromkeys(name for record in records for name in record))
        index = {name: i for i, name in enumerate(columns)}
        rows = []
        for record in records:
            row: list[Cell] = [None] * len(columns)
            for name, value in record.items():
                row[index[name]] = as_cell(value)
            rows.append(row)
        return cls(columns=columns, rows=rows)

    def column(self, name: str) -> list[Cell]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def row_mapping(self, i: int) -> dict[str, Cell]:
        return dict(zip(self.columns, self.rows[i]))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)  # None -> empty field, floats by repr
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "FeatureTable":
        reader = csv.reader(io.StringIO(text))
        try:
            columns = next(reader)
        except StopIteration:
            return cls()
        rows = [[_parse_cell(c) for c in row] for row in reader]
        return cls(columns=columns, rows=rows)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(dict(zip(self.columns, row)), ensure_ascii=False)
            for row in self.rows
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def sorted_by(self, *key_columns: str) -> "FeatureTable":
        idx = [self.columns.index(c) for c in key_columns]

        def key(row):
            return tuple((row[i] is None, row[i]) for i in idx)

        return FeatureTable(columns=list(self.columns), rows=sorted(self.rows, key=key))


def _parse_cell(text: str) -> Cell:
    if text == "":
        return None
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text
