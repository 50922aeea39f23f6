import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scorefeat.postprocess import MergeGroup, ProcessorConfig, process
from scorefeat.table import FeatureTable, as_cell
from util import csv_text, jsonl_text, rows_of, table_of


def reference_from_rows(records) -> tuple[list[str], list[list]]:
    """(column names, rows) of the row-major table the column store replaced:
    every record becomes one row, every cell placed through a column index."""
    records = list(records)
    columns = list(dict.fromkeys(name for record in records for name in record))
    index = {name: i for i, name in enumerate(columns)}
    rows = []
    for record in records:
        row = [None] * len(columns)
        for name, value in record.items():
            row[index[name]] = as_cell(value)
        rows.append(row)
    return columns, rows


_NAMES = st.sampled_from(["FileName", "A", "B", "C", "Part_X", "Sound_Y", "é,\"q\""])
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=False),
    st.text(alphabet='ab1.,"é\n -', max_size=8),
    st.fractions(max_denominator=12),
    st.integers(-1000, 1000).map(np.int64),
    st.floats(-1e6, 1e6).map(np.float64),
)
# Cells a CSV reads back as they were written: text that is neither empty
# nor a number (no digits, and no letters of "nan" or "inf").
_CSV_VALUES = st.one_of(
    st.none(),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=False),
    st.text(alphabet='abcxyz ,"\'\né', min_size=1, max_size=8),
)
_RECORDS = st.lists(st.dictionaries(_NAMES, _VALUES, max_size=6), max_size=8)


class TestCells:
    def test_coercions(self):
        assert as_cell(Fraction(3, 2)) == 1.5
        assert as_cell(Fraction(4, 2)) == 2 and isinstance(as_cell(Fraction(4, 2)), int)
        assert as_cell(True) == 1
        assert as_cell(None) is None
        assert as_cell("x") == "x"

    def test_numpy_scalars_become_plain_floats(self):
        cell = as_cell(np.float64(0.5))
        assert type(cell) is float and cell == 0.5

    def test_plain_values_pass_through_unchanged(self):
        for value in (10**30, 0.1 + 0.2, "violin"):
            assert as_cell(value) is value


class TestAppend:
    def test_union_extends_with_missing(self):
        t = FeatureTable.from_rows([{"A": 1}, {"B": 2}])
        assert t.columns == {"A": [1, None], "B": [None, 2]}
        assert t.num_rows == 2

    def test_columns_in_first_seen_order(self):
        t = FeatureTable.from_rows([{"B": 1, "A": 2}, {"C": 3, "A": 4}, {}])
        assert list(t.columns) == ["B", "A", "C"]
        assert rows_of(t) == [[1, 2, None], [None, 4, 3], [None, None, None]]

    def test_cells_coerced(self):
        t = FeatureTable.from_rows([
            {"F": Fraction(3, 2), "G": Fraction(4, 2), "T": True, "N": np.float64(0.5)},
        ])
        assert rows_of(t) == [[1.5, 2, 1, 0.5]]
        assert [type(c) for c in rows_of(t)[0]] == [float, int, int, float]

    def test_no_records_no_columns(self):
        t = FeatureTable.from_rows([])
        assert t.columns == {} and t.num_rows == 0

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate column names"):
            FeatureTable.from_csv("A,B,A\n1,2,3\n")

    def test_column_lengths_must_match_row_count(self):
        with pytest.raises(ValueError):
            FeatureTable({"A": [1, 2], "B": [3]}, 2)

    @given(_RECORDS)
    def test_same_table_as_the_row_major_reference(self, records):
        columns, rows = reference_from_rows(records)
        t = FeatureTable.from_rows(iter(records))
        assert list(t.columns) == columns
        assert t.num_rows == len(records)
        assert rows_of(t) == rows
        assert [[type(c) for c in row] for row in rows_of(t)] == [
            [type(c) for c in row] for row in rows]


class TestCsv:
    def test_round_trip(self):
        t = FeatureTable.from_rows([
            {"FileName": "a", "X": 1, "Y": 1.5, "Names": "violin,voice"},
            {"FileName": "b", "X": None, "Y": 0.1 + 0.2, "Q": 'say "hi"'},
        ])
        text = csv_text(t)
        back = FeatureTable.from_csv(text)
        assert list(back.columns) == list(t.columns)
        assert rows_of(back) == rows_of(t)

    @given(st.lists(st.dictionaries(_NAMES, _CSV_VALUES, max_size=6), max_size=8))
    def test_csv_round_trips(self, records):
        t = FeatureTable.from_rows(records)
        back = FeatureTable.from_csv(csv_text(t))
        assert list(back.columns) == list(t.columns) and back == t
        assert csv_text(back) == csv_text(t)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="row width"):
            FeatureTable.from_csv("A,B\n1\n")

    def test_missing_cells_empty_string(self):
        t = table_of(["A", "B"], [[None, 1]])
        assert csv_text(t).splitlines()[1] == ",1"

    def test_quoting_of_commas(self):
        t = table_of(["A"], [["x,y"]])
        assert '"x,y"' in csv_text(t)

    def test_row_written_cell_by_cell(self):
        t = FeatureTable.from_rows([
            {"A": 1, "B": None, "C": 0.1 + 0.2, "D": 'say "hi", twice', "E": 1e-20},
        ])
        assert csv_text(t) == 'A,B,C,D,E\n1,,0.30000000000000004,"say ""hi"", twice",1e-20\n'

    def test_shortest_round_trip_floats(self):
        t = table_of(["A"], [[0.1]])
        assert csv_text(t).splitlines()[1] == "0.1"


class TestJsonl:
    def test_one_object_per_row(self):
        t = table_of(["A", "B"], [[1, None], ["x", 2.5]])
        lines = jsonl_text(t).strip().splitlines()
        assert json.loads(lines[0]) == {"A": 1, "B": None}
        assert json.loads(lines[1]) == {"A": "x", "B": 2.5}

    def test_rows_without_columns_are_empty_objects(self):
        assert jsonl_text(table_of([], [[], []])) == "{}\n{}\n"


class TestProcessInput:
    @given(_RECORDS)
    def test_process_leaves_its_input_unchanged(self, records):
        t = FeatureTable.from_rows(  # the merged columns A and B must be numeric
            {name: value for name, value in record.items()
             if type(value) is not str or name not in ("A", "B")} for record in records)
        before = (list(t.columns), rows_of(t), t.num_rows)
        process(t, ProcessorConfig(
            merge_groups=[MergeGroup(pattern="[AB]", target="AB", stats=("mean", "max"))],
            drop_columns=["C"], replace_missing_with_zero=[".*"]))
        assert (list(t.columns), rows_of(t), t.num_rows) == before

