from fractions import Fraction

import pytest

from scorefeat.table import FeatureTable, as_cell


class TestCells:
    def test_coercions(self):
        assert as_cell(Fraction(3, 2)) == 1.5
        assert as_cell(Fraction(4, 2)) == 2 and isinstance(as_cell(Fraction(4, 2)), int)
        assert as_cell(True) == 1
        assert as_cell(None) is None
        assert as_cell("x") == "x"

    def test_numpy_scalars_become_plain_floats(self):
        import numpy as np

        cell = as_cell(np.float64(0.5))
        assert type(cell) is float and cell == 0.5

    def test_plain_values_pass_through_unchanged(self):
        for value in (10**30, 0.1 + 0.2, "violin"):
            assert as_cell(value) is value


class TestAppend:
    def test_union_extends_with_missing(self):
        t = FeatureTable.from_rows([{"A": 1}, {"B": 2}])
        assert t.columns == ["A", "B"]
        assert t.rows == [[1, None], [None, 2]]

    def test_columns_in_first_seen_order(self):
        t = FeatureTable.from_rows([{"B": 1, "A": 2}, {"C": 3, "A": 4}, {}])
        assert t.columns == ["B", "A", "C"]
        assert t.rows == [[1, 2, None], [None, 4, 3], [None, None, None]]

    def test_cells_coerced(self):
        import numpy as np

        t = FeatureTable.from_rows([
            {"F": Fraction(3, 2), "G": Fraction(4, 2), "T": True, "N": np.float64(0.5)},
        ])
        assert t.rows == [[1.5, 2, 1, 0.5]]
        assert [type(c) for c in t.rows[0]] == [float, int, int, float]

    def test_no_records_no_columns(self):
        t = FeatureTable.from_rows([])
        assert t.columns == [] and t.rows == []

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            FeatureTable(columns=["A", "A"], rows=[])


class TestCsv:
    def test_round_trip(self):
        t = FeatureTable.from_rows([
            {"FileName": "a", "X": 1, "Y": 1.5, "Names": "violin,voice"},
            {"FileName": "b", "X": None, "Y": 0.1 + 0.2, "Q": 'say "hi"'},
        ])
        text = t.to_csv()
        back = FeatureTable.from_csv(text)
        assert back.columns == t.columns
        assert back.rows == t.rows

    def test_missing_cells_empty_string(self):
        t = FeatureTable(columns=["A", "B"], rows=[[None, 1]])
        assert t.to_csv().splitlines()[1] == ",1"

    def test_quoting_of_commas(self):
        t = FeatureTable(columns=["A"], rows=[["x,y"]])
        assert '"x,y"' in t.to_csv()

    def test_row_written_cell_by_cell(self):
        t = FeatureTable.from_rows([
            {"A": 1, "B": None, "C": 0.1 + 0.2, "D": 'say "hi", twice', "E": 1e-20},
        ])
        assert t.to_csv() == 'A,B,C,D,E\n1,,0.30000000000000004,"say ""hi"", twice",1e-20\n'

    def test_shortest_round_trip_floats(self):
        t = FeatureTable(columns=["A"], rows=[[0.1]])
        assert t.to_csv().splitlines()[1] == "0.1"


class TestJsonl:
    def test_one_object_per_row(self):
        import json

        t = FeatureTable(columns=["A", "B"], rows=[[1, None], ["x", 2.5]])
        lines = t.to_jsonl().strip().splitlines()
        assert json.loads(lines[0]) == {"A": 1, "B": None}
        assert json.loads(lines[1]) == {"A": "x", "B": 2.5}


def test_sorted_by():
    t = FeatureTable(columns=["F", "W"], rows=[["b", 2], ["a", 1], ["b", 1]])
    out = t.sorted_by("F", "W")
    assert out.rows == [["a", 1], ["b", 1], ["b", 2]]
