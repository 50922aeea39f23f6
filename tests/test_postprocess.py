import logging

import pytest

from scorefeat.engine import RunReport
from scorefeat.postprocess import MergeGroup, ProcessError, ProcessorConfig, merge_statistics, process
from util import rows_of, table_of as table


class TestMergeStatistics:
    def test_mean_and_population_std(self):
        out = merge_statistics([8, 4], ["mean", "std"])
        assert out == {"mean": 6.0, "std": 2.0}

    def test_single_element_std_zero(self):
        assert merge_statistics([5], ["std"]) == {"std": 0.0}

    def test_empty_is_missing(self):
        assert merge_statistics([], ["mean", "sum"]) == {"mean": None, "sum": None}

    def test_missing_values_skipped(self):
        assert merge_statistics([8, None, 4], ["mean"])["mean"] == 6.0

    def test_min_max_sum(self):
        out = merge_statistics([3, 1, 2], ["min", "max", "sum"])
        assert out == {"min": 1, "max": 3, "sum": 6}

    @pytest.mark.parametrize("values", [[1, 2], [], [None]])
    def test_unknown_statistic_rejected_with_or_without_values(self, values):
        with pytest.raises(ProcessError, match="unknown statistic 'median'"):
            merge_statistics(values, ["mean", "median"])


class TestProcess:
    def test_merge_example(self):
        t = table(
            ["FileName", "PartViolinI_NumNotes", "PartViolinII_NumNotes"],
            [["a", 8, 4]],
        )
        config = ProcessorConfig(
            merge_groups=[MergeGroup(pattern=r"PartViolin.*_NumNotes",
                                     target="FamilyStringsViolin_NumNotes",
                                     stats=("mean", "std"))]
        )
        out = process(t, config)
        assert out.columns["FamilyStringsViolin_NumNotes_Mean"] == [6.0]
        assert out.columns["FamilyStringsViolin_NumNotes_Std"] == [2.0]
        assert "PartViolinI_NumNotes" not in out.columns

    def test_keep_raw_after_merge(self):
        t = table(["A_1", "A_2"], [[1, 3]])
        config = ProcessorConfig(
            merge_groups=[MergeGroup(pattern=r"A_\d", target="A", stats=("mean",))],
            keep_raw_after_merge=True,
        )
        out = process(t, config)
        assert set(out.columns) == {"A_1", "A_2", "A_Mean"}

    def test_replace_missing_with_zero(self):
        t = table(["FileName", "X"], [["a", None], ["b", 3]])
        out = process(t, ProcessorConfig(replace_missing_with_zero=["X"]))
        assert out.columns["X"] == [0, 3]

    def test_empty_config_identity_modulo_all_missing(self):
        t = table(["FileName", "X", "Dead"], [["a", 1, None], ["b", 2, None]])
        out = process(t, ProcessorConfig())
        assert list(out.columns) == ["FileName", "X"]
        assert out.columns["X"] == [1, 2]
        again = process(out, ProcessorConfig())
        assert list(again.columns) == list(out.columns) and rows_of(again) == rows_of(out)

    def test_row_count_never_changes(self):
        t = table(["FileName", "X"], [["a", 1], ["b", None], ["c", 3]])
        out = process(t, ProcessorConfig(replace_missing_with_zero=[".*"],
                                         drop_columns=["X"]))
        assert out.num_rows == 3

    def test_identity_columns_protected_from_drop(self):
        t = table(["FileName", "WindowStart", "X"], [["a", 1, 2]])
        out = process(t, ProcessorConfig(drop_columns=[".*"]))
        assert list(out.columns) == ["FileName", "WindowStart"]

    def test_merge_non_numeric_errors(self):
        t = table(["Text_A"], [["hello"]])
        config = ProcessorConfig(
            merge_groups=[MergeGroup(pattern="Text_.*", target="T", stats=("mean",))]
        )
        with pytest.raises(ProcessError, match="Text_A"):
            process(t, config)

    def test_zero_match_pattern_warns_not_errors(self):
        t = table(["X"], [[1]])
        out = process(t, ProcessorConfig(drop_columns=["Nothing.*"]))
        assert list(out.columns) == ["X"]

    def test_zero_match_patterns_go_into_the_report_without_a_path(self):
        report = RunReport()
        config = ProcessorConfig(drop_columns=["X", "Nothing.*"], replace_missing_with_zero=["Y"],
                                 merge_groups=[MergeGroup(pattern="Z.*", target="Z")])
        process(table(["X"], [[1]]), config, report)
        assert report.warnings == [
            {"message": "merge pattern 'Z.*' matched no columns"},
            {"message": "drop pattern 'Nothing.*' matched no columns"},
            {"message": "replace pattern 'Y' matched no columns"},
        ]

    def test_dropped_all_missing_columns_go_into_the_report_once(self, caplog):
        caplog.set_level(logging.INFO, logger="scorefeat.postprocess")
        report = RunReport()
        t = table(["FileName", "WindowStart", "Dead", "X", "Gone"],
                  [["a", None, None, 1, None], ["b", None, None, 2, None]])
        out = process(t, ProcessorConfig(), report)
        assert list(out.columns) == ["FileName", "WindowStart", "X"]
        message = "dropped all-missing columns: Dead, Gone"
        assert report.warnings == [{"message": message}]
        assert message in caplog.text  # still logged, at INFO
        process(out, ProcessorConfig(), report)  # nothing left to drop
        assert len(report.warnings) == 1

    def test_patterns_are_anchored(self):
        t = table(["X", "XY"], [[1, 2]])
        out = process(t, ProcessorConfig(drop_columns=["X"]))
        assert list(out.columns) == ["XY"]

    def test_column_order_originals_then_merged(self):
        t = table(["B", "A_1", "A_2", "C"], [[1, 2, 4, 3]])
        config = ProcessorConfig(
            merge_groups=[MergeGroup(pattern=r"A_\d", target="A", stats=("mean",))]
        )
        out = process(t, config)
        assert list(out.columns) == ["B", "C", "A_Mean"]

    def test_full_replace_leaves_no_missing(self):
        t = table(["FileName", "X", "Y", "Z"],
                  [["a", None, 1, None], ["b", 2, None, None]])
        out = process(t, ProcessorConfig(replace_missing_with_zero=[".*"]))
        assert all(cell is not None for cells in out.columns.values() for cell in cells)

    def test_invalid_stats_rejected(self):
        with pytest.raises(ProcessError):
            MergeGroup(pattern="X", target="T", stats=("median",))
        with pytest.raises(ProcessError):
            MergeGroup(pattern="X", target="T", stats=())


class TestProcessEdges:
    def test_zero_rows_drop_every_non_identity_column(self):
        t = table(["FileName", "X", "A_1", "A_2"], [])
        config = ProcessorConfig(
            merge_groups=[MergeGroup(pattern=r"A_\d", target="A", stats=("mean",))]
        )
        out = process(t, config)
        assert list(out.columns) == ["FileName"]
        assert out.num_rows == 0

    def test_rows_survive_dropping_every_column(self):
        t = table(["X", "Y"], [[1, 2], [3, 4], [5, 6]])
        out = process(t, ProcessorConfig(drop_columns=[".*"]))
        assert list(out.columns) == []
        assert out.num_rows == 3

    def test_merged_name_equal_to_kept_column_is_a_duplicate(self):
        t = table(["A_Mean", "A_1", "A_2"], [[7, 1, 3]])
        config = ProcessorConfig(
            merge_groups=[MergeGroup(pattern=r"A_\d", target="A", stats=("mean",))]
        )
        with pytest.raises(ValueError, match="duplicate column names"):
            process(t, config)

    def test_replace_reaches_merged_columns(self):
        t = table(["FileName", "A_1", "A_2"], [["a", None, None], ["b", 1, 3]])
        config = ProcessorConfig(
            merge_groups=[MergeGroup(pattern=r"A_\d", target="A", stats=("mean", "max"))],
            replace_missing_with_zero=["A_Mean"],
        )
        out = process(t, config)
        assert list(out.columns) == ["FileName", "A_Mean", "A_Max"]
        assert out.columns["A_Mean"] == [0, 2.0]
        assert out.columns["A_Max"] == [None, 3]

    def test_column_in_two_groups_feeds_both(self):
        t = table(["A_1", "A_2", "B_1"], [[1, 3, 10]])
        config = ProcessorConfig(merge_groups=[
            MergeGroup(pattern="A_.*", target="A", stats=("mean",)),
            MergeGroup(pattern=".*_1", target="One", stats=("sum", "min")),
        ])
        out = process(t, config)
        assert list(out.columns) == ["A_Mean", "One_Sum", "One_Min"]
        assert rows_of(out) == [[2.0, 11, 1]]

    def test_identity_columns_are_never_merged(self):
        t = table(["FileName", "WindowStart", "WindowEnd", "X"], [["a", 1, 4, 10]])
        config = ProcessorConfig(
            merge_groups=[MergeGroup(pattern=".*", target="All", stats=("sum", "max"))]
        )
        out = process(t, config)
        assert list(out.columns) == ["FileName", "WindowStart", "WindowEnd", "All_Sum", "All_Max"]
        assert rows_of(out) == [["a", 1, 4, 10, 10]]
