"""Tests of the benchmark itself: corpus determinism, the output checks and
the self-time arithmetic. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import csv
import io
import random
import sys
from pathlib import Path

import pytest

import checks
import tracing
from corpus import HARMONY_DIR, XML_DIR, build_corpus, musicxml_score
from run import FEATURES, PROCESS

WINDOW = (4, 2)


def test_same_seed_gives_identical_files():
    a, b = build_corpus(7, 4, 2), build_corpus(7, 4, 2)
    assert a.files == b.files
    assert a.scores == b.scores
    other = build_corpus(8, 4, 2)
    assert other.files.keys() == a.files.keys()
    assert other.files != a.files


def test_subset_corpus_shares_its_files():
    small, large = build_corpus(3, 4, 0), build_corpus(3, 6, 2)
    assert all(large.files[path] == data for path, data in small.files.items())


def test_musicxml_matches_the_test_fixture():
    tests_dir = str(Path(__file__).resolve().parent.parent / "tests")
    sys.path.insert(0, tests_dir)
    try:
        util = pytest.importorskip("util")
    finally:
        sys.path.remove(tests_dir)
    for seed in range(3):
        doc, _notes = musicxml_score(random.Random(seed), 12)
        assert doc == util.corpus_musicxml(random.Random(seed), 12)


@pytest.mark.parametrize("measures, windows", [
    (50, [(1, 4), (3, 6)] + [(s, s + 3) for s in range(5, 48, 2)]),
    (51, [(s, s + 3) for s in range(1, 48, 2)] + [(49, 51)]),
    (3, [(1, 3)]),
    (4, [(1, 4)]),
    (5, [(1, 4), (3, 5)]),
])
def test_expected_windows_cover_every_measure(measures, windows):
    assert checks.expected_windows(measures, *WINDOW) == windows


def _run_cli(tmp_path, corpus, window):
    """The real CLI over ``corpus``: returns (CSV text, report text)."""
    from scorefeat import cli

    corpus.write(tmp_path)
    args = ["--xml-dir", str(tmp_path / XML_DIR), "--harmony-dir", str(tmp_path / HARMONY_DIR),
            "--features", ",".join(FEATURES), "--jobs", "1",
            "--output", str(tmp_path / "out.csv"), "--report", str(tmp_path / "report.jsonl")]
    if window:
        args += ["--window-size", str(window[0]), "--window-overlap", str(window[1])]
    config = tmp_path / "process.yaml"
    import yaml

    config.write_text(yaml.safe_dump({"process": PROCESS}))
    assert cli.run(["--config", str(config), *args]) == checks.EXPECTED_EXIT_CODE
    report = (tmp_path / "report.jsonl").read_text()
    return (tmp_path / "out.csv").read_text(), report.replace(str(tmp_path) + "/", "")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    corpus = build_corpus(11, 2, 1)
    csv_text, report = _run_cli(tmp_path_factory.mktemp("run"), corpus, None)
    return corpus, csv_text, report


def test_checks_accept_the_real_output(small_run):
    corpus, csv_text, report = small_run
    assert checks.check_table(corpus, csv_text, None) == []
    problems, share = checks.check_report(corpus, report)
    assert problems == []
    assert share == checks.failed_share(corpus)


def test_checks_accept_real_windowed_output(tmp_path):
    corpus = build_corpus(12, 2, 0)
    csv_text, _report = _run_cli(tmp_path, corpus, WINDOW)
    assert checks.check_table(corpus, csv_text, WINDOW) == []


def _edit(csv_text, edit):
    rows = list(csv.reader(io.StringIO(csv_text)))
    edit(rows)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_check_rejects_a_corrupted_note_count(small_run):
    corpus, csv_text, _report = small_run

    def corrupt(rows):
        i = rows[0].index("PartViolaI_NumNotes")
        rows[1][i] = str(int(rows[1][i]) + 1)

    problems = checks.check_table(corpus, _edit(csv_text, corrupt), None)
    assert len(problems) == 1 and "PartViolaI_NumNotes" in problems[0]


def test_check_rejects_a_missing_row(small_run):
    corpus, csv_text, _report = small_run
    problems = checks.check_table(corpus, _edit(csv_text, lambda rows: rows.pop(2)), None)
    assert any("rows, expected" in p for p in problems)
    assert any("FileName set differs" in p for p in problems)


def test_check_rejects_a_missing_failure(small_run):
    corpus, _csv, report = small_run
    kept = [line for line in report.splitlines() if "broken_not_smf" not in line]
    problems, _share = checks.check_report(corpus, "\n".join(kept))
    assert problems


def _span(tid, span_id, name, parent, start, end):
    return (tid, span_id, name, parent, start, end, None)


def test_self_times_serial_nesting():
    spans = [
        _span(1, 1, "root", 0, 0.0, 10.0),
        _span(1, 2, "a", 1, 1.0, 4.0),
        _span(1, 3, "b", 2, 2.0, 3.0),
        _span(1, 4, "c", 1, 5.0, 9.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})


def test_self_times_share_overlapping_threads():
    spans = [
        _span(1, 1, "root", 0, 0.0, 10.0),
        _span(1, 2, "extract", 1, 1.0, 9.0),
        _span(2, 3, "work", 2, 2.0, 6.0),
        _span(3, 4, "work", 2, 4.0, 8.0),
    ]
    own = tracing.self_times(spans)
    assert sum(own.values()) == pytest.approx(10.0)
    assert own[3] == pytest.approx(2.0 + 1.0)
    assert own[4] == pytest.approx(1.0 + 2.0)
    assert own[2] == pytest.approx(1.0 + 1.0)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_metrics_benchmark_json_declares(trace, section):
    import json
    import subprocess

    root = Path(__file__).resolve().parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "window", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in declared[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
