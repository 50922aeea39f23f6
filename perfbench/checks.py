"""Output checks whose expectations come from the corpus generator.

Nothing here calls scorefeat: the CSV is read with the standard ``csv``
module and compared with what ``corpus.build_corpus`` knows about each
input. The ``check_*`` functions return a list of problems; an empty list
passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import PurePosixPath

from corpus import Corpus, ScoreFacts

EXPECTED_EXIT_CODE = 2  # partial success: the planted inputs fail
_PART_NOTES = re.compile(r"^Part(?P<part>.+)_NumNotes$")
MERGED_PART = "Violin"  # the config merges PartViolin.*_NumNotes


def expected_windows(num_measures: int, size: int, overlap: int) -> list[tuple[int, int]]:
    """(first, last) measure of each window: a window starts every
    ``size - overlap`` measures until one reaches the last measure."""
    stride = size - overlap
    count = 1 + max(0, math.ceil((num_measures - size) / stride))
    spans = []
    for k in range(count):
        first = 1 + k * stride
        spans.append((first, min(first + size - 1, num_measures)))
    return spans


def expected_units(corpus: Corpus, window: tuple[int, int] | None):
    """(file name, window or None, score facts) for every expected row, in
    the engine's row order: input paths sorted, then window start."""
    units = []
    for facts in sorted(corpus.scores, key=lambda s: s.path):
        if window is None:
            units.append((facts.stem, None, facts))
        else:
            for span in expected_windows(facts.num_measures, *window):
                units.append((facts.stem, span, facts))
    return units


def failed_share(corpus: Corpus) -> float:
    return len(corpus.planted_failures) / corpus.input_files


def _report_entries(report_text: str) -> list[dict]:
    entries = []
    for line in report_text.splitlines():
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            entries.append({"kind": "unreadable", "line": line})
    return entries


def report_summary(report_text: str) -> dict | None:
    return next((e for e in _report_entries(report_text) if e.get("kind") == "summary"), None)


def check_report(corpus: Corpus, report_text: str) -> tuple[list[str], float]:
    """The report must list exactly the planted failures; returns the
    problems and the measured share of input files that failed."""
    problems = []
    failures = set()
    for entry in _report_entries(report_text):
        if entry.get("kind") == "failure":
            failures.add((PurePosixPath(entry["path"]).as_posix(), entry["stage"]))
        elif entry.get("kind") == "unreadable":
            problems.append(f"unreadable report line {entry['line'][:80]!r}")
    summary = report_summary(report_text)
    planted = set(corpus.planted_failures.items())
    if failures != planted:
        problems.append(f"report failures {sorted(failures - planted)} extra, "
                        f"{sorted(planted - failures)} missing")
    if summary is None or summary.get("failures") != len(failures):
        problems.append(f"report summary does not count {len(failures)} failures: {summary}")
    return problems, len({path for path, _stage in failures}) / corpus.input_files


def _cell_number(text: str):
    return None if text == "" else float(text)


def _notes(facts: ScoreFacts, part: str, span) -> int | None:
    counts = facts.notes.get(part)
    if counts is None:
        return None
    if span is None:
        return sum(counts)
    return sum(counts[span[0] - 1 : span[1]])


def check_table(corpus: Corpus, csv_text: str, window: tuple[int, int] | None) -> list[str]:
    """Rows, file names, window bounds and note counts against the corpus."""
    try:
        return _check_table(corpus, csv_text, window)[:20]
    except (KeyError, IndexError, ValueError) as exc:
        return [f"malformed table: {exc!r}"]


def _check_table(corpus: Corpus, csv_text: str, window: tuple[int, int] | None) -> list[str]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows:
        return ["empty CSV"]
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    expected = expected_units(corpus, window)
    problems = []
    if len(body) != len(expected):
        problems.append(f"{len(body)} rows, expected {len(expected)}")
    if "FileName" not in col:
        return problems + ["no FileName column"]
    got_names = {row[col["FileName"]] for row in body}
    want_names = {stem for stem, _span, _facts in expected}
    if got_names != want_names:
        problems.append(
            f"FileName set differs: extra {sorted(got_names - want_names)}, "
            f"missing {sorted(want_names - got_names)}"
        )
    part_columns = {m["part"]: i for name, i in col.items() if (m := _PART_NOTES.match(name))}
    for name in part_columns:
        if name.startswith(MERGED_PART):
            problems.append(f"column Part{name}_NumNotes should have been merged")
    mean_col = col.get(f"Sound{MERGED_PART}_NumNotes_Mean")
    std_col = col.get(f"Sound{MERGED_PART}_NumNotes_Std")
    if mean_col is None or std_col is None:
        problems.append(f"merged Sound{MERGED_PART}_NumNotes columns missing")

    for row, (stem, span, facts) in zip(body, expected):
        where = f"row {stem}" + (f" window {span}" if span else "")
        if row[col["FileName"]] != stem:
            problems.append(f"{where}: FileName {row[col['FileName']]!r}")
            continue
        if span is not None:
            got_span = (row[col["WindowStart"]], row[col["WindowEnd"]])
            if got_span != (str(span[0]), str(span[1])):
                problems.append(f"{where}: window columns {got_span}")
        for part, i in part_columns.items():
            want = _notes(facts, part, span)
            got = _cell_number(row[i])
            if got != want:
                problems.append(f"{where}: Part{part}_NumNotes {row[i]!r}, expected {want}")
        merged = [n for part in facts.notes if part.startswith(MERGED_PART)
                  if (n := _notes(facts, part, span)) is not None]
        if merged and mean_col is not None and std_col is not None:
            mean = sum(merged) / len(merged)
            std = math.sqrt(sum((n - mean) ** 2 for n in merged) / len(merged))
            got_mean, got_std = _cell_number(row[mean_col]), _cell_number(row[std_col])
            if got_mean is None or got_std is None or not (
                math.isclose(got_mean, mean, abs_tol=1e-9)
                and math.isclose(got_std, std, abs_tol=1e-9)
            ):
                problems.append(f"{where}: violin NumNotes mean/std {got_mean}/{got_std}, "
                                f"expected {mean}/{std}")
        missing_parts = set(facts.notes) - set(part_columns) - {
            p for p in facts.notes if p.startswith(MERGED_PART)
        }
        if missing_parts:
            problems.append(f"{where}: no NumNotes column for parts {sorted(missing_parts)}")
    return problems
