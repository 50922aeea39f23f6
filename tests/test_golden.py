"""The CSV and JSONL of the benchmark corpus, pinned byte for byte.

The corpus, its config and its expected exit code are ``perfbench``'s, at
seed 59, read and never changed here; the CSV digests are the ``csv_sha256``
its runs report, and the JSONL digest is of the same run written with
``--format jsonl``. A change that moves any cell, column or row of the table
changes a digest, so it has to be declared and the digests renewed with it.
The cold run's report and the cache entries it writes are pinned too: a
change to a parser or to the cache that moves a warning, a tally or a
stored byte changes one of their digests.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from scorefeat import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 59
WHOLE_SCORE_SHA256 = "4926759537857247810b590c70b5cf34ea9a5414e1904b5c75da48b16c497a28"
WINDOWED_SHA256 = "91910b464402ad4af63c4a80b21c03244a87073b19092e15ff2d312a2a800941"
WINDOWED_JSONL_SHA256 = "ab1910353311532a657a2ebcc7f59938d57ead66c29fefab97a796c72683bdbe"
COLD_REPORT_SHA256 = "1ce7a06090e3248b1c7d0e63cd22e07b07fc17c419765fca888c193a398efc5b"
COLD_CACHE_SHA256 = "aaf9fe6706f5dfad82f8e4e8ba1579b7ee458e02d28cb2cc8364df1e011289df"


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``corpus``, ``checks`` and ``run`` modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return tuple(importlib.import_module(name) for name in ("corpus", "checks", "run"))
    finally:
        sys.path.remove(str(PERFBENCH))


def _runs(bench, workdir: Path, workload, runs: int, fmt: str = "csv") -> list[tuple[str, int]]:
    """(output sha256, cache hits) of ``runs`` back-to-back CLI runs over the
    workload's corpus in ``workdir``, the current directory, sharing one
    cache directory; the output is written in format ``fmt``."""
    corpus, checks, run = bench
    corpus.build_corpus(SEED, workload.n_xml, workload.n_midi).write(workdir)
    config = run.write_config(workdir, workload)
    output = workdir / "out" / f"features.{fmt}"
    out = []
    for _ in range(runs):
        args = ["--config", str(config), "--report", "report.jsonl",
                "--format", fmt, "--output", str(output)]
        assert cli.run(args) == checks.EXPECTED_EXIT_CODE
        digest = hashlib.sha256(output.read_bytes()).hexdigest()
        summary = json.loads((workdir / "report.jsonl").read_text("utf-8").splitlines()[-1])
        out.append((digest, summary["cache_hits"]))
    return out


# perfbench's configs still write the retired ``parallelism`` key: an old
# config gives the same bytes whatever it says.
@pytest.mark.parametrize("parallelism", [1, 2])
def test_whole_score_csv_cold_then_warm(bench, tmp_path, monkeypatch, parallelism):
    monkeypatch.chdir(tmp_path)  # the config's paths are relative to the run's directory
    workload = replace(bench[2].WORKLOADS["cold"], parallelism=parallelism)
    (cold, cold_hits), (warm, warm_hits) = _runs(bench, tmp_path, workload, 2)
    assert cold_hits == 0 and warm_hits > 0
    assert cold == warm == WHOLE_SCORE_SHA256


def test_windowed_csv(bench, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = bench[2].WORKLOADS["window"]
    digests = [digest for digest, _ in _runs(bench, tmp_path, workload, 2)]
    assert digests == [WINDOWED_SHA256] * 2


def test_windowed_jsonl(bench, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = bench[2].WORKLOADS["window"]
    [(digest, _hits)] = _runs(bench, tmp_path, workload, 1, fmt="jsonl")
    assert digest == WINDOWED_JSONL_SHA256


def test_cold_report_and_cache_entries(bench, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = bench[2].WORKLOADS["cold"]
    [(_digest, hits)] = _runs(bench, tmp_path, workload, 1)
    assert hits == 0
    report = hashlib.sha256((tmp_path / "report.jsonl").read_bytes()).hexdigest()
    cache = tmp_path / "cache"
    entries = hashlib.sha256()
    for path in sorted(cache.rglob("*.score"), key=lambda p: p.relative_to(cache).as_posix()):
        entries.update(path.relative_to(cache).as_posix().encode() + b"\0")
        entries.update(path.read_bytes())
    assert (report, entries.hexdigest()) == (COLD_REPORT_SHA256, COLD_CACHE_SHA256)
