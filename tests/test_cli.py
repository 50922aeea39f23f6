import gc
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import scorefeat
from scorefeat import cli, engine
from scorefeat.cli import load_config, run
from scorefeat.engine import ConfigError, ExtractorConfig, RunReport, extract
from scorefeat.table import FeatureTable
from util import csv_text, musicxml_doc

# Bit-exact feature naming contract, plus the three identity columns.
NAME_GRAMMAR = re.compile(
    r"^(FileName|WindowStart|WindowEnd"
    r"|Score_[A-Za-z0-9_]+"
    r"|Part[A-Z][A-Za-z0-9]*_[A-Za-z0-9_%+]+"
    r"|Sound[A-Z][A-Za-z0-9]*_[A-Za-z0-9_%+]+"
    r"|Family[A-Z][A-Za-z0-9]*_[A-Za-z0-9_%+]+"
    r"|Texture_[A-Z][A-Za-z0-9]*_[A-Z][A-Za-z0-9]*_Ratio)$"
)

VOCAL = musicxml_doc(
    [
        ("Violin I", [[{"step": "C", "octave": 5, "dur": 8, "dynamic": "p"},
                       {"step": "D", "octave": 5, "dur": 8}]]),
        ("Soprano", [[{"step": "E", "octave": 4, "dur": 16,
                       "lyric": ("la", "single")}]]),
    ],
    tempo_words="Allegro", tempo_bpm=96,
)


@pytest.fixture()
def corpus(tmp_path):
    (tmp_path / "a.musicxml").write_bytes(VOCAL)
    (tmp_path / "b.musicxml").write_bytes(
        musicxml_doc([("Oboe", [[{"step": "G", "octave": 4, "dur": 16}]])])
    )
    (tmp_path / "a.harmony.tsv").write_text(
        "measure\tbeat\tlabel\tkey\n1\t0\tI\tC\n", encoding="utf-8"
    )
    return tmp_path


class TestLoadConfig:
    def test_flag_only(self):
        config = load_config(None, {"window_size": 3})
        assert config.extractor.window_size == 3

    def test_flag_overrides_yaml(self, tmp_path):
        y = tmp_path / "config.yaml"
        y.write_text("extract:\n  window_size: 4\n  window_overlap: 1\n")
        config = load_config(y, {"window_size": 3})
        assert config.extractor.window_size == 3
        assert config.extractor.window_overlap == 1

    def test_yaml_verbatim(self, tmp_path):
        y = tmp_path / "config.yaml"
        y.write_text(
            "extract:\n"
            "  features: [core, rhythm]\n"
            "process:\n"
            "  replace_missing_with_zero: ['Score_.*']\n"
            "  merge_groups:\n"
            "    - pattern: 'Part.*_NumNotes'\n"
            "      target: All_NumNotes\n"
            "      stats: [mean, std]\n"
            "output: out.csv\n"
            "format: jsonl\n"
        )
        config = load_config(y, {})
        assert config.extractor.features == ["core", "rhythm"]
        assert config.processor.merge_groups[0].stats == ("mean", "std")
        assert config.output_format == "jsonl"

    def test_type_mismatch_names_key(self, tmp_path):
        y = tmp_path / "config.yaml"
        y.write_text("extract:\n  window_size: abc\n")
        with pytest.raises(ConfigError, match="extract.window_size"):
            load_config(y, {})

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            load_config(None, {"format": "parquet"})

    @pytest.mark.parametrize("name", ["debugg", "Level 5", "basic_format", ""])
    def test_unknown_log_level_rejected(self, name):
        with pytest.raises(ConfigError, match="log_level"):
            load_config(None, {"log_level": name})

    @pytest.mark.parametrize("name", ["debug", "Warn", "CRITICAL", "notset"])
    def test_log_level_names_in_any_case(self, name):
        assert load_config(None, {"log_level": name}).log_level == name


README = Path(__file__).resolve().parent.parent / "README.md"


class TestYamlLoaders:
    def test_the_readme_config_loads_alike_under_both(self, tmp_path, monkeypatch):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML is built without libyaml")
        text = README.read_text("utf-8").split("```yaml\n", 1)[1].split("```", 1)[0]
        y = tmp_path / "config.yaml"
        y.write_text(text, encoding="utf-8")
        config = load_config(y, {})
        assert config.extractor.window_size == 3
        assert config.processor.merge_groups[0].stats == ("mean", "std")
        monkeypatch.delattr(yaml, "CSafeLoader")  # load_config falls back to SafeLoader
        assert load_config(y, {}) == config

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_bad_yaml_is_a_config_error_under_both(self, tmp_path, monkeypatch, libyaml):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML is built without libyaml")
        y = tmp_path / "config.yaml"
        y.write_text("extract: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigError) as caught:
            load_config(y, {})
        assert str(caught.value).startswith(f"bad YAML in {y}")


class TestRun:
    def test_success_exit_zero(self, corpus, capsys):
        out = corpus / "features.csv"
        code = run(["--xml-dir", str(corpus), "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 scores
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["failures"] == 0

    def test_partial_failure_exit_two(self, corpus, tmp_path):
        (corpus / "broken.musicxml").write_bytes(b"<score-partwise><part")
        out = corpus / "features.csv"
        report = tmp_path / "report.jsonl"
        code = run(["--xml-dir", str(corpus), "--output", str(out),
                    "--report", str(report)])
        assert code == 2
        assert len(out.read_text().splitlines()) == 3  # header + 2 good scores
        entries = [json.loads(line) for line in report.read_text().splitlines()]
        failures = [e for e in entries if e["kind"] == "failure"]
        assert len(failures) == 1 and "broken" in failures[0]["path"]

    def test_report_tallies_skipped_elements(self, tmp_path):
        doc = musicxml_doc([("Oboe", [[{"step": "G", "octave": 4, "dur": 16}]])])
        doc = doc.replace(b'<measure number="1">', b'<measure number="1"><print new-system="yes"/>')
        (tmp_path / "a.musicxml").write_bytes(doc)
        report = tmp_path / "report.jsonl"
        code = run(["--xml-dir", str(tmp_path), "--output", str(tmp_path / "f.csv"),
                    "--report", str(report)])
        assert code == 0
        summary = json.loads(report.read_text().splitlines()[-1])
        assert summary["kind"] == "summary" and summary["skipped"] == {"print": 1}

    def test_a_pattern_that_matches_nothing_is_a_run_warning(self, corpus, tmp_path, caplog):
        config = tmp_path / "run.yaml"
        config.write_text("process:\n  drop_columns: ['Nothing_.*']\n", encoding="utf-8")
        report = tmp_path / "report.jsonl"
        code = run(["--config", str(config), "--xml-dir", str(corpus),
                    "--output", str(tmp_path / "f.csv"), "--report", str(report)])
        assert code == 0
        entries = [json.loads(line) for line in report.read_text().splitlines()]
        message = "drop pattern 'Nothing_.*' matched no columns"
        assert {"kind": "warning", "message": message} in entries
        assert message in caplog.text  # still logged too

    def test_output_to_stdout(self, corpus, capsys):
        assert run(["--xml-dir", str(corpus), "--format", "jsonl"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["FileName"] for row in rows] == ["a", "b"]

    def test_bad_flag_exit_one_writes_nothing(self, corpus):
        out = corpus / "features.csv"
        code = run(["--xml-dir", str(corpus), "--output", str(out), "--bogus"])
        assert code == 1
        assert not out.exists()

    def test_missing_input_dir_exit_one(self, tmp_path):
        assert run(["--xml-dir", str(tmp_path / "nope")]) == 1

    def test_unknown_log_level_exit_one_writes_nothing(self, corpus):
        out = corpus / "features.csv"
        assert run(["--xml-dir", str(corpus), "--output", str(out),
                    "--log-level", "debugg"]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("retired", [["--jobs", "0"], ["--jobs", "2"], "yaml"],
                             ids=["jobs-0", "jobs-2", "yaml-parallelism-2"])
    def test_the_retired_parallelism_knob_changes_nothing(self, corpus, tmp_path, caplog,
                                                         retired):
        def outputs(name, *args):
            out, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
            code = run(["--xml-dir", str(corpus), "--output", str(out),
                        "--report", str(report), *args])
            return code, out.read_bytes(), report.read_bytes()

        if retired == "yaml":
            config = tmp_path / "run.yaml"
            config.write_text("extract:\n  parallelism: 2\n", encoding="utf-8")
            retired = ["--config", str(config)]
        with caplog.at_level(logging.WARNING):
            plain = outputs("plain")
            logged = len(caplog.records)
            assert outputs("retired", *retired) == plain
        assert len(caplog.records) == 2 * logged + 1

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        src = str(Path(scorefeat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run(
            [sys.executable, "-m", "scorefeat.cli", "--config", str(tmp_path / "missing.yaml")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert "error:" in done.stderr

    def test_jsonl_output(self, corpus):
        out = corpus / "features.jsonl"
        code = run(["--xml-dir", str(corpus), "--output", str(out), "--format", "jsonl"])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        assert rows[0]["FileName"] == "a"

    def test_every_column_matches_grammar(self, corpus):
        out = corpus / "features.csv"
        assert run(["--xml-dir", str(corpus), "--output", str(out),
                    "--window-size", "1"]) == 0
        header = out.read_text().splitlines()[0]
        table = FeatureTable.from_csv(out.read_text())
        assert header.split(",")[0] == "FileName"
        for column in table.columns:
            assert NAME_GRAMMAR.match(column), f"column {column!r} breaks the grammar"

    def test_csv_round_trips_to_identical_table(self, corpus):
        out = corpus / "features.csv"
        assert run(["--xml-dir", str(corpus), "--output", str(out)]) == 0
        text = out.read_text()
        assert csv_text(FeatureTable.from_csv(text)) == text

    def test_window_flags(self, corpus):
        out = corpus / "w.csv"
        code = run(["--xml-dir", str(corpus), "--output", str(out),
                    "--window-size", "1", "--window-overlap", "0"])
        assert code == 0
        table = FeatureTable.from_csv(out.read_text())
        assert "WindowStart" in table.columns


class TestLogLevel:
    """``run`` as a fresh process runs it: the root logger has no handler,
    so ``run`` sets logging up."""

    UNKNOWN = "unknown config key 'extract.parallelism' ignored"

    def run_bare(self, corpus, tmp_path, yaml_text, *flags):
        """``run``'s exit code, and the root logger's level and handler count
        after it; the root logger is put back as it was."""
        config = tmp_path / "run.yaml"
        config.write_text(yaml_text, encoding="utf-8")
        root = logging.getLogger()
        handlers, level = root.handlers[:], root.level
        for handler in handlers:
            root.removeHandler(handler)
        root.setLevel(logging.WARNING)
        try:
            code = run(["--config", str(config), "--xml-dir", str(corpus),
                        "--output", str(tmp_path / "out.csv"),
                        "--report", str(tmp_path / "report.jsonl"), *flags])
            return code, root.level, len(root.handlers)
        finally:
            for handler in root.handlers[:]:
                root.removeHandler(handler)
            for handler in handlers:
                root.addHandler(handler)
            root.setLevel(level)

    def test_the_flag_silences_config_warnings(self, corpus, tmp_path, capsys):
        code, level, _ = self.run_bare(corpus, tmp_path, "extract:\n  parallelism: 2\n",
                                       "--log-level", "error")
        assert (code, level) == (0, logging.ERROR)
        assert capsys.readouterr().err == ""

    def test_a_config_warning_shows_once_at_the_default_level(self, corpus, tmp_path, capsys):
        code, level, _ = self.run_bare(corpus, tmp_path, "extract:\n  parallelism: 2\n")
        assert (code, level) == (0, logging.WARNING)
        err = capsys.readouterr().err
        assert err.count(self.UNKNOWN) == 1
        assert err.count("\n") == 1

    def test_a_yaml_level_applies_once_the_file_is_read(self, corpus, tmp_path, capsys):
        code, level, _ = self.run_bare(
            corpus, tmp_path, "log_level: error\nextract:\n  parallelism: 2\n", "--jobs", "2")
        assert (code, level) == (0, logging.ERROR)
        err = capsys.readouterr().err
        assert err.count(self.UNKNOWN) == 1  # logged while the file is read
        assert "--jobs" not in err  # logged after

    def test_an_unknown_flag_level_exits_1_and_writes_nothing(self, corpus, tmp_path, capsys):
        code, _, handlers = self.run_bare(corpus, tmp_path, "extract:\n  parallelism: 2\n",
                                          "--log-level", "debugg")
        assert (code, handlers) == (1, 0)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: log_level must be a logging level name, got 'debugg'\n"
        assert not (tmp_path / "out.csv").exists()


class TestCollectorThreshold:
    """``run`` raises the collector's gen0 threshold from before ``extract``
    until the report is written: ``process`` and the writers run under it
    too. ``extract`` itself leaves it alone."""

    @pytest.fixture()
    def threshold(self):
        saved = gc.get_threshold()
        gc.set_threshold(700, 10, 10)
        yield gc.get_threshold()
        gc.set_threshold(*saved)

    @staticmethod
    def _seen_by(owner, name, monkeypatch, effect=None):
        """The thresholds ``owner.name`` is called under, with ``effect``
        raised there instead of the call when it is given."""
        seen, real = [], getattr(owner, name)

        def spy(*args, **kwargs):
            seen.append(gc.get_threshold())
            if effect is not None:
                raise effect
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return seen

    def test_raised_during_extract_and_restored_after_a_success(self, corpus, threshold,
                                                                monkeypatch):
        seen = self._seen_by(cli, "extract", monkeypatch)
        assert run(["--xml-dir", str(corpus), "--output", str(corpus / "f.csv")]) == 0
        assert seen == [(cli.GC_GEN0_THRESHOLD, *threshold[1:])]
        assert gc.get_threshold() == threshold

    def test_raised_during_process_and_to_csv(self, corpus, threshold, monkeypatch):
        processed = self._seen_by(cli, "process", monkeypatch)
        written = self._seen_by(FeatureTable, "to_csv", monkeypatch)
        assert run(["--xml-dir", str(corpus), "--output", str(corpus / "f.csv")]) == 0
        raised = (cli.GC_GEN0_THRESHOLD, *threshold[1:])
        assert (processed, written) == ([raised], [raised])
        assert gc.get_threshold() == threshold

    @pytest.mark.parametrize("owner, name", [(cli, "process"), (FeatureTable, "to_csv")],
                             ids=["process", "to_csv"])
    def test_restored_after_an_error_in_process_or_to_csv(self, corpus, threshold,
                                                          monkeypatch, owner, name):
        seen = self._seen_by(owner, name, monkeypatch, effect=RuntimeError("boom"))
        assert run(["--xml-dir", str(corpus), "--output", str(corpus / "f.csv")]) == 1
        assert seen == [(cli.GC_GEN0_THRESHOLD, *threshold[1:])]
        assert gc.get_threshold() == threshold

    @pytest.mark.parametrize("error", [ConfigError("no"), RuntimeError("boom")],
                             ids=["config-error", "fatal-error"])
    def test_restored_after_an_error_in_extract(self, corpus, threshold, monkeypatch, error):
        seen = self._seen_by(cli, "extract", monkeypatch, effect=error)
        assert run(["--xml-dir", str(corpus), "--output", str(corpus / "f.csv")]) == 1
        assert seen == [(cli.GC_GEN0_THRESHOLD, *threshold[1:])]
        assert gc.get_threshold() == threshold

    def test_restored_after_a_config_error_that_extract_raises(self, corpus, threshold):
        assert run(["--xml-dir", str(corpus), "--features", "nosuchmodule"]) == 1
        assert gc.get_threshold() == threshold

    def test_extract_leaves_it_alone(self, corpus, threshold, monkeypatch):
        seen = self._seen_by(engine, "load_or_parse", monkeypatch)
        extract(ExtractorConfig(), sorted(corpus.glob("*.musicxml")), RunReport())
        assert seen == [threshold] * 2
        assert gc.get_threshold() == threshold
