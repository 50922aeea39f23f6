import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scorefeat import musicxml as musicxml_parser
from scorefeat.cache import cache_key, cache_path, load_score, store_score
from scorefeat.engine import (
    ConfigError,
    ExtractorConfig,
    RunReport,
    extract,
    load_or_parse,
    plan_windows,
    run_hooks,
)
from scorefeat.registry import register_hook
from scorefeat.table import IDENTITY_COLUMNS
from util import musicxml_doc, random_musicxml

SIMPLE = musicxml_doc([("Violin", [[{"step": "C", "octave": 4, "dur": 16}],
                                   [{"step": "D", "octave": 4, "dur": 16}]])])

GRACED = musicxml_doc(
    [("Violin", [[{"step": "D", "octave": 5, "dur": 0, "grace": True},
                  {"step": "C", "octave": 4, "dur": 16}]])]
)


class TestPlanWindows:
    def test_fig2_shape(self):
        windows = plan_windows(10, 3, 2)
        assert windows == [(s, 3) for s in range(1, 9)]

    def test_single_window_covers_all(self):
        assert plan_windows(3, 3, 2) == [(1, 3)]

    def test_clipped_to_score(self):
        assert plan_windows(5, 10, 0) == [(1, 5)]

    def test_invalid_overlap(self):
        with pytest.raises(ConfigError):
            plan_windows(10, 3, 3)

    @given(st.integers(1, 60), st.integers(1, 12), st.integers(0, 11))
    def test_coverage_and_overlap(self, n, size, overlap):
        if overlap >= size:
            return
        windows = plan_windows(n, size, overlap)
        covered = set()
        previous = None
        for start, length in windows:
            assert 1 <= start <= n
            assert length == min(size, n - start + 1)
            span = set(range(start, start + length))
            assert span - covered, "every window adds a new measure"
            if previous is not None:
                shared = previous & span
                if start + size - 1 <= n:
                    assert len(shared) == overlap
            covered |= span
            previous = span
        assert covered == set(range(1, n + 1))


class TestCache:
    def test_key_stability(self):
        assert cache_key(b"abc", "musicxml", "1") == cache_key(b"abc", "musicxml", "1")

    def test_key_sensitivity(self):
        base = cache_key(b"abc", "musicxml", "1")
        assert cache_key(b"abd", "musicxml", "1") != base
        assert cache_key(b"abc", "musicxml", "2") != base
        assert cache_key(b"abc", "midi", "1") != base

    def test_first_parse_writes_one_entry(self, tmp_path):
        f = tmp_path / "a.musicxml"
        f.write_bytes(SIMPLE)
        config = ExtractorConfig(cache_dir=tmp_path / "cache")
        report = RunReport()
        load_or_parse(f, config, report)
        entries = list((tmp_path / "cache").rglob("*.score"))
        assert len(entries) == 1
        assert report.parsed == 1 and report.cache_writes == 1

    def test_second_call_skips_parser(self, tmp_path):
        f = tmp_path / "a.musicxml"
        f.write_bytes(SIMPLE)
        config = ExtractorConfig(cache_dir=tmp_path / "cache")
        first = load_or_parse(f, config, RunReport())
        report = RunReport()
        second = load_or_parse(f, config, report)
        assert report.parsed == 0 and report.cache_hits == 1
        assert first == second

    def test_truncated_entry_reparsed(self, tmp_path):
        f = tmp_path / "a.musicxml"
        f.write_bytes(SIMPLE)
        config = ExtractorConfig(cache_dir=tmp_path / "cache")
        load_or_parse(f, config, RunReport())
        key = cache_key(SIMPLE, "musicxml", musicxml_parser.PARSER_VERSION)
        entry = cache_path(config.cache_dir, key)
        entry.write_bytes(entry.read_bytes()[:10])
        report = RunReport()
        score = load_or_parse(f, config, report)
        assert report.parsed == 1  # fault injected, reparse happened
        assert score.num_measures == 2
        assert load_score(config.cache_dir, key, []) == score  # rewritten

    def test_entry_of_older_format_is_a_miss(self, tmp_path):
        import pickle

        from scorefeat.musicxml import parse_musicxml

        score, _ = parse_musicxml(SIMPLE)
        key = cache_key(SIMPLE, "musicxml", musicxml_parser.PARSER_VERSION)
        entry = cache_path(tmp_path, key)
        entry.parent.mkdir(parents=True)
        entry.write_bytes(b"MSF1" + pickle.dumps(score))
        assert load_score(tmp_path, key, []) is None

    def test_unsupported_suffix_rejected_despite_cached_bytes(self, tmp_path):
        config = ExtractorConfig(cache_dir=tmp_path / "cache")
        (tmp_path / "a.musicxml").write_bytes(SIMPLE)
        load_or_parse(tmp_path / "a.musicxml", config, RunReport())
        (tmp_path / "a.txt").write_bytes(SIMPLE)
        report = RunReport()
        with pytest.raises(ConfigError):
            load_or_parse(tmp_path / "a.txt", config, report)
        assert report.cache_hits == 0

    def test_store_is_atomic_layout(self, tmp_path):
        key = cache_key(b"x", "musicxml", "1")
        from scorefeat.musicxml import parse_musicxml

        score, _ = parse_musicxml(SIMPLE)
        store_score(tmp_path, key, score)
        assert cache_path(tmp_path, key).parent.name == key[:2]
        assert not list(tmp_path.rglob("*.tmp"))


class TestHooks:
    def test_empty_hooks_identity(self):
        from scorefeat.musicxml import parse_musicxml

        score, _ = parse_musicxml(SIMPLE)
        assert run_hooks(score, []) is score

    def test_composition_order(self):
        calls = []

        def f(s):
            calls.append("f")
            return s

        def g(s):
            calls.append("g")
            return s

        from scorefeat.musicxml import parse_musicxml

        score, _ = parse_musicxml(SIMPLE)
        run_hooks(score, [f, g])
        assert calls == ["f", "g"]

    def test_grace_stripping_hook_is_cached(self, tmp_path):
        from dataclasses import replace

        def drop_graces(score):
            parts = tuple(
                replace(p, events=tuple(e for e in p.events if not e.grace))
                for p in score.parts
            )
            return replace(score, parts=parts)

        register_hook("drop_graces", drop_graces)
        f = tmp_path / "a.musicxml"
        f.write_bytes(GRACED)
        config = ExtractorConfig(cache_dir=tmp_path / "cache", hooks=["drop_graces"])
        load_or_parse(f, config, RunReport())
        key = cache_key(GRACED, "musicxml", musicxml_parser.PARSER_VERSION)
        cached = load_score(config.cache_dir, key, ["drop_graces"])
        assert all(not e.grace for p in cached.parts for e in p.events)

    def test_unhooked_run_misses_hooked_entry(self, tmp_path):
        from dataclasses import replace

        def drop_graces(score):
            parts = tuple(
                replace(p, events=tuple(e for e in p.events if not e.grace))
                for p in score.parts
            )
            return replace(score, parts=parts)

        register_hook("drop_graces", drop_graces)
        f = tmp_path / "a.musicxml"
        f.write_bytes(GRACED)
        cache_dir = tmp_path / "cache"
        load_or_parse(f, ExtractorConfig(cache_dir=cache_dir, hooks=["drop_graces"]))
        report = RunReport()
        score = load_or_parse(f, ExtractorConfig(cache_dir=cache_dir), report)
        assert report.parsed == 1 and report.cache_hits == 0
        assert any(e.grace for p in score.parts for e in p.events)

    def test_hook_failure_is_per_file(self, tmp_path):
        def boom(score):
            raise RuntimeError("bad hook")

        register_hook("boom", boom)
        good = tmp_path / "good.musicxml"
        good.write_bytes(SIMPLE)
        config = ExtractorConfig(hooks=["boom"])
        report = RunReport()
        table = extract(config, [good], report=report)
        assert table.rows == []
        assert report.failures and report.failures[0]["stage"] == "parse"

    def test_unknown_hook_is_config_error(self):
        with pytest.raises(ConfigError):
            ExtractorConfig(hooks=["never_registered"]).validate()


class TestExtract:
    def _write(self, tmp_path, name, data):
        p = tmp_path / name
        p.write_bytes(data)
        return p

    def test_one_row_per_score(self, tmp_path):
        paths = [self._write(tmp_path, f"s{i}.musicxml", SIMPLE) for i in range(2)]
        table = extract(ExtractorConfig(), paths)
        assert len(table.rows) == 2
        assert table.column("FileName") == ["s0", "s1"]

    def test_cache_hit_keeps_its_own_file_name(self, tmp_path):
        paths = [self._write(tmp_path, f"{stem}.musicxml", SIMPLE) for stem in "ab"]
        report = RunReport()
        config = ExtractorConfig(cache_dir=tmp_path / "cache", parallelism=1)
        table = extract(config, paths, report=report)
        assert report.cache_hits == 1
        assert table.column("FileName") == ["a", "b"]

    def test_windowed_rows(self, tmp_path):
        measures = [[{"step": "C", "octave": 4, "dur": 16}] for _ in range(10)]
        path = self._write(tmp_path, "w.musicxml", musicxml_doc([("Violin", measures)]))
        table = extract(ExtractorConfig(window_size=3, window_overlap=2), [path])
        assert len(table.rows) == 8
        assert table.column("WindowStart") == list(range(1, 9))
        assert table.column("WindowEnd") == [min(s + 2, 10) for s in range(1, 9)]

    def test_column_union_with_missing(self, tmp_path):
        vocal = musicxml_doc(
            [("Soprano", [[{"step": "C", "octave": 5, "dur": 16,
                            "lyric": ("la", "single")}]])]
        )
        a = self._write(tmp_path, "a.musicxml", SIMPLE)
        b = self._write(tmp_path, "b.musicxml", vocal)
        table = extract(ExtractorConfig(), [a, b])
        col = table.column("PartSopranoI_NumSyllables")
        assert col[0] is None and col[1] == 1

    def test_partial_failure(self, tmp_path):
        good = self._write(tmp_path, "good.musicxml", SIMPLE)
        bad = self._write(tmp_path, "bad.musicxml", b"<score-partwise><part")
        report = RunReport()
        table = extract(ExtractorConfig(), [good, bad], report=report)
        assert len(table.rows) == 1
        assert len(report.failures) == 1
        assert report.failures[0]["stage"] == "parse"

    def test_harmony_sidecar_attached_by_stem(self, tmp_path):
        path = self._write(tmp_path, "aria.musicxml", SIMPLE)
        (tmp_path / "aria.harmony.tsv").write_text(
            "measure\tbeat\tlabel\tkey\n1\t0\tI\tC\n2\t0\tV\tC\n"
        )
        table = extract(ExtractorConfig(), [path])
        row = table.row_mapping(0)
        assert row["Score_NumAnnotations"] == 2
        assert row["Score_Function_T_Count"] == 1

    def test_bad_harmony_reported_score_kept(self, tmp_path):
        path = self._write(tmp_path, "aria.musicxml", SIMPLE)
        (tmp_path / "aria.harmony.tsv").write_text("not\ta\theader\n1\t2\t3\n")
        report = RunReport()
        table = extract(ExtractorConfig(), [path], report=report)
        assert len(table.rows) == 1
        assert report.failures[0]["stage"] == "harmony"

    def test_parallel_serial_equivalence(self, tmp_path):
        rng = random.Random(77)
        paths = []
        for i in range(8):
            doc, _ = random_musicxml(rng)
            paths.append(self._write(tmp_path, f"r{i}.musicxml", doc))
        serial = extract(ExtractorConfig(parallelism=1), paths)
        parallel = extract(ExtractorConfig(parallelism=8), paths)
        assert serial.columns == parallel.columns
        assert serial.rows == parallel.rows

    def test_cached_equals_uncached(self, tmp_path):
        rng = random.Random(78)
        doc, _ = random_musicxml(rng)
        path = self._write(tmp_path, "c.musicxml", doc)
        cold = extract(ExtractorConfig(cache_dir=tmp_path / "cache"), [path])
        warm = extract(ExtractorConfig(cache_dir=tmp_path / "cache"), [path])
        plain = extract(ExtractorConfig(), [path])
        assert cold.to_csv() == warm.to_csv() == plain.to_csv()

    def test_unknown_feature_rejected(self, tmp_path):
        path = self._write(tmp_path, "a.musicxml", SIMPLE)
        with pytest.raises(ConfigError):
            extract(ExtractorConfig(features=["no_such_module"]), [path])

    def test_interval_alias(self, tmp_path):
        path = self._write(tmp_path, "a.musicxml", SIMPLE)
        table = extract(ExtractorConfig(features=["interval"]), [path])
        assert any(c.startswith("PartViolinI_Interval_") for c in table.columns)

    def test_identity_columns_lead(self, tmp_path):
        path = self._write(tmp_path, "a.musicxml", SIMPLE)
        table = extract(ExtractorConfig(window_size=1), [path])
        assert table.columns[:3] == list(IDENTITY_COLUMNS)
