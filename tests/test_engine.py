import random
import re
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scorefeat import musicxml as musicxml_parser
from scorefeat.cache import CACHE_MAGIC, cache_key, cache_path, load_score, store_score
from scorefeat.diagnostics import ParseDiagnostics
from scorefeat.engine import (
    ConfigError,
    ExtractorConfig,
    RunReport,
    extract,
    extract_unit,
    load_or_parse,
    plan_windows,
    run_hooks,
)
from scorefeat.model import EventColumns, NoteEvent, slice_window
from scorefeat.registry import (
    FeatureModuleDescriptor,
    feature_modules,
    register_feature_module,
    register_hook,
)
from scorefeat.table import IDENTITY_COLUMNS
from util import (
    corpus_musicxml,
    csv_text,
    midi_bytes,
    midi_meta_track,
    midi_note_events,
    musicxml_doc,
    note,
    part,
    random_model_score,
    random_musicxml,
    score,
)

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


def _window_cells_sum_to_the_whole(s, size):
    """Per part, the NumNotes and SoundingMeasures cells of windows without
    overlap add up to the whole score's; returns the windows."""
    windows = plan_windows(s.num_measures, size, 0)
    tiled = [m for start, length in windows for m in range(start, start + length)]
    assert tiled == list(range(1, s.num_measures + 1))
    registry = feature_modules()
    whole = extract_unit(s, ["core"], registry)
    rows = [extract_unit(slice_window(s, start, length), ["core"], registry)
            for start, length in windows]
    for p in s.parts:
        for feature in ("NumNotes", "SoundingMeasures"):
            name = f"Part{p.part_id}_{feature}"
            assert sum(row[name] for row in rows) == whole[name], name
    return windows


class TestWindowUnion:
    @given(st.randoms(use_true_random=False), st.integers(1, 5))
    def test_windows_add_up_to_the_score(self, rng, size):
        _window_cells_sum_to_the_whole(random_model_score(rng, ties_across_barlines=True), size)

    def test_tie_chain_across_a_window_edge_counts_once(self):
        chain = [note("C", onset=2, dur=2, measure=1, tie="start"),
                 note("C", onset=4, dur=4, measure=2, tie="continue"),
                 note("C", onset=8, dur=1, measure=3, tie="stop"),
                 note("D", onset=9, dur=3, measure=3)]
        s = score([part([note("E", dur=2), *chain], measures=3)])
        assert _window_cells_sum_to_the_whole(s, 1) == [(1, 1), (2, 1), (3, 1)]
        whole = extract_unit(s, ["core"], feature_modules())
        assert whole["PartViolinI_NumNotes"] == 3
        assert whole["PartViolinI_SoundingMeasures"] == 2


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
        assert load_score(config.cache_dir, key, [])[0] == score  # rewritten

    def test_entry_of_older_format_is_a_miss(self, tmp_path):
        import pickle

        from scorefeat.musicxml import parse_musicxml

        score, _ = parse_musicxml(SIMPLE)
        key = cache_key(SIMPLE, "musicxml", musicxml_parser.PARSER_VERSION)
        entry = cache_path(tmp_path, key)
        entry.parent.mkdir(parents=True)
        entry.write_bytes(b"MSF1" + pickle.dumps(score))
        assert load_score(tmp_path, key, []) is None

    def test_entry_without_diagnostics_is_a_miss(self, tmp_path):
        import json

        from scorefeat.musicxml import parse_musicxml

        score, diags = parse_musicxml(SIMPLE)
        key = cache_key(SIMPLE, "musicxml", musicxml_parser.PARSER_VERSION)
        store_score(tmp_path, key, score, diags, [])
        entry = cache_path(tmp_path, key)
        doc = json.loads(entry.read_bytes()[len(CACHE_MAGIC):])
        for field in ("warnings", "skipped"):
            stored = {k: v for k, v in doc.items() if k != field}
            entry.write_bytes(CACHE_MAGIC + json.dumps(stored).encode())
            assert load_score(tmp_path, key, []) is None

    def test_hit_reports_the_parse_diagnostics(self, tmp_path):
        doc = SIMPLE.replace(b'<measure number="1">',
                             b'<measure number="1"><print new-system="yes"/><sound tempo="fast"/>')
        f = tmp_path / "a.musicxml"
        f.write_bytes(doc)
        config = ExtractorConfig(cache_dir=tmp_path / "cache")
        cold, warm = RunReport(), RunReport()
        extract(config, [f], report=cold)
        extract(config, [f], report=warm)
        assert cold.parsed == 1 and warm.cache_hits == 1
        assert cold.skipped == warm.skipped == {"print": 1}
        assert cold.warnings == warm.warnings
        assert len(warm.warnings) == 1 and "fast" in warm.warnings[0]["message"]

    def test_a_warm_stock_extract_builds_no_note_event(self, tmp_path, monkeypatch):
        # lyrics, ties, chords and tempo marks, a MIDI file, and a sidecar
        (tmp_path / "a.musicxml").write_bytes(corpus_musicxml(random.Random(5), n_measures=6))
        (tmp_path / "a.harmony.tsv").write_text("measure\tbeat\tlabel\tkey\n1\t0\tI\tC\n")
        notes = [(240 * k, 240 * k + 480, 60 + k % 5, 90) for k in range(20)]
        (tmp_path / "b.mid").write_bytes(midi_bytes([midi_meta_track() + midi_note_events(notes)]))
        paths = [tmp_path / "a.musicxml", tmp_path / "b.mid"]
        configs = [ExtractorConfig(cache_dir=tmp_path / "cache", window_size=size, window_overlap=1)
                   for size in (2, 3)] + [ExtractorConfig(cache_dir=tmp_path / "cache")]
        cold = [csv_text(extract(config, paths)) for config in configs]

        def built(*args, **kwargs):
            raise AssertionError("a NoteEvent was built")

        # the two ways a NoteEvent comes to be: its constructor and the event memo
        monkeypatch.setattr(NoteEvent, "__init__", built)
        monkeypatch.setattr(EventColumns, "_events", property(built))
        for config, expected in zip(configs, cold):
            report = RunReport()
            assert csv_text(extract(config, paths, report)) == expected
            assert (report.cache_hits, report.failures) == (2, [])
        hit = load_or_parse(paths[0], configs[0], RunReport())
        with pytest.raises(AssertionError, match="NoteEvent was built"):
            hit.parts[0].events[0]  # the patch bites

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
        store_score(tmp_path, key, score, ParseDiagnostics(), [])
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
        cached, _diags = load_score(config.cache_dir, key, ["drop_graces"])
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
        load_or_parse(f, ExtractorConfig(cache_dir=cache_dir, hooks=["drop_graces"]), RunReport())
        report = RunReport()
        score = load_or_parse(f, ExtractorConfig(cache_dir=cache_dir), report)
        assert report.parsed == 1 and report.cache_hits == 0
        assert any(e.grace for p in score.parts for e in p.events)

    def test_reregistered_hook_misses_the_old_entry(self, tmp_path):
        from dataclasses import replace

        def f(score):
            return replace(score, key_signature=1)

        def g(score):
            return replace(score, key_signature=2)

        src = tmp_path / "a.musicxml"
        src.write_bytes(SIMPLE)
        config = ExtractorConfig(cache_dir=tmp_path / "cache", hooks=["h"])
        register_hook("h", f)
        assert load_or_parse(src, config, RunReport()).key_signature == 1
        register_hook("h", g)
        report = RunReport()
        score = load_or_parse(src, config, report)
        assert report.parsed == 1 and report.cache_hits == 0
        assert score.key_signature == 2

    def test_score_an_entry_cannot_hold_is_used_uncached(self, tmp_path):
        from dataclasses import replace

        import numpy as np

        register_hook("numpy_key", lambda score: replace(score, key_signature=np.int64(2)))
        src = tmp_path / "a.musicxml"
        src.write_bytes(SIMPLE)
        plain = extract(ExtractorConfig(hooks=["numpy_key"]), [src])
        report = RunReport()
        cached = extract(ExtractorConfig(cache_dir=tmp_path / "cache", hooks=["numpy_key"]),
                         [src], report=report)
        assert csv_text(cached) == csv_text(plain)
        assert report.failures == [] and report.cache_writes == 0
        assert "not cached" in report.warnings[0]["message"]
        assert not list((tmp_path / "cache").rglob("*.score"))

    def test_hook_failure_is_per_file(self, tmp_path):
        def boom(score):
            raise RuntimeError("bad hook")

        register_hook("boom", boom)
        good = tmp_path / "good.musicxml"
        good.write_bytes(SIMPLE)
        config = ExtractorConfig(hooks=["boom"])
        report = RunReport()
        table = extract(config, [good], report=report)
        assert table.num_rows == 0
        assert report.failures and report.failures[0]["stage"] == "parse"

    def test_unknown_hook_is_config_error(self):
        with pytest.raises(ConfigError):
            ExtractorConfig(hooks=["never_registered"]).validate()


class TestUpstream:
    def test_part_writes_stay_local_and_part_keys_shadow_score_keys(self):
        seen = []

        def scribble(p, _score, upstream):
            seen.append(("scribble", p.part_id, dict(upstream)))
            upstream["Key"] = upstream["Only"] = "written"
            upstream["New"] = 1

        def read_part(p, _score, upstream):
            seen.append(("read", p.part_id, dict(upstream)))

        def read_score(_score, part_values, upstream):
            seen.append(("score", part_values, dict(upstream)))

        registry = {
            "s": FeatureModuleDescriptor("s", score_fn=lambda *_: {"Key": "s", "Only": "s"}),
            "p": FeatureModuleDescriptor("p", part_fn=lambda p, *_: {"Key": p.part_id}),
            "w": FeatureModuleDescriptor("w", part_fn=scribble),
            "r": FeatureModuleDescriptor("r", part_fn=read_part, score_fn=read_score),
        }
        unit = score([part([note("C")]), part([note("E")], ordinal=2)])
        row = extract_unit(unit, ["s", "p", "w", "r"], registry)
        assert seen == [
            (module, pid, {"Key": pid, "Only": "s"})
            for module in ("scribble", "read") for pid in ("ViolinI", "ViolinII")
        ] + [("score", {"ViolinI": {"Key": "ViolinI"}, "ViolinII": {"Key": "ViolinII"}},
              {"Key": "s", "Only": "s"})]
        assert row == {"Score_Key": "s", "Score_Only": "s",
                       "PartViolinI_Key": "ViolinI", "PartViolinII_Key": "ViolinII"}


class TestScopedNames:
    def test_only_a_scope_prefix_passes_through(self):
        kept = ["PartViolinI_X", "Part_X", "Part2_X", "SoundViolin_X", "Sound_X",
                "FamilyStrings_X", "Texture_ViolinI_ViolaI_Ratio", "Score_X"]
        prefixed = ["PartCount", "SoundingShare", "Familiarity", "Particle_X", "Sounds_X",
                    "Familyish_X", "Texture", "ScoreMean"]
        registry = {"n": FeatureModuleDescriptor(
            "n", score_fn=lambda *_: dict.fromkeys(kept + prefixed, 1))}
        row = extract_unit(score([part([note("C")])]), ["n"], registry)
        assert list(row) == kept + [f"Score_{name}" for name in prefixed]


class TestPartIds:
    def test_sounds_that_camel_case_alike_get_their_own_ids(self):
        doc = musicxml_doc([
            ("Bass Clarinet", [[{"step": "C", "octave": 3, "dur": 4}] * 4]),
            ("Bass.Clarinet", [[{"step": "D", "octave": 3, "dur": 16}]]),
        ])
        s, _ = musicxml_parser.parse_musicxml(doc)
        assert [(p.part_id, p.family) for p in s.parts] == [
            ("BassClarinetI", "woodwinds"), ("BassClarinetII", "other")]
        registry = feature_modules()
        row = extract_unit(s, ["core", "scoring"], registry)
        assert (row["PartBassClarinetI_NumNotes"], row["PartBassClarinetII_NumNotes"]) == (4, 1)
        assert (row["FamilyWoodwinds_NumNotes"], row["FamilyOther_NumNotes"]) == (4, 1)
        assert (row["SoundBassClarinet_NumNotes"], row["SoundBassClarinet_NumParts"]) == (5, 2)

    def test_hyphenated_names_reach_their_sound(self):
        doc = musicxml_doc([
            ("Bass Clarinet", [[{"step": "C", "octave": 3, "dur": 4}] * 4]),
            ("Bass-Clarinet", [[{"step": "D", "octave": 3, "dur": 16}]]),
        ])
        s, _ = musicxml_parser.parse_musicxml(doc)
        assert [(p.part_id, p.instrument_sound, p.family) for p in s.parts] == [
            ("BassClarinetI", "bass clarinet", "woodwinds"),
            ("BassClarinetII", "bass clarinet", "woodwinds")]
        row = extract_unit(s, ["core", "scoring"], feature_modules())
        assert row["FamilyWoodwinds_NumNotes"] == 5
        assert "FamilyOther_NumNotes" not in row
        assert row["Score_Instrumentation"] == "bass clarinet"


class TestExtract:
    def _write(self, tmp_path, name, data):
        p = tmp_path / name
        p.write_bytes(data)
        return p

    def test_one_row_per_score(self, tmp_path):
        paths = [self._write(tmp_path, f"s{i}.musicxml", SIMPLE) for i in range(2)]
        table = extract(ExtractorConfig(), paths)
        assert table.num_rows == 2
        assert table.columns["FileName"] == ["s0", "s1"]

    def test_cache_hit_keeps_its_own_file_name(self, tmp_path):
        paths = [self._write(tmp_path, f"{stem}.musicxml", SIMPLE) for stem in "ab"]
        report = RunReport()
        config = ExtractorConfig(cache_dir=tmp_path / "cache")
        table = extract(config, paths, report=report)
        assert report.cache_hits == 1
        assert table.columns["FileName"] == ["a", "b"]

    def test_windowed_rows(self, tmp_path):
        measures = [[{"step": "C", "octave": 4, "dur": 16}] for _ in range(10)]
        path = self._write(tmp_path, "w.musicxml", musicxml_doc([("Violin", measures)]))
        table = extract(ExtractorConfig(window_size=3, window_overlap=2), [path])
        assert table.num_rows == 8
        assert table.columns["WindowStart"] == list(range(1, 9))
        assert table.columns["WindowEnd"] == [min(s + 2, 10) for s in range(1, 9)]

    def test_column_union_with_missing(self, tmp_path):
        vocal = musicxml_doc(
            [("Soprano", [[{"step": "C", "octave": 5, "dur": 16,
                            "lyric": ("la", "single")}]])]
        )
        a = self._write(tmp_path, "a.musicxml", SIMPLE)
        b = self._write(tmp_path, "b.musicxml", vocal)
        table = extract(ExtractorConfig(), [a, b])
        col = table.columns["PartSopranoI_NumSyllables"]
        assert col[0] is None and col[1] == 1

    def test_partial_failure(self, tmp_path):
        good = self._write(tmp_path, "good.musicxml", SIMPLE)
        bad = self._write(tmp_path, "bad.musicxml", b"<score-partwise><part")
        report = RunReport()
        table = extract(ExtractorConfig(), [good, bad], report=report)
        assert table.num_rows == 1
        assert len(report.failures) == 1
        assert report.failures[0]["stage"] == "parse"

    def test_harmony_sidecar_attached_by_stem(self, tmp_path):
        path = self._write(tmp_path, "aria.musicxml", SIMPLE)
        (tmp_path / "aria.harmony.tsv").write_text(
            "measure\tbeat\tlabel\tkey\n1\t0\tI\tC\n2\t0\tV\tC\n"
        )
        table = extract(ExtractorConfig(), [path])
        assert table.columns["Score_NumAnnotations"] == [2]
        assert table.columns["Score_Function_T_Count"] == [1]

    def test_harmony_warnings_go_into_the_report_with_the_sidecar_path(self, tmp_path):
        path = self._write(tmp_path, "aria.musicxml", SIMPLE)
        sidecar = tmp_path / "aria.harmony.tsv"
        sidecar.write_text("measure\tbeat\tlabel\tkey\tnote\n1\t0\tGer6\tC\tx\n")
        report = RunReport()
        table = extract(ExtractorConfig(), [path], report=report)
        assert table.columns["Score_NumAnnotations"] == [1]
        assert report.warnings == [
            {"path": str(sidecar), "message": "header: extra columns ignored: note"},
            {"path": str(sidecar),
             "message": "line 2: unparsable label 'Ger6' kept with degree=unknown"},
        ]

    def test_bad_harmony_reported_score_kept(self, tmp_path):
        path = self._write(tmp_path, "aria.musicxml", SIMPLE)
        (tmp_path / "aria.harmony.tsv").write_text("not\ta\theader\n1\t2\t3\n")
        report = RunReport()
        table = extract(ExtractorConfig(), [path], report=report)
        assert table.num_rows == 1
        assert report.failures[0]["stage"] == "harmony"

    def test_report_is_in_input_order(self, tmp_path):
        a = self._write(tmp_path, "a.musicxml", SIMPLE)
        (tmp_path / "a.harmony.tsv").write_text("not\ta\theader\n1\t2\t3\n")
        b = self._write(tmp_path, "b.mid", b"not a standard MIDI file")
        report = RunReport()
        extract(ExtractorConfig(), [a, b], report=report)
        assert [(f["path"], f["stage"]) for f in report.failures] == [
            (str(tmp_path / "a.harmony.tsv"), "harmony"),
            (str(b), "parse"),
        ]

    def test_a_file_whose_features_fail_leaves_no_rows(self, tmp_path, monkeypatch):
        def fail_in_b_measure_2(score, part_values, upstream):
            if (score.source_id, score.first_measure) == ("b", 2):
                raise RuntimeError("boom")
            return {}

        monkeypatch.setattr("scorefeat.registry._FEATURE_MODULES", feature_modules())
        register_feature_module(FeatureModuleDescriptor("fail_b", score_fn=fail_in_b_measure_2))
        doc = musicxml_doc([("Violin", [[{"step": "C", "octave": 4, "dur": 16}]] * 3)])
        paths = []
        for stem in "abc":
            paths.append(self._write(tmp_path, f"{stem}.musicxml", doc))
            (tmp_path / f"{stem}.harmony.tsv").write_text(
                "measure\tbeat\tlabel\tkey\tnote\n1\t0\tI\tC\tx\n")
        report = RunReport()
        table = extract(ExtractorConfig(features=["fail_b"], window_size=1), paths,
                        report=report)
        assert list(zip(table.columns["FileName"], table.columns["WindowStart"])) == [
            (stem, start) for stem in "ac" for start in (1, 2, 3)]
        assert report.failures == [
            {"path": str(paths[1]), "stage": "features", "error": "boom"}]
        assert [w["path"] for w in report.warnings] == [
            str(tmp_path / f"{stem}.harmony.tsv") for stem in "abc"]

    def test_files_run_on_the_calling_thread_in_input_order(self, tmp_path):
        calls = []

        def record(score):
            calls.append((threading.get_ident(), score.source_id))
            return score

        register_hook("record_thread", record)
        paths = [self._write(tmp_path, f"{stem}.musicxml", SIMPLE) for stem in "cab"]
        extract(ExtractorConfig(hooks=["record_thread"]), paths)
        assert calls == [(threading.get_ident(), stem) for stem in "cab"]

    def test_parallelism_is_no_longer_a_setting(self):
        with pytest.raises(TypeError):
            ExtractorConfig(parallelism=2)

    def test_cached_equals_uncached(self, tmp_path):
        rng = random.Random(78)
        doc, _ = random_musicxml(rng)
        path = self._write(tmp_path, "c.musicxml", doc)
        cold = extract(ExtractorConfig(cache_dir=tmp_path / "cache"), [path])
        warm = extract(ExtractorConfig(cache_dir=tmp_path / "cache"), [path])
        plain = extract(ExtractorConfig(), [path])
        assert csv_text(cold) == csv_text(warm) == csv_text(plain)

    @staticmethod
    def _scale_divisions(doc: bytes, factors) -> bytes:
        """``doc`` with measure m of its i-th part counted in ``factors[i] * m``
        times finer divisions: the same music, with ``<divisions>`` differing
        across parts and changing at every barline."""
        scale = iter(factors)

        def scale_part(part):
            k = next(scale)
            divisions = int(re.search(rb"<divisions>(\d+)</divisions>", part[0])[1])

            def scale_measure(measure):
                f = k * int(measure[2])
                body = re.sub(rb"<(divisions|duration)>(\d+)</\1>",
                              lambda m: b"<%s>%d</%s>" % (m[1], int(m[2]) * f, m[1]), measure[3])
                if b"<divisions>" not in body:
                    body = b"<attributes><divisions>%d</divisions></attributes>" % (
                        divisions * f) + body
                return measure[1] + body + b"</measure>"

            return re.sub(rb'(<measure number="(\d+)">)(.*?)</measure>', scale_measure,
                          part[0], flags=re.S)

        return re.sub(rb'<part id=".*?</part>', scale_part, doc, flags=re.S)

    @given(st.randoms(use_true_random=False),
           st.lists(st.integers(2, 9), min_size=3, max_size=3, unique=True))
    def test_csv_invariant_under_division_scaling(self, rng, factors):
        doc, _ = random_musicxml(rng)
        scaled = self._scale_divisions(doc, factors)
        assert scaled.count(b"<divisions>") == doc.count(b"<measure ") > 0
        tables = []
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in (("plain", doc), ("scaled", scaled)):
                path = Path(tmp) / name / "s.musicxml"
                path.parent.mkdir()
                path.write_bytes(data)
                tables.append(csv_text(extract(ExtractorConfig(), [path])))
        assert tables[0] == tables[1]

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
        assert list(table.columns)[:3] == list(IDENTITY_COLUMNS)
