"""The cache entry: a JSON document of plain data under ``CACHE_MAGIC``."""

import ast
import json
import pickle
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import scorefeat
from scorefeat import musicxml as musicxml_parser
from scorefeat.cache import (
    CACHE_MAGIC,
    FORMAT_VERSION,
    cache_key,
    cache_path,
    load_score,
    store_score,
)
from scorefeat.diagnostics import ParseDiagnostics
from scorefeat.engine import ExtractorConfig, RunReport, load_or_parse
from scorefeat.harmony import attach_annotations, parse_harmony_file
from scorefeat.midi import import_midi
from scorefeat.model import Score, slice_window
from scorefeat.musicxml import parse_musicxml
from scorefeat.registry import register_hook
from util import (
    corpus_musicxml,
    midi_bytes,
    midi_meta_track,
    midi_note_events,
    musicxml_doc,
    note,
    part,
    random_model_score,
    random_musicxml,
    rest,
    score,
)

# Three notes, so that a column one row short is not a column stored once.
SIMPLE = musicxml_doc([("Violin", [[{"step": "C", "octave": 4, "dur": 16, "dynamic": "p"}],
                                   [{"step": "D", "octave": 4, "dur": 16}],
                                   [{"step": "E", "octave": 4, "dur": 16}]])])


def _model_score(rng: random.Random):
    diags = ParseDiagnostics()
    for i in range(rng.randint(0, 3)):
        diags.warn(f"part P1 measure {i + 1}", rng.choice(["odd", "voice 1 sums to 3/2"]))
    for element in rng.sample(["print", "wedge", "words"], rng.randint(0, 3)):
        diags.skip(element, rng.randint(1, 4))
    return random_model_score(rng), diags


def _random_midi(rng: random.Random):
    tpq = rng.choice([96, 480])
    notes, tick = [], 0
    for _ in range(rng.randint(1, 12)):
        tick += rng.randint(0, tpq)
        notes.append((tick, tick + rng.randint(1, 2 * tpq), rng.randint(40, 90),
                      rng.randint(20, 120)))
    meta = midi_meta_track(timesig=rng.choice([None, (3, 4), (6, 8), (5, 32)]),
                           keysig=(rng.randint(-3, 3), 0), tempo_bpm=rng.choice([None, 72]))
    return import_midi(midi_bytes([meta + midi_note_events(notes)], tpq=tpq))


def _annotate(score):
    rows = "".join(f"{m}\t{beat}\tV65/IV\t{key}\n" for m, beat, key in (
        (score.first_measure, "0", "C"), (score.last_measure, "3/2", "a"),
        (score.last_measure, "2.25", "a"),
    ))
    return attach_annotations(score, parse_harmony_file("measure\tbeat\tlabel\tkey\n" + rows))


register_hook("annotate_for_round_trip", _annotate)

# A part with lyrics on some notes only, a rest-only part and a one-event part.
MIXED = score([
    part([note("C", onset=0, lyric=("A", "begin")), note("D", onset=1),
          note("E", onset=2, lyric=("ve", "end"))], sound="soprano"),
    part([rest(onset=0, dur=4), rest(onset=4, dur=4, measure=2)], sound="violin"),
    part([note("G", onset=4, dur=2, measure=2)], sound="flute"),
])

_sources = st.one_of(
    st.randoms(use_true_random=False).map(_model_score),
    st.randoms(use_true_random=False).map(lambda rng: parse_musicxml(random_musicxml(rng)[0])),
    st.randoms(use_true_random=False).map(_random_midi),
)


def _assert_reads_alike(loaded: Score, parsed: Score):
    """Note columns, and those of every window, are the same for both."""
    assert [p.notes for p in loaded.parts] == [p.notes for p in parsed.parts]
    for start in parsed.measure_indices():
        for length in range(1, parsed.last_measure - start + 2):
            window = slice_window(loaded, start, length)
            expected = slice_window(parsed, start, length)
            assert window == expected
            assert [p.notes for p in window.parts] == [p.notes for p in expected.parts]


class TestRoundTrip:
    @given(_sources)
    @example(parse_musicxml(corpus_musicxml(random.Random(3), n_measures=3)))  # lyrics, tempo
    @example(parse_musicxml(SIMPLE))  # a dynamic mark
    @example((MIXED, ParseDiagnostics()))
    def test_load_gives_back_what_was_stored(self, parsed):
        score, diags = parsed
        with tempfile.TemporaryDirectory() as tmp:
            store_score(Path(tmp), "ab12", score, diags, [])
            loaded = load_score(Path(tmp), "ab12", [])
        assert loaded == (score, diags)
        _assert_reads_alike(loaded[0], score)

    @given(_sources)
    def test_hooked_score_with_annotations(self, parsed):
        score, diags = parsed
        hooked = _annotate(score)
        assert any(a.beat.denominator > 1 for a in hooked.annotations)
        with tempfile.TemporaryDirectory() as tmp:
            store_score(Path(tmp), "ab12", hooked, diags, ["annotate_for_round_trip"])
            assert load_score(Path(tmp), "ab12", ["annotate_for_round_trip"]) == (hooked, diags)
            assert load_score(Path(tmp), "ab12", []) is None

    def test_a_column_of_one_value_is_stored_once(self, tmp_path):
        store_score(tmp_path, "ab12", MIXED, ParseDiagnostics(), [])
        doc = json.loads(cache_path(tmp_path, "ab12").read_bytes()[len(CACHE_MAGIC):])
        sung, rests, single = (p["events"] for p in doc["score"]["parts"])
        assert {name: len(column) for name, column in sung.items() if len(column) > 1} == {
            "onset": 3, "pitch": 3, "lyric": 3}
        assert (rests["kind"], rests["pitch"], len(rests["onset"])) == (["rest"], [None], 2)
        assert all(len(column) == 1 for column in single.values())

    def test_equal_values_of_two_types_are_stored_in_full(self, tmp_path):
        dotted = score([part([note("C", onset=0, dots=0), note("D", onset=1, dots=False)])])
        store_score(tmp_path, "ab12", dotted, ParseDiagnostics(), [])
        loaded, _ = load_score(tmp_path, "ab12", [])
        assert list(map(type, loaded.parts[0].events.dots)) == [int, bool]


class _TouchOnLoad:
    """Unpickling this creates ``path``."""

    def __init__(self, path: Path):
        self.path = path

    def __reduce__(self):
        return Path.touch, (self.path,)


def _entry(tmp_path: Path) -> tuple[Path, dict]:
    """A valid entry for SIMPLE and its JSON document."""
    key = cache_key(SIMPLE, "musicxml", musicxml_parser.PARSER_VERSION)
    store_score(tmp_path, key, *parse_musicxml(SIMPLE), [])
    path = cache_path(tmp_path, key)
    return path, json.loads(path.read_bytes()[len(CACHE_MAGIC):])


def _events(doc: dict) -> dict:
    """The event columns of the entry's first part, by ``NoteEvent`` field."""
    return doc["score"]["parts"][0]["events"]


def _in_full(doc: dict) -> dict:
    """The event columns of the entry's first part, each one stored once
    repeated to the length of ``onset``; an entry stays valid so."""
    events = _events(doc)
    n = len(events["onset"])
    for name, column in events.items():
        events[name] = column * n if len(column) == 1 else column
    return events


def _first(column: str, value):
    """A corruption that puts ``value`` in the first row of ``column``,
    with the part's columns stored in full."""
    return lambda doc: _in_full(doc)[column].__setitem__(0, value)


def _stored(column: str, values: list):
    """A corruption that stores ``column`` as ``values``."""
    return lambda doc: _events(doc).__setitem__(column, values)


class TestHostileEntries:
    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda doc: "truncated", id="truncated"),
        pytest.param(_first("onset", "0"), id="string-onset"),
        pytest.param(_first("onset", 0.5), id="float-onset"),
        pytest.param(_first("duration", -4), id="negative-duration"),
        pytest.param(_first("tie", "slur"), id="unknown-tie"),
        pytest.param(_first("kind", None), id="null-kind"),
        pytest.param(lambda doc: _in_full(doc)["grace"].pop(), id="short-row"),
        pytest.param(lambda doc: _in_full(doc)["onset"].append(64), id="ragged-columns"),
        pytest.param(lambda doc: _events(doc).pop("lyric"), id="missing-column"),
        pytest.param(lambda doc: _events(doc).pop("onset"), id="missing-onset-column"),
        pytest.param(_stored("tie", ["none"] * 4), id="stored-column-of-4-for-3-events"),
        pytest.param(_stored("tie", []), id="stored-column-of-0-for-3-events"),
        pytest.param(_stored("onset", [0]), id="one-onset-beside-full-columns"),
        pytest.param(_stored("kind", [None]), id="stored-null-kind"),
        pytest.param(lambda doc: doc["score"]["parts"][0].__setitem__("events", [
            ["note", 0, 4, 1, 0, "none", 0, None, False]]), id="rows-not-columns"),
        pytest.param(_first("pitch", 99), id="no-such-pitch"),
        pytest.param(_first("pitch", -1), id="negative-pitch-index"),
        pytest.param(_first("pitch", [0]), id="list-pitch-index"),
        # pitch rows that no parse writes
        pytest.param(lambda doc: doc["pitches"].__setitem__(0, ["B", 2, 9]),
                     id="pitch-over-midi-127"),
        pytest.param(lambda doc: doc["pitches"].__setitem__(0, ["C", 0, -2]),
                     id="pitch-under-midi-0"),
        pytest.param(lambda doc: doc["pitches"].__setitem__(0, ["C", 0, 4.0]),
                     id="float-octave"),
        pytest.param(lambda doc: doc["pitches"].__setitem__(0, ["C", 0.0, 4]),
                     id="float-alter"),
        pytest.param(lambda doc: doc["pitches"].__setitem__(0, ["C", True, 4]),
                     id="bool-alter"),
        pytest.param(lambda doc: doc["pitches"].__setitem__(0, ["H", 0, 4]), id="bad-step"),
        pytest.param(lambda doc: doc["pitches"].__setitem__(0, ["C", 0]), id="short-pitch"),
        pytest.param(lambda doc: doc["score"]["parts"][0]["dynamic_marks"][0].__setitem__(0, "0"),
                     id="string-mark-position"),
        pytest.param(lambda doc: doc["score"].__setitem__("ticks_per_quarter", 0), id="zero-tpq"),
        pytest.param(lambda doc: doc["score"].__setitem__("measure_offsets", [0]),
                     id="offsets-too-few"),
        pytest.param(lambda doc: doc["score"].__setitem__("annotations", [{
            "measure_index": 1, "beat": "1/0", "label": "I", "local_key": "C", "degree": "I",
            "quality": "major", "inversion": 0, "applied_of": None, "is_key_change": False,
        }]), id="zero-beat-denominator"),
        pytest.param(lambda doc: doc["score"]["parts"][0].__setitem__("notes", []),
                     id="unknown-part-field"),
        pytest.param(lambda doc: doc["skipped"].__setitem__("print", "many"), id="string-tally"),
        pytest.param(lambda doc: doc.__setitem__("skipped", "print"), id="string-tallies"),
        pytest.param(lambda doc: doc.pop("warnings"), id="no-warnings"),
        pytest.param(lambda doc: doc.__setitem__("version", 0), id="version"),
        pytest.param(lambda doc: "nested", id="nested"),
    ])
    def test_is_a_miss_that_never_raises(self, tmp_path, corrupt):
        path, doc = _entry(tmp_path)
        how = corrupt(doc)
        if how == "truncated":
            body = path.read_bytes()[: len(CACHE_MAGIC) + 300]
        elif how == "nested":
            body = CACHE_MAGIC + b"[" * 100_000 + b"]" * 100_000
        else:
            body = CACHE_MAGIC + json.dumps(doc).encode()
        path.write_bytes(body)
        assert load_score(tmp_path, path.stem, []) is None
        src = tmp_path / "a.musicxml"
        src.write_bytes(SIMPLE)
        report = RunReport()
        load_or_parse(src, ExtractorConfig(cache_dir=tmp_path), report)
        assert report.parsed == 1 and report.cache_hits == 0
        # an entry of another format version is a quiet miss; a corrupt one is warned of
        quiet = doc["version"] != FORMAT_VERSION
        assert [w["path"] for w in report.warnings] == ([] if quiet else [str(path)])

    def test_a_format_1_entry_is_a_quiet_miss_that_the_reparse_overwrites(self, tmp_path):
        path, doc = _entry(tmp_path)
        events = _in_full(doc)
        doc["version"] = 1
        doc["score"]["parts"][0]["events"] = [list(row) for row in zip(*events.values())]
        self._assert_quiet_miss_then_overwritten(tmp_path, path, doc)

    def test_a_format_2_entry_is_a_quiet_miss_that_the_reparse_overwrites(self, tmp_path):
        path, doc = _entry(tmp_path)
        _in_full(doc)
        doc["version"] = 2
        self._assert_quiet_miss_then_overwritten(tmp_path, path, doc)

    @staticmethod
    def _assert_quiet_miss_then_overwritten(tmp_path, path, doc):
        path.write_bytes(CACHE_MAGIC + json.dumps(doc).encode())
        src = tmp_path / "a.musicxml"
        src.write_bytes(SIMPLE)
        config, report = ExtractorConfig(cache_dir=tmp_path), RunReport()
        score = load_or_parse(src, config, report)
        assert (report.parsed, report.cache_writes, report.warnings) == (1, 1, [])
        assert load_score(tmp_path, path.stem, [], report) == (score, ParseDiagnostics())
        assert report.warnings == []

    def test_pickle_payload_is_never_run(self, tmp_path):
        path, _ = _entry(tmp_path)
        marker = tmp_path / "pwned"
        path.write_bytes(CACHE_MAGIC + pickle.dumps(_TouchOnLoad(marker)))
        assert load_score(tmp_path, path.stem, []) is None
        assert not marker.exists()
        pickle.loads(path.read_bytes()[len(CACHE_MAGIC):])  # the payload is live
        assert marker.exists()


def test_no_module_imports_pickle_or_marshal():
    package = Path(scorefeat.__file__).parent
    offenders = []
    for source in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{source.name}: {n}" for n in names
                          if n.split(".")[0] in ("pickle", "marshal", "_pickle")]
    assert offenders == []
