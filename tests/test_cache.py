"""The cache entry: a JSON document of plain data under ``CACHE_MAGIC``."""

import ast
import base64
import json
import pickle
import random
import sys
import tempfile
from array import array
from dataclasses import replace
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
from scorefeat.engine import ExtractorConfig, RunReport, extract, load_or_parse
from scorefeat.harmony import attach_annotations, parse_harmony_file
from scorefeat.midi import import_midi
from scorefeat.model import EventColumns, Part, Score, slice_window, spelled_pitch
from scorefeat.musicxml import parse_musicxml
from scorefeat.registry import register_hook
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
    rest,
    score,
)

# The packed columns of a part's events, and the bits of each packed type code.
PACKED = ("onset", "duration", "measure_index", "pitch")
WIDTHS = {"b": 8, "h": 16, "i": 32, "q": 64}


def _narrowest(values) -> str:
    return next(code for code, bits in WIDTHS.items()
                if all(-(1 << bits - 1) <= v < 1 << bits - 1 for v in values))


def _packed(values) -> list:
    """``values`` as a packed column: the narrowest type code and the base64
    text of the little-endian array."""
    items = array(_narrowest(values), values)
    if sys.byteorder == "big":
        items.byteswap()
    return [items.typecode, base64.b64encode(items.tobytes()).decode("ascii")]


def _unpacked(column) -> list:
    code, text = column
    items = array(code, base64.b64decode(text))
    if sys.byteorder == "big":
        items.byteswap()
    return items.tolist()


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
        sung, rests, single = (_plain(p["events"]) for p in doc["score"]["parts"])
        assert {name: len(column) for name, column in sung.items() if len(column) > 1} == {
            "onset": 3, "pitch": 3, "lyric": 3}
        assert (rests["kind"], rests["pitch"], len(rests["onset"])) == (["rest"], [-1], 2)
        assert all(len(column) == 1 for column in single.values())

    def test_equal_values_of_two_types_are_stored_in_full(self, tmp_path):
        dotted = score([part([note("C", onset=0, dots=0), note("D", onset=1, dots=False)])])
        store_score(tmp_path, "ab12", dotted, ParseDiagnostics(), [])
        loaded, _ = load_score(tmp_path, "ab12", [])
        assert list(map(type, loaded.parts[0].events.dots)) == [int, bool]


# The ends of the packed type codes, the values just past them, and the ends of int64.
EDGES = sorted({v for bits in (8, 16, 32) for b in (1 << bits - 1,)
                for v in (-b - 1, -b, b - 1, b)} | {-(1 << 63), (1 << 63) - 1})
_int64s = st.one_of(st.sampled_from(EDGES), st.integers(-(1 << 63), (1 << 63) - 1))


def _edge_score(parts: list) -> Score:
    """A one-measure score of parts given as (onset, duration, measure_index,
    pitched, marks): the first four columns of equal length, ``pitched`` a
    bool per event (a note on C4, else a rest), ``marks`` (tick, token) pairs."""
    out = []
    for i, (onset, duration, measure, pitched, marks) in enumerate(parts):
        n = len(onset)
        events = EventColumns(
            kind=tuple("note" if p else "rest" for p in pitched), onset=tuple(onset),
            duration=tuple(duration), measure_index=tuple(measure),
            pitch=tuple(spelled_pitch("C", 0, 4) if p else None for p in pitched),
            tie=("none",) * n, dots=(0,) * n, lyric=(None,) * n, grace=(False,) * n)
        out.append(Part(f"P{i}", f"sound{i}", 1, "other", False, events, tuple(marks), 1))
    return Score("edges", tuple(out), 1, ((1, 4, 4),), (0,), 1)


@st.composite
def _edge_scores(draw) -> Score:
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.sampled_from([0, 1, 2, 5]))

        def column(values, n=n):  # of n values, or of one value n times
            return draw(st.one_of(st.lists(values, min_size=n, max_size=n),
                                  values.map(lambda v: [v] * n)))

        parts.append((sorted(column(_int64s.filter(lambda v: v >= 0))),
                      column(_int64s.filter(lambda v: v > 0)), sorted(column(_int64s)),
                      column(st.booleans()),
                      draw(st.lists(st.tuples(_int64s, st.sampled_from(["p", "ff"])),
                                    max_size=3))))
    return _edge_score(parts)


class TestTypeCodeEdges:
    @given(_edge_scores())
    @example(_edge_score([([], [], [], [], [])]))  # an empty part
    @example(_edge_score([
        ([v for v in EDGES if v >= 0], [v for v in EDGES if v > 0], [v for v in EDGES if v < 0],
         [True, False] * 3 + [True], [(v, "p") for v in EDGES]),
        ([7], [1], [-1], [False], []),  # one row
        ([0, 0, 9], [2, 2, 2], [1, 1, 1], [False] * 3, [(-1, "f")] * 2),  # single-valued
    ]))
    def test_a_hit_equals_what_was_stored(self, edges):
        with tempfile.TemporaryDirectory() as tmp:
            store_score(Path(tmp), "ab12", edges, ParseDiagnostics(), [])
            doc = json.loads(cache_path(Path(tmp), "ab12").read_bytes()[len(CACHE_MAGIC):])
            assert load_score(Path(tmp), "ab12", []) == (edges, ParseDiagnostics())
        for part_doc, p in zip(doc["score"]["parts"], edges.parts):
            positions, tokens = part_doc["dynamic_marks"]
            assert list(zip(_unpacked(positions), tokens)) == list(p.dynamic_marks)
            assert _unpacked(part_doc["events"]["onset"]) == list(p.events.onset)
            for column in [positions, *map(part_doc["events"].__getitem__, PACKED)]:
                assert column[0] == _narrowest(_unpacked(column))

    @pytest.mark.parametrize("value, at", [(True, 0), (1 << 63, -1)], ids=["bool", "2**63"])
    def test_a_measure_index_no_packed_column_holds_is_used_uncached(self, tmp_path, value, at):
        def hook(score):
            first = score.parts[0]
            measures = list(first.events.measure_index)
            measures[at] = value
            events = replace(first.events, measure_index=tuple(measures))
            return replace(score, parts=(replace(first, events=events), *score.parts[1:]))

        register_hook("uncachable_measure", hook)
        src = tmp_path / "a.musicxml"
        src.write_bytes(SIMPLE)
        plain_report, report = RunReport(), RunReport()
        plain = extract(ExtractorConfig(hooks=["uncachable_measure"]), [src], plain_report)
        config = ExtractorConfig(cache_dir=tmp_path / "cache", hooks=["uncachable_measure"])
        cached = extract(config, [src], report=report)
        assert csv_text(cached) == csv_text(plain)
        assert plain_report.failures == report.failures == [] and report.cache_writes == 0
        assert [w["message"].split(":")[0] for w in report.warnings] == ["not cached"]
        assert not list((tmp_path / "cache").rglob("*.score"))


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


def _plain(events: dict) -> dict:
    """``events`` with each packed column unpacked into a JSON list."""
    events.update((name, _unpacked(events[name])) for name in PACKED)
    return events


def _in_full(doc: dict) -> dict:
    """The event columns of the entry's first part as JSON lists, each one
    stored once repeated to the length of ``onset``. ``_repacked`` makes the
    entry valid again."""
    events = _plain(_events(doc))
    n = len(events["onset"])
    for name, column in events.items():
        events[name] = column * n if len(column) == 1 else column
    return events


def _repacked(doc: dict) -> dict:
    """``doc`` with each packed column of every part that is a JSON list of
    int64 values packed again. Any other JSON list stays one, which format 4
    rejects."""
    for part_doc in doc["score"]["parts"]:
        events = part_doc["events"]
        for name in PACKED if isinstance(events, dict) else ():
            column = events.get(name)
            if (isinstance(column, list) and all(type(v) is int for v in column)
                    and all(-(1 << 63) <= v < 1 << 63 for v in column)):
                events[name] = _packed(column)
    return doc


def _first(column: str, value):
    """A corruption that puts ``value`` in the first row of ``column``,
    with the part's columns stored in full."""
    return lambda doc: _in_full(doc)[column].__setitem__(0, value)


def _stored(column: str, values: list):
    """A corruption that stores ``column`` as ``values``."""
    return lambda doc: _events(doc).__setitem__(column, values)


def _marks(positions, tokens):
    """A corruption that stores the first part's dynamic mark positions
    (packed) and tokens as given."""
    return lambda doc: doc["score"]["parts"][0].__setitem__("dynamic_marks", [positions, tokens])


def _measures_as(code: str):
    """A corruption that stores the measure indices under the array type
    code ``code``, in bytes that code reads."""
    def corrupt(doc):
        column = _plain(_events(doc))["measure_index"]
        _events(doc)["measure_index"] = [code, base64.b64encode(
            array(code or "b", column).tobytes()).decode("ascii")]
    return corrupt


def _bad_base64(doc):
    """Corrupts the onsets with a character outside the base64 alphabet,
    which a decoder that skips it would read past."""
    code, text = _events(doc)["onset"]
    _events(doc)["onset"] = [code, text[:1] + "!" + text[1:]]


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
        pytest.param(_first("pitch", -2), id="negative-pitch-index"),  # -1 is "no pitch"
        pytest.param(_first("pitch", [0]), id="list-pitch-index"),
        pytest.param(lambda doc: _in_full(doc)["pitch"].__setitem__(0, len(doc["pitches"])),
                     id="pitch-row-past-the-table"),
        # packed columns that no store writes
        pytest.param(_measures_as("d"), id="type-code-d"),
        pytest.param(_measures_as("Q"), id="type-code-Q"),
        pytest.param(_measures_as(""), id="empty-type-code"),
        pytest.param(_bad_base64, id="invalid-base64"),
        pytest.param(_stored("duration", ["h", base64.b64encode(b"\0\1\0").decode()]),
                     id="3-bytes-under-code-h"),
        pytest.param(_stored("duration", _packed([16] * 4)), id="packed-column-of-4-for-3-events"),
        pytest.param(_marks(_packed([0, 16]), ["p"]), id="mark-positions-longer-than-tokens"),
        pytest.param(_marks(_packed([0]), ["p", "f"]), id="mark-tokens-longer-than-positions"),
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
        pytest.param(_marks(["0"], ["p"]), id="string-mark-position"),
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
            body = CACHE_MAGIC + json.dumps(_repacked(doc)).encode()
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
        events = _in_full(doc)
        events["pitch"] = [None if row == -1 else row for row in events["pitch"]]
        doc["version"] = 2
        self._assert_quiet_miss_then_overwritten(tmp_path, path, doc)

    def test_a_format_3_entry_is_a_quiet_miss_that_the_reparse_overwrites(self, tmp_path):
        path, doc = _entry(tmp_path)
        events = _plain(_events(doc))
        events["pitch"] = [None if row == -1 else row for row in events["pitch"]]
        part_doc = doc["score"]["parts"][0]
        positions, tokens = part_doc["dynamic_marks"]
        part_doc["dynamic_marks"] = [list(mark) for mark in zip(_unpacked(positions), tokens)]
        doc["version"] = 3
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
