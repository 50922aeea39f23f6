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
from scorefeat.cache import CACHE_MAGIC, cache_key, cache_path, load_score, store_score
from scorefeat.diagnostics import ParseDiagnostics
from scorefeat.engine import ExtractorConfig, RunReport, load_or_parse
from scorefeat.harmony import attach_annotations, parse_harmony_file
from scorefeat.midi import import_midi
from scorefeat.musicxml import parse_musicxml
from scorefeat.registry import register_hook
from util import (
    corpus_musicxml,
    midi_bytes,
    midi_meta_track,
    midi_note_events,
    musicxml_doc,
    random_model_score,
    random_musicxml,
)

SIMPLE = musicxml_doc([("Violin", [[{"step": "C", "octave": 4, "dur": 16, "dynamic": "p"}],
                                   [{"step": "D", "octave": 4, "dur": 16}]])])


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

_sources = st.one_of(
    st.randoms(use_true_random=False).map(_model_score),
    st.randoms(use_true_random=False).map(lambda rng: parse_musicxml(random_musicxml(rng)[0])),
    st.randoms(use_true_random=False).map(_random_midi),
)


class TestRoundTrip:
    @given(_sources)
    @example(parse_musicxml(corpus_musicxml(random.Random(3), n_measures=3)))  # lyrics, tempo
    @example(parse_musicxml(SIMPLE))  # a dynamic mark
    def test_load_gives_back_what_was_stored(self, parsed):
        score, diags = parsed
        with tempfile.TemporaryDirectory() as tmp:
            store_score(Path(tmp), "ab12", score, diags, [])
            assert load_score(Path(tmp), "ab12", []) == (score, diags)

    @given(_sources)
    def test_hooked_score_with_annotations(self, parsed):
        score, diags = parsed
        hooked = _annotate(score)
        assert any(a.beat.denominator > 1 for a in hooked.annotations)
        with tempfile.TemporaryDirectory() as tmp:
            store_score(Path(tmp), "ab12", hooked, diags, ["annotate_for_round_trip"])
            assert load_score(Path(tmp), "ab12", ["annotate_for_round_trip"]) == (hooked, diags)
            assert load_score(Path(tmp), "ab12", []) is None


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


def _first_event(doc: dict) -> list:
    return doc["score"]["parts"][0]["events"][0]


class TestHostileEntries:
    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda doc: "truncated", id="truncated"),
        pytest.param(lambda doc: _first_event(doc).__setitem__(1, "0"), id="string-onset"),
        pytest.param(lambda doc: _first_event(doc).__setitem__(1, 0.5), id="float-onset"),
        pytest.param(lambda doc: _first_event(doc).__setitem__(2, -4), id="negative-duration"),
        pytest.param(lambda doc: _first_event(doc).__setitem__(5, "slur"), id="unknown-tie"),
        pytest.param(lambda doc: _first_event(doc).pop(), id="short-row"),
        pytest.param(lambda doc: _first_event(doc).__setitem__(4, 99), id="no-such-pitch"),
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
