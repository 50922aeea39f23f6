import gc
import random
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scorefeat import musicxml
from scorefeat.diagnostics import ParseDiagnostics
from scorefeat.model import Lyric, midi_number, note_count
from scorefeat.musicxml import MusicXMLError, parse_musicxml
from util import musicxml_doc, mxl_bytes, quarters, random_musicxml

MINIMAL = musicxml_doc([("Voice", [[{"step": "C", "octave": 4, "dur": 16}]])])


def counted(part):
    return [e for e in part.events if e.kind == "note" and not e.grace
            and e.tie in ("none", "start")]


class TestBasics:
    def test_minimal_whole_note(self):
        score, diags = parse_musicxml(MINIMAL)
        assert len(score.parts) == 1
        assert score.num_measures == 1
        assert note_count(score.parts[0]) == 1
        assert score.key_signature == 0
        assert not diags.warnings

    def test_divisions_normalization(self):
        doc = musicxml_doc(
            [("Violin", [[{"step": "C", "octave": 4, "dur": 36},
                          {"kind": "rest", "dur": 60}]])],
            divisions=24,
        )
        score, _ = parse_musicxml(doc)
        assert quarters(score, score.parts[0].events[0].duration) == Fraction(3, 2)

    def test_tick_base_is_the_lcm_of_what_was_read(self):
        doc = musicxml_doc([("Violin", [[{"step": "C", "dur": 1}, {"step": "D", "dur": 11}],
                                        [{"step": "E", "dur": 2}, {"step": "F", "dur": 18}]])],
                           divisions=3)
        doc = doc.replace(b'<measure number="2">',
                          b'<measure number="2"><attributes><divisions>5</divisions></attributes>')
        score, diags = parse_musicxml(doc)
        assert not diags.warnings
        assert score.ticks_per_quarter == 15
        assert [e.onset for e in score.parts[0].events] == [0, 5, 60, 66]
        assert score.measure_offsets == (0, 60)

    def test_two_violins_and_voice(self):
        doc = musicxml_doc(
            [
                ("Violin I", [[{"step": "C", "octave": 5, "dur": 16}]]),
                ("Violin II", [[{"step": "E", "octave": 4, "dur": 16}]]),
                ("Voice", [[{"step": "G", "octave": 4, "dur": 16}]]),
            ]
        )
        score, _ = parse_musicxml(doc)
        assert [(p.instrument_sound, p.sound_ordinal) for p in score.parts] == [
            ("violin", 1), ("violin", 2), ("voice", 1),
        ]
        assert [p.family for p in score.parts] == ["strings", "strings", "voices"]

    def test_deterministic(self):
        a, _ = parse_musicxml(MINIMAL)
        b, _ = parse_musicxml(MINIMAL)
        assert a == b


class TestContainer:
    def test_mxl_equals_plain(self):
        plain, _ = parse_musicxml(MINIMAL)
        zipped, _ = parse_musicxml(mxl_bytes(MINIMAL))
        assert plain == zipped

    def test_mxl_without_manifest_is_fatal(self):
        with pytest.raises(MusicXMLError, match="container.xml"):
            parse_musicxml(mxl_bytes(MINIMAL, manifest=False))

    def test_rootfile_over_size_cap_refused(self, monkeypatch):
        monkeypatch.setattr(musicxml, "MAX_MXL_MEMBER_BYTES", len(MINIMAL))
        parse_musicxml(mxl_bytes(MINIMAL))  # at the cap: read
        monkeypatch.setattr(musicxml, "MAX_MXL_MEMBER_BYTES", len(MINIMAL) - 1)
        with pytest.raises(MusicXMLError, match="over"):
            parse_musicxml(mxl_bytes(MINIMAL))

    def test_rootfile_with_understated_size_refused(self, monkeypatch):
        monkeypatch.setattr(musicxml, "MAX_MXL_MEMBER_BYTES", len(MINIMAL) - 1)
        data = _declare_size(mxl_bytes(MINIMAL), "score.musicxml", 100)
        with pytest.raises(MusicXMLError):
            parse_musicxml(data)


def _declare_size(container: bytes, name: str, size: int) -> bytes:
    """``container`` with the central-directory uncompressed size of member
    ``name`` overwritten by ``size``."""
    data = bytearray(container)
    pos = 0
    while True:
        pos = data.index(b"PK\x01\x02", pos)
        name_len = int.from_bytes(data[pos + 28 : pos + 30], "little")
        if data[pos + 46 : pos + 46 + name_len] == name.encode():
            data[pos + 24 : pos + 28] = size.to_bytes(4, "little")
            return bytes(data)
        pos += 4


class TestFatalErrors:
    def test_malformed_xml(self):
        with pytest.raises(MusicXMLError, match="malformed"):
            parse_musicxml(b"<score-partwise><part")

    def test_timewise_rejected(self):
        with pytest.raises(MusicXMLError, match="timewise"):
            parse_musicxml(b"<score-timewise></score-timewise>")

    def test_not_a_score(self):
        with pytest.raises(MusicXMLError):
            parse_musicxml(b"<html></html>")


class TestContent:
    def test_chord_noteheads_all_counted(self):
        doc = musicxml_doc(
            [("Violin", [[
                {"step": "C", "octave": 4, "dur": 8},
                {"step": "E", "octave": 4, "dur": 8, "chord": True},
                {"step": "G", "octave": 4, "dur": 8},
            ]])],
            divisions=4,  # 2q + chord + 2q = 4 quarters
        )
        score, _ = parse_musicxml(doc)
        events = counted(score.parts[0])
        assert len(events) == 3
        assert events[0].onset == events[1].onset == 0
        assert quarters(score, events[2].onset) == Fraction(2)

    def test_grace_note_zero_duration(self):
        doc = musicxml_doc(
            [("Violin", [[
                {"step": "D", "octave": 5, "dur": 0, "grace": True},
                {"step": "C", "octave": 5, "dur": 16},
            ]])]
        )
        score, _ = parse_musicxml(doc)
        grace = [e for e in score.parts[0].events if e.grace]
        assert len(grace) == 1 and grace[0].duration == 0
        assert note_count(score.parts[0]) == 1

    def test_tie_and_dots(self):
        doc = musicxml_doc(
            [("Violin", [
                [{"step": "A", "octave": 4, "dur": 12, "dots": 1},
                 {"step": "A", "octave": 4, "dur": 4, "tie": "start"}],
                [{"step": "A", "octave": 4, "dur": 16, "tie": "stop"}],
            ])]
        )
        score, _ = parse_musicxml(doc)
        events = score.parts[0].events
        assert [e.tie for e in events] == ["none", "start", "stop"]
        assert events[0].dots == 1
        assert note_count(score.parts[0]) == 2

    def test_lyrics_and_dynamics(self):
        doc = musicxml_doc(
            [("Soprano", [[
                {"step": "C", "octave": 5, "dur": 8, "lyric": ("glo", "begin"), "dynamic": "p"},
                {"step": "D", "octave": 5, "dur": 8, "lyric": ("ria", "end")},
            ]])]
        )
        score, _ = parse_musicxml(doc)
        p = score.parts[0]
        assert p.is_vocal
        assert [e.lyric.syllabic for e in p.events] == ["begin", "end"]
        assert p.dynamic_marks == ((0, "p"),)

    def test_duration_mismatch_warns_not_fatal(self):
        doc = musicxml_doc([("Violin", [[{"step": "C", "octave": 4, "dur": 8}]])])
        score, diags = parse_musicxml(doc)  # half note in a 4/4 measure
        assert score.num_measures == 1
        assert any("sums to" in msg for _, msg in diags.warnings)

    def test_tempo_marks(self):
        doc = musicxml_doc(
            [("Violin", [[{"step": "C", "octave": 4, "dur": 16}]])],
            tempo_words="Allegro", tempo_bpm=120,
        )
        score, _ = parse_musicxml(doc)
        assert score.tempo_marks[0].text == "allegro"
        assert score.tempo_marks[0].bpm == 120.0

    def test_out_of_range_pitch_skipped_with_warning(self):
        doc = musicxml_doc(
            [("Violin", [[
                {"step": "B", "alter": 2, "octave": 9, "dur": 8},
                {"step": "C", "octave": 4, "dur": 8},
            ]])],
            divisions=4,
        )
        score, diags = parse_musicxml(doc)
        assert note_count(score.parts[0]) == 1
        assert any("pitch" in msg for _, msg in diags.warnings)

    @pytest.mark.parametrize("alter", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_alter_skipped_with_warning(self, alter):
        doc = musicxml_doc(
            [("Violin", [[
                {"step": "B", "alter": alter, "octave": 4, "dur": 8},
                {"step": "C", "octave": 4, "dur": 8},
            ]])],
            divisions=4,
        )
        score, diags = parse_musicxml(doc)
        assert [e.pitch.name for e in counted(score.parts[0])] == ["C4"]
        assert any("unusable pitch" in msg for _, msg in diags.warnings)

    @pytest.mark.parametrize("tempo", ["fast", "nan"])
    def test_unreadable_measure_sound_tempo_warns(self, tempo):
        doc = MINIMAL.replace(b'<measure number="1">',
                              f'<measure number="1"><sound tempo="{tempo}"/>'.encode())
        score, diags = parse_musicxml(doc)
        assert note_count(score.parts[0]) == 1
        assert score.tempo_marks == ()
        assert any(tempo in msg for _, msg in diags.warnings)

    def test_decimal_duration_and_divisions(self):
        doc = MINIMAL.replace(b"<duration>16</duration>", b"<duration>16.0</duration>")
        doc = doc.replace(b"<divisions>4</divisions>", b"<divisions>4.0</divisions>")
        score, diags = parse_musicxml(doc)
        assert quarters(score, score.parts[0].events[0].duration) == Fraction(4)
        assert not diags.warnings

    def test_decimal_direction_offset(self):
        doc = musicxml_doc([("Violin", [[{"step": "C", "octave": 4, "dur": 16,
                                          "dynamic": "p"}]])])
        doc = doc.replace(b"</direction-type></direction>",
                          b"</direction-type><offset>2.0</offset></direction>")
        score, diags = parse_musicxml(doc)
        (pos, token), = score.parts[0].dynamic_marks
        assert (quarters(score, pos), token) == (Fraction(1, 2), "p")
        assert not diags.warnings

    def test_zero_divisions_keeps_previous_value(self):
        doc = musicxml_doc([("Violin", [[{"step": "C", "octave": 4, "dur": 16}],
                                        [{"step": "D", "octave": 4, "dur": 16}]])])
        doc = doc.replace(b'<measure number="2">',
                          b'<measure number="2"><attributes><divisions>0</divisions></attributes>')
        score, diags = parse_musicxml(doc)
        assert [quarters(score, e.duration) for e in score.parts[0].events] == [4, 4]
        assert any("divisions" in msg for _, msg in diags.warnings)

    def test_empty_measure_takes_its_length_from_the_signature(self):
        # 4/4, then 3/4 from measure 2; measure 3 is empty, so its length is
        # the signature's 3 quarters
        doc = musicxml_doc([("Violin", [[{"step": "C", "octave": 4, "dur": 16}],
                                        [{"step": "D", "octave": 4, "dur": 12}],
                                        [],
                                        [{"step": "E", "octave": 4, "dur": 12}]])])
        doc = doc.replace(b'<measure number="2">', b'<measure number="2"><attributes><time>'
                          b'<beats>3</beats><beat-type>4</beat-type></time></attributes>')
        score, _ = parse_musicxml(doc)
        assert score.time_signatures == ((1, 4, 4), (2, 3, 4))
        assert [quarters(score, q) for q in score.measure_offsets] == [0, 4, 7, 10]
        assert quarters(score, score.parts[0].events[-1].onset) == 10
        assert score.total_quarters() == 13


def _edge_doc(measures, divisions=4, beats=4, beat_type=4, after_first_note=b"",
              replace=()):
    """A one-part document, with raw XML put after its first note and
    ``replace`` applied as (old, new) byte pairs."""
    doc = musicxml_doc([("Violin", measures)], divisions=divisions, beats=beats,
                       beat_type=beat_type)
    doc = doc.replace(b"</note>", b"</note>" + after_first_note, 1)
    for old, new in replace:
        doc = doc.replace(old, new)
    return doc


_SEVEN_AND_NINE = musicxml_doc([("Violin", [[{"step": "C", "dur": 3}, {"step": "D", "dur": 4},
                                             {"step": "E", "dur": 21}]]),
                                ("Viola", [[{"step": "C", "dur": 2}, {"step": "D", "dur": 7},
                                            {"step": "E", "dur": 27}]])], divisions=7)
_SEVEN_AND_NINE = _SEVEN_AND_NINE.replace(
    b'<part id="P2"><measure number="1"><attributes><divisions>7',
    b'<part id="P2"><measure number="1"><attributes><divisions>9')
_DYNAMICS = _edge_doc([[{"step": "C", "dur": 16, "dynamic": "p"}],
                       [{"step": "D", "dur": 8, "dynamic": "f"},
                        {"step": "E", "dur": 8, "dynamic": "mf"}]])
for _shift in (b"0.5", b"-1.5", b"-3"):  # one per direction, in document order
    _DYNAMICS = _DYNAMICS.replace(b"</direction-type></direction>",
                                  b"</direction-type><offset>%s</offset></direction>" % _shift, 1)

# A zero-length rest is dropped silently; the other three are skipped with a
# warning, and the cursor stops at the measure start.
_NON_POSITIVE = _edge_doc([[{"step": "C", "dur": 8}, {"kind": "rest", "dur": 0},
                            {"step": "D", "dur": 0}, {"kind": "rest", "dur": -4},
                            {"step": "E", "dur": -12}, {"step": "F", "dur": 16}]])

# A negative forward is skipped with a warning, wherever it stands: it no
# longer moves the cursor back past notes already read, and a forward after
# it still counts.
_QUARTERS = [{"step": step, "dur": 1} for step in "CDEF"]
_NEGATIVE_FORWARD = _edge_doc([_QUARTERS, _QUARTERS], divisions=1, replace=(
    (b'<measure number="2">', b'<measure number="2"><forward><duration>-2</duration></forward>'),))
_THIRD_NOTE = b"<octave>5</octave></pitch><duration>1</duration></note>"
_NEGATIVE_THEN_POSITIVE_FORWARD = _edge_doc(
    [_QUARTERS, [*_QUARTERS[:2], {"step": "E", "octave": 5, "dur": 1}, _QUARTERS[3]]],
    divisions=1, replace=((_THIRD_NOTE, _THIRD_NOTE + b"<forward><duration>-2</duration>"
                           b"</forward><forward><duration>2</duration></forward>"),))

# A note that repeats each child it reads: the first of each counts, as
# ``find`` reads it, and its warnings come in the order the parser meets them.
# The note after it has the same microtonal pitch and warns again.
_REPEATED = _edge_doc(
    [[{"step": "C", "dur": 4}, {"step": "D", "alter": "0.5", "dur": 4}]],
    after_first_note=b"<note><pitch><step>D</step><alter>0.5</alter><alter>-1</alter>"
    b"<octave>4</octave></pitch><pitch><step>G</step><octave>5</octave></pitch>"
    b"<duration>8</duration><duration>4</duration><voice>1</voice><voice>2</voice>"
    b'<tie type="start"/><tie type="stop"/><dot/><dot/><dot/>'
    b"<lyric><syllabic>begin</syllabic><text>la</text></lyric>"
    b"<lyric><syllabic>end</syllabic><text>lo</text></lyric></note>")

# Documents whose times the parser reaches by a different route than plain
# integer divisions, each with the exact times it must give: (document, ticks
# per quarter, measure offsets, (onset, duration) per event and dynamic mark
# positions in quarters, a text every warning must contain in order).
EDGE_DOCS = {
    "decimal divisions": (
        _edge_doc([[{"step": "C", "dur": 5}, {"step": "D", "dur": 3}, {"step": "E", "dur": 2}]],
                  replace=((b"<divisions>4<", b"<divisions>2.5<"),)),
        5, [0], [(0, 2), (2, Fraction(6, 5)), (Fraction(16, 5), Fraction(4, 5))], [], []),
    "decimal durations": (
        _edge_doc([[{"step": "C", "dur": "1.5"}, {"step": "D", "dur": "3.3"},
                    {"step": "E", "dur": "11.2"}]]),
        40, [0], [(0, Fraction(3, 8)), (Fraction(3, 8), Fraction(33, 40)),
                  (Fraction(6, 5), Fraction(14, 5))], [], []),
    "negative and decimal dynamics offsets": (
        _DYNAMICS, 8, [0, 4], [(0, 4), (4, 2), (6, 2)],
        [Fraction(1, 8), Fraction(29, 8), Fraction(21, 4)], []),
    "backup past the measure start": (
        _edge_doc([[{"step": "C", "dur": 8}, {"step": "D", "dur": 8}], [{"step": "E", "dur": 16}]],
                  after_first_note=b"<backup><duration>12</duration></backup>"),
        1, [0, 2], [(0, 2), (0, 2), (2, 4)], [], ["backup before start of measure"]),
    "chord, grace and cue notes": (
        _edge_doc([[{"step": "C", "dur": 4}, {"step": "E", "dur": 4, "chord": True},
                    {"step": "G", "dur": 0, "grace": True}, {"step": "F", "dur": 8}]],
                  replace=((b"<note><grace/>", b"<note><cue/><pitch><step>D</step><octave>4"
                            b"</octave></pitch><duration>4</duration></note><note><grace/>"),)),
        1, [0], [(0, 1), (0, 1), (2, 0), (2, 2)], [],
        ["voice 1 sums to 3 quarters, signature says 4"]),
    **{f"divisions {text}": (
        _edge_doc([[{"step": "C", "dur": 6}, {"step": "D", "dur": 10}], [{"step": "E", "dur": 6},
                                                                    {"step": "F", "dur": 10}]],
                  replace=((b'<measure number="2">', b'<measure number="2"><attributes>'
                            b'<divisions>%s</divisions></attributes>' % text.encode()),)),
        2, [0, 4], [(0, Fraction(3, 2)), (Fraction(3, 2), Fraction(5, 2)),
                    (4, Fraction(3, 2)), (Fraction(11, 2), Fraction(5, 2))], [], [warning])
       for text, warning in (("0", "divisions '0' not positive"),
                             ("-2", "divisions '-2' not positive"),
                             ("abc", "unreadable divisions 'abc'"),
                             ("1/0", "unreadable divisions '1/0'"))},
    **{f"time signature {beats}/{beat_type}": (
        _edge_doc([[{"step": "C", "dur": 16}], [], [{"step": "D", "dur": 16}]],
                  after_first_note=b"<attributes><time><beats>%s</beats><beat-type>%s"
                  b"</beat-type></time></attributes>" % (beats.encode(), beat_type.encode())),
        1, [0, 4, 8], [(0, 4), (8, 4)], [], [f"unreadable time signature {beats}/{beat_type}"])
       for beats, beat_type in (("3", "0"), ("-3", "4"), ("0", "4"))},
    "zero and negative durations": (
        _NON_POSITIVE, 1, [0], [(0, 2), (0, 4)], [],
        ["note duration 0 not positive", "rest duration -1 not positive",
         "note duration -3 not positive"]),
    "negative forward": (
        _NEGATIVE_FORWARD, 1, [0, 4], [(i, 1) for i in range(8)], [],
        ["forward duration -2 negative; skipped"]),
    "negative forward, then a positive one": (
        _NEGATIVE_THEN_POSITIVE_FORWARD, 1, [0, 4], [(i, 1) for i in (0, 1, 2, 3, 4, 5, 6, 9)],
        [], ["forward duration -2 negative; skipped"]),
    "parts with divisions 7 and 9": (
        _SEVEN_AND_NINE, 63, [0],
        [(0, Fraction(3, 7)), (Fraction(3, 7), Fraction(4, 7)), (1, 3),
         (0, Fraction(2, 9)), (Fraction(2, 9), Fraction(7, 9)), (1, 3)], [], []),
    "repeated note children": (
        _REPEATED, 1, [0], [(0, 1), (1, 2), (3, 1)], [],
        ["3 dots clamped to 2", "microtonal alter 0.5 rounded", "microtonal alter 0.5 rounded"]),
    "empty 3/8 measure at divisions 1": (
        _edge_doc([[], [{"step": "C", "dur": 1}]], divisions=1, beats=3, beat_type=8),
        2, [0, Fraction(3, 2)], [(Fraction(3, 2), 1)], [],
        ["voice 1 sums to 1 quarters, signature says 3/2"]),
}


class TestExactTime:
    @pytest.mark.parametrize("name", EDGE_DOCS)
    def test_times_read_exactly(self, name):
        doc, tpq, offsets, events, marks, warnings = EDGE_DOCS[name]
        score, diags = parse_musicxml(doc)
        assert score.ticks_per_quarter == tpq
        assert [quarters(score, t) for t in score.measure_offsets] == offsets
        assert [(quarters(score, e.onset), quarters(score, e.duration))
                for p in score.parts for e in p.events] == events
        assert [quarters(score, pos) for p in score.parts for pos, _ in p.dynamic_marks] == marks
        assert len(diags.warnings) == len(warnings)
        for (_loc, message), text in zip(diags.warnings, warnings):
            assert text in message


class TestBadTimeValues:
    def test_non_positive_durations_are_tallied(self):
        _score, diags = parse_musicxml(_NON_POSITIVE)
        assert diags.skipped_elements["non-positive-duration"] == 3

    def test_negative_forward_is_tallied(self):
        _score, diags = parse_musicxml(_NEGATIVE_FORWARD)
        assert diags.skipped_elements["non-positive-duration"] == 1

    def test_negative_cue_duration_is_tallied(self):
        cue = b"<note><cue/><pitch><step>D</step><octave>4</octave></pitch><duration>-4</duration></note>"
        doc = _edge_doc([[{"step": "C", "dur": 16}]], replace=((b"<note>", cue + b"<note>"),))
        score, diags = parse_musicxml(doc)
        assert [e.onset for e in counted(score.parts[0])] == [0]  # the cursor stopped at 0
        assert diags.skipped_elements["cue"] == 1
        assert diags.skipped_elements["non-positive-duration"] == 1
        assert any("cue duration -1 negative" in msg for _, msg in diags.warnings)

    def test_negative_duration_of_a_note_without_a_usable_pitch_stops_at_the_measure_start(self):
        doc = musicxml_doc([("Oboe", [
            [{"step": "C", "dur": 16}],
            [{"step": "2.5", "dur": -4}, {"kind": "rest", "dur": 8}, {"step": "D", "dur": 8}],
        ])], divisions=4)
        score, diags = parse_musicxml(doc)
        assert [quarters(score, e.onset) for e in score.parts[0].events] == [0, 4, 6]
        assert score.measure_offsets == (0, 4 * score.ticks_per_quarter)
        assert any("unusable pitch" in msg for _, msg in diags.warnings)

    def test_bad_time_signature_keeps_the_previous_one(self):
        doc = EDGE_DOCS["time signature 3/0"][0]
        score, _ = parse_musicxml(doc)
        assert score.time_signatures == ((1, 4, 4),)


class TestDurationTexts:
    """A note's ``<duration>`` is read with ``int`` first; every text gives
    the ticks, warnings and tallies that ``_duration_units`` gives."""

    @pytest.mark.parametrize("text", [None, "", "1.5", " 2 ", "+2", "-1", "1_0", "0", "x"])
    def test_a_note_duration_reads_as_duration_units_reads_it(self, text):
        doc = musicxml_doc([("Violin", [[{"step": "C", "dur": 8}, {"step": "D", "dur": 8}]])])
        first = b"" if text is None else b"<duration>%s</duration>" % text.encode()
        doc = doc.replace(b"<duration>8</duration>", first, 1)
        state = musicxml._PartState(musicxml._document_unit(ET.fromstring(doc)))
        state.per_division = state.unit // 4  # <divisions>4</divisions>
        oracle = ParseDiagnostics()
        units = musicxml._duration_units(text, "note", state, oracle, "part P1 measure 1")
        score, diags = parse_musicxml(doc)
        events = [(quarters(score, e.onset), quarters(score, e.duration))
                  for e in score.parts[0].events]
        length = Fraction(units, state.unit)
        if units > 0:
            assert events == [(0, length), (length, 2)]
        else:  # skipped, with the cursor stopped at the measure start
            assert events == [(0, 2)]
            assert diags.warnings[len(oracle.warnings)][1] == (
                f"note duration {length} not positive; skipped")
        assert diags.warnings[:len(oracle.warnings)] == oracle.warnings
        assert diags.skipped_elements.get("non-positive-duration", 0) == (units <= 0)


class TestRepeatedChildren:
    def test_the_first_of_each_child_is_read(self):
        score, diags = parse_musicxml(_REPEATED)
        note = score.parts[0].events[1]
        assert (note.pitch.name, note.tie, note.dots) == ("D4", "continue", 2)
        assert note.lyric == Lyric("la", "begin")
        assert score.parts[0].events[2].pitch.name == "D4"
        assert diags.skipped_elements == {"lyric-verse": 1}


class TestLongTexts:
    def test_padded_and_long_texts_are_not_kept_after_the_parse(self):
        def doc(n):
            pad = " " * n
            return musicxml_doc([("Violin", [[
                {"step": "C" + pad, "octave": pad + "4", "dur": "8" + pad},
                {"step": "D", "alter": "0" * n + "1", "dur": 4},
                {"step": "X" * (n + 1), "dur": 4},
            ]])])

        parse_musicxml(doc(1))  # fills every cache the short texts reach
        big = doc(1_000_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            score, diags = parse_musicxml(big)
            assert [e.pitch.name for e in score.parts[0].events] == ["C4", "D#4"]
            assert "invalid step" in diags.warnings[0][1]
            del score, diags
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 100_000


class TestRoundTrip:
    def test_random_inventories_round_trip(self):
        rng = random.Random(20250811)
        for _ in range(30):
            doc, expected = random_musicxml(rng)
            score, diags = parse_musicxml(doc)
            assert not diags.warnings
            assert len(score.parts) == len(expected)
            for p, inventory in zip(score.parts, expected):
                got = [(midi_number(e.pitch), quarters(score, e.duration)) for e in counted(p)]
                assert got == inventory


# Leaf texts that break numbers, names and fractions in their own ways.
_LEAF_TEXTS = ("", " 7 ", "-1", "-4", "0", "2.5", "+3", "1/0", "abc", "nan", "inf", "-inf",
               "1e999", "99999999999999999999")


def _mutated(seed: int, edits) -> bytes:
    """``random_musicxml(Random(seed))`` with leaf texts replaced: each edit
    is (leaf index, taken modulo the leaf count, and its new text)."""
    root = ET.fromstring(random_musicxml(random.Random(seed))[0])
    leaves = [el for el in root.iter() if len(el) == 0 and el.text is not None]
    for index, text in edits:
        leaves[index % len(leaves)].text = text
    return ET.tostring(root)


class TestMutatedLeaves:
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(_LEAF_TEXTS)),
                    min_size=1, max_size=2))
    # a note with an unreadable step and a negative duration moved the cursor
    # before its measure's start, and the next measure's part lost its order
    @example(2573, [(23, "-4"), (21, "2.5")])
    def test_a_mutated_document_parses_or_raises_musicxml_error(self, seed, edits):
        try:
            score, _diags = parse_musicxml(_mutated(seed, edits))
        except MusicXMLError:
            return
        for p in score.parts:
            p.notes
