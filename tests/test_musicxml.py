import random
from fractions import Fraction

import pytest

from scorefeat import musicxml
from scorefeat.model import midi_number, note_count
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
