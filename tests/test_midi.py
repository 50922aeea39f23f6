import random
import struct
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scorefeat import midi
from scorefeat.midi import MidiError, import_midi
from scorefeat.model import midi_number, note_count
from util import midi_bytes, midi_meta_track, midi_note_events


def one_note_file(on=0, off=480, pitch=60, vel=80, tpq=480, meta=None):
    events = list(meta or []) + midi_note_events([(on, off, pitch, vel)])
    return midi_bytes([events], tpq=tpq)


class TestBasics:
    def test_single_quarter_note(self):
        score, _ = import_midi(one_note_file(meta=midi_meta_track(timesig=(4, 4))))
        assert len(score.parts) == 1
        p = score.parts[0]
        assert note_count(p) == 1
        assert p.events[0].duration == Fraction(1)
        assert midi_number(p.events[0].pitch) == 60

    def test_quantization_to_nearest_sixteenth(self):
        score, _ = import_midi(one_note_file(off=250))
        assert score.parts[0].events[0].duration == Fraction(1, 2)

    def test_duration_floored_at_one_grid_unit(self):
        score, _ = import_midi(one_note_file(off=10))
        assert score.parts[0].events[0].duration == Fraction(1, 4)

    def test_two_tracks_two_parts_in_track_order(self):
        t1 = midi_note_events([(0, 480, 60, 64)], channel=0)
        t2 = midi_note_events([(0, 480, 72, 64)], channel=1)
        data = midi_bytes([midi_meta_track(name="Violin") + t1,
                           midi_meta_track(name="Oboe") + t2], fmt=1)
        score, _ = import_midi(data)
        assert [p.instrument_sound for p in score.parts] == ["violin", "oboe"]

    def test_measures_from_time_signature(self):
        notes = [(0, 480, 60, 64), (480 * 3, 480 * 4, 64, 64), (480 * 7, 480 * 8, 67, 64)]
        data = midi_bytes([midi_meta_track(timesig=(3, 4)) + midi_note_events(notes)])
        score, _ = import_midi(data)
        assert score.num_measures == 3
        assert [e.measure_index for e in score.parts[0].events] == [1, 2, 3]

    def test_last_note_ending_on_barline_adds_no_measure(self):
        notes = [(0, 480 * 4, 60, 64), (480 * 4, 480 * 8, 64, 64)]
        score, _ = import_midi(midi_bytes([midi_meta_track(timesig=(4, 4))
                                           + midi_note_events(notes)]))
        assert score.num_measures == 2
        assert score.parts[0].measure_count == 2

    def test_onset_quantized_onto_final_barline_gets_a_measure(self):
        # 1915..1925 snaps to onset 4, end 4 on the sixteenth grid: the note
        # starts on the last quantized end and still needs measure 2
        notes = [(0, 480 * 4, 60, 64), (1915, 1925, 64, 64)]
        score, _ = import_midi(midi_bytes([midi_meta_track(timesig=(4, 4))
                                           + midi_note_events(notes)]))
        assert score.num_measures == 2
        assert [e.measure_index for e in score.parts[0].events] == [1, 2]

    def test_time_signature_after_last_note_is_dropped(self):
        # a whole note over ticks 0-1920, then a 3/4 meta at tick 3840
        three_four = (480 * 8, bytes([0xFF, 0x58, 0x04, 3, 2, 24, 8]))
        meta = midi_meta_track(timesig=(4, 4)) + [three_four]
        score, _ = import_midi(one_note_file(off=480 * 4, meta=meta))
        assert score.num_measures == 1
        assert score.time_signatures == ((1, 4, 4),)

    def test_tempo_meta_to_bpm(self):
        data = midi_bytes([midi_meta_track(tempo_bpm=90) + midi_note_events([(0, 480, 60, 64)])])
        score, _ = import_midi(data)
        assert score.tempo_marks[0].bpm == pytest.approx(90, abs=0.01)


def reference_measure_at(measure_starts, onset):
    """The importer's former measure lookup, a hand-written binary search for
    the last measure starting at or before ``onset`` (1-based), kept as the
    reference for ``bisect_right``."""
    lo, hi = 0, len(measure_starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if measure_starts[mid] <= onset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


class TestMeasureLookup:
    lengths = st.lists(
        st.fractions(min_value=Fraction(1, 16), max_value=8, max_denominator=16),
        min_size=1, max_size=30,
    )

    @given(lengths, st.fractions(min_value=0, max_value=300))
    @example([Fraction(4)], Fraction(4))
    @example([Fraction(3), Fraction(3)], Fraction(3))
    def test_bisect_matches_reference(self, lengths, onset):
        # measure starts as the importer plans them: from 0, strictly rising;
        # every start and every mid-measure point is checked besides ``onset``
        starts = list(accumulate(lengths[:-1], initial=Fraction(0)))
        onsets = [onset, *starts, *(s + n / 2 for s, n in zip(starts, lengths))]
        for q in onsets:
            assert bisect_right(starts, q) == reference_measure_at(starts, q)


class TestErrors:
    def test_format_2_unsupported(self):
        data = midi_bytes([midi_note_events([(0, 480, 60, 64)])], fmt=2)
        with pytest.raises(MidiError, match="format 2"):
            import_midi(data)

    def test_smpte_unsupported(self):
        data = bytearray(one_note_file())
        division = 0x8000 | (25 << 8) | 40
        data[12:14] = struct.pack(">H", division)
        with pytest.raises(MidiError, match="SMPTE"):
            import_midi(bytes(data))

    def test_truncated_chunk_fatal(self):
        data = one_note_file()
        with pytest.raises(MidiError, match="truncated"):
            import_midi(data[:20])

    def test_not_midi(self):
        with pytest.raises(MidiError):
            import_midi(b"RIFFxxxx")

    def test_note_past_quarter_cap_fatal(self):
        # 36 bytes: one note of 2**20 ticks at 1 tick per quarter, which
        # would plan 262,144 measures of 4/4
        data = one_note_file(off=2**20, tpq=1)
        assert len(data) == 36
        with pytest.raises(MidiError, match="over the cap"):
            import_midi(data)

    def test_measure_cap_fatal(self):
        # 1/64 time: 1000 quarters make 16,000 measures
        data = one_note_file(off=1000, tpq=1, meta=midi_meta_track(timesig=(1, 64)))
        with pytest.raises(MidiError, match=f"more than {midi.MAX_MEASURES} measures"):
            import_midi(data)

    def test_measure_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(midi, "MAX_MEASURES", 4)
        score, _ = import_midi(one_note_file(off=480 * 16))
        assert score.num_measures == 4
        with pytest.raises(MidiError, match="more than 4 measures"):
            import_midi(one_note_file(off=480 * 17))


class TestSemantics:
    def test_key_signature_prefers_flats(self):
        data = midi_bytes(
            [midi_meta_track(keysig=(-3, 0)) + midi_note_events([(0, 480, 70, 64)])]
        )
        score, _ = import_midi(data)
        assert score.key_signature == -3
        assert score.parts[0].events[0].pitch.name == "Bb4"

    def test_sharp_spelling_by_default(self):
        score, _ = import_midi(one_note_file(pitch=61))
        assert score.parts[0].events[0].pitch.name == "C#4"

    def test_channel_10_is_percussion(self):
        events = midi_note_events([(0, 480, 36, 100)], channel=9)
        score, _ = import_midi(midi_bytes([events]))
        assert score.parts[0].family == "percussion"

    def test_velocity_binned_to_dynamics(self):
        notes = [(0, 480, 60, 49), (480, 960, 62, 112)]
        score, _ = import_midi(midi_bytes([midi_note_events(notes)]))
        assert [tok for _, tok in score.parts[0].dynamic_marks] == ["p", "ff"]

    def test_note_count_matches_paired_note_ons(self):
        rng = random.Random(99)
        notes = []
        tick = 0
        for _ in range(50):
            dur = rng.choice([120, 240, 480])
            notes.append((tick, tick + dur, rng.randint(48, 84), rng.randint(1, 127)))
            tick += dur
        score, _ = import_midi(midi_bytes([midi_note_events(notes)]))
        assert sum(note_count(p) for p in score.parts) == 50

    def test_no_lyrics_or_harmony_features_from_midi(self):
        from scorefeat.engine import ExtractorConfig, extract_unit
        from scorefeat.registry import feature_modules, resolve_feature_order

        data = midi_bytes(
            [midi_meta_track(name="Soprano") + midi_note_events([(0, 480, 72, 64)])]
        )
        score, _ = import_midi(data)
        config = ExtractorConfig()
        order = resolve_feature_order(feature_modules(), config.requested_modules())
        row = extract_unit(score, order, feature_modules())
        assert not any("NumSyllables" in k or "Melisma" in k for k in row)
        assert not any("NumAnnotations" in k or "Function_" in k for k in row)
