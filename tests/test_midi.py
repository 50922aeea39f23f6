import math
import random
import struct
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scorefeat import midi
from scorefeat.midi import MidiError, import_midi
from scorefeat.model import midi_number, note_count
from util import _vlq, midi_bytes, midi_meta_track, midi_note_events, midi_track, quarters


def one_note_file(on=0, off=480, pitch=60, vel=80, tpq=480, meta=None):
    events = list(meta or []) + midi_note_events([(on, off, pitch, vel)])
    return midi_bytes([events], tpq=tpq)


class TestBasics:
    def test_single_quarter_note(self):
        score, _ = import_midi(one_note_file(meta=midi_meta_track(timesig=(4, 4))))
        assert len(score.parts) == 1
        p = score.parts[0]
        assert note_count(p) == 1
        assert quarters(score, p.events[0].duration) == Fraction(1)
        assert midi_number(p.events[0].pitch) == 60

    def test_quantization_to_nearest_sixteenth(self):
        score, _ = import_midi(one_note_file(off=250))
        assert quarters(score, score.parts[0].events[0].duration) == Fraction(1, 2)

    def test_duration_floored_at_one_grid_unit(self):
        score, _ = import_midi(one_note_file(off=10))
        assert quarters(score, score.parts[0].events[0].duration) == Fraction(1, 4)

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

    def test_tick_base_is_the_grid(self):
        score, _ = import_midi(one_note_file(on=7, off=250, meta=midi_meta_track(timesig=(6, 8))))
        assert score.ticks_per_quarter == 4
        assert [(e.onset, e.duration) for e in score.parts[0].events] == [(0, 2)]

    @pytest.mark.parametrize("signature_tick,timesig,tpq,offsets", [
        (0, (5, 32), 8, [0, 5, 10, 15, 20]),  # 5/8-quarter measures
        (7, (3, 4), 480, [0, 7]),  # a barline 7/480 quarter in
    ])
    def test_tick_base_refined_for_off_grid_barlines(self, signature_tick, timesig, tpq,
                                                     offsets):
        meta = [(signature_tick, event) for _, event in midi_meta_track(timesig=timesig)]
        score, _ = import_midi(one_note_file(off=1440, meta=meta))
        assert score.ticks_per_quarter == tpq
        assert list(score.measure_offsets) == offsets

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


def _grid_quarters(ticks, tpq, floor_one_step=False):
    """``ticks`` in quarters, rounded half up to the sixteenth, in Fractions."""
    steps = math.floor(Fraction(ticks, tpq) * 4 + Fraction(1, 2))
    return Fraction(max(1, steps) if floor_one_step else steps, 4)


@st.composite
def tpq_and_spans(draw):
    """A ticks-per-quarter and (onset, length) tick pairs of up to four bars."""
    tpq = draw(st.integers(1, 960))
    spans = draw(st.lists(st.tuples(st.integers(0, 16 * tpq), st.integers(0, 4 * tpq)),
                          min_size=1, max_size=8))
    return tpq, spans


class TestQuantization:
    @given(tpq_and_spans())
    @example((8, [(1, 3), (5, 1), (3, 4)]))  # half steps: 1/2, 5/2, 3/2 -> 1, 3, 2
    @example((24, [(3, 3), (9, 9), (0, 0)]))  # 1/2, 3/2 and a zero length
    @example((2, [(1, 1), (3, 5)]))  # every tick of tpq 2 is two steps
    @example((1, [(0, 0), (16, 4)]))
    def test_round_half_up_to_the_sixteenth(self, case):
        tpq, spans = case
        notes = [(on, on + length, 40 + i, 64) for i, (on, length) in enumerate(spans)]
        score, _ = import_midi(midi_bytes([midi_note_events(notes)], tpq=tpq))
        got = {midi_number(e.pitch): (quarters(score, e.onset), quarters(score, e.duration))
               for e in score.parts[0].events}
        assert got == {pitch: (_grid_quarters(on, tpq), _grid_quarters(off - on, tpq, True))
                       for on, off, pitch, _vel in notes}


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

    def test_track_cut_at_every_byte_imports_or_is_truncated(self):
        notes = [(0, 480, 60, 80), (480, 960, 62, 80), (960, 1440, 64, 80)]
        body = midi_track(midi_meta_track(name="Flute", timesig=(3, 4)) + midi_note_events(notes))
        header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, 480)
        imported = truncated = 0
        for cut in range(len(body) + 1):
            data = header + b"MTrk" + struct.pack(">I", cut) + body[:cut]
            try:
                import_midi(data)
                imported += 1
            except MidiError as exc:
                assert "truncated file while reading" in str(exc), (cut, exc)
                truncated += 1
        assert (len(body), imported, truncated) == (48, 10, 39)

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


class TestDeltaTimes:
    @pytest.mark.parametrize("rest", [0, 127, 128, 16_383, 16_384, 20_000])
    def test_delta_times_of_one_to_three_bytes(self, rest):
        assert len(_vlq(rest)) == 1 + (rest >= 128) + (rest >= 16_384)
        notes = [(0, 480, 60, 80), (480 + rest, 960 + rest, 62, 80)]
        score, diags = import_midi(midi_bytes([midi_note_events(notes)]))
        events = score.parts[0].events
        assert [(quarters(score, e.onset), quarters(score, e.duration)) for e in events] == [
            (0, 1), (_grid_quarters(480 + rest, 480), 1)]
        assert diags.warnings == []

    @pytest.mark.parametrize("delta", [b"\x81", b"\x81\x80", b"\xff\xff\xff"])
    def test_a_track_that_ends_inside_a_delta_time_is_truncated(self, delta):
        body = midi_track(midi_note_events([(0, 480, 60, 80)]))[:-4] + delta
        data = b"MThd" + struct.pack(">IHHH", 6, 0, 1, 480) + b"MTrk" + struct.pack(
            ">I", len(body)) + body
        with pytest.raises(MidiError, match="truncated file while reading variable-length"):
            import_midi(data)

    def test_a_delta_time_over_four_bytes_is_fatal(self):
        body = b"\x81\x81\x81\x81\x00\xff\x2f\x00"
        data = b"MThd" + struct.pack(">IHHH", 6, 0, 1, 480) + b"MTrk" + struct.pack(
            ">I", len(body)) + body
        with pytest.raises(MidiError, match="longer than 4 bytes"):
            import_midi(data)


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

    def test_velocity_table_gives_the_nearest_marking(self):
        from scorefeat.features.core import nearest_dynamic_token

        assert len(midi.DYNAMIC_BY_VELOCITY) == 128
        assert list(midi.DYNAMIC_BY_VELOCITY) == [nearest_dynamic_token(v) for v in range(128)]

    def test_every_velocity_byte_is_marked_as_the_nearest_level(self):
        from scorefeat.features.core import nearest_dynamic_token

        velocities = range(1, 128)
        notes = [(480 * i, 480 * i + 240, 60, v) for i, v in enumerate(velocities)]
        score, _ = import_midi(midi_bytes([midi_note_events(notes)]))
        marks = dict(score.parts[0].dynamic_marks)
        expected, last = [], None
        for onset, v in zip(sorted(e.onset for e in score.parts[0].events), velocities):
            token = nearest_dynamic_token(v)
            if token != last:
                expected.append((onset, token))
                last = token
        assert list(marks.items()) == expected

    def test_every_velocity_byte_over_127_skips_its_note_on(self):
        for velocity in range(128, 256):  # a status byte where data belongs
            notes = [(0, 480, 60, 80), (480, 960, 62, velocity), (960, 1440, 64, 80)]
            score, diags = import_midi(midi_bytes([midi_note_events(notes)]))
            assert [e.pitch.name for e in score.parts[0].events] == ["C4", "E4"]
            assert diags.skipped_elements == {"bad-data-byte": 1}
            assert diags.warnings == [("track 0", f"data byte over 0x7f in event 90 3e "
                                                  f"{velocity:02x} at tick 480; skipped")]

    def test_bad_data_byte_skips_only_its_event(self):
        # a program change to 0xC8 and a note-off for 0xBE: the program stays
        # 0 (piano) and the first note sounds to the track end
        events = [(0, bytes([0xC0, 0xC8]))] + midi_note_events([(0, 480, 60, 80)])
        events[-1] = (480, bytes([0x80, 0xBE, 0]))
        events.append((960, bytes([0x90, 62, 80])))
        events.append((1440, bytes([0x80, 62, 0])))
        score, diags = import_midi(midi_bytes([events]))
        assert score.parts[0].instrument_sound == "piano"
        assert [(e.pitch.name, quarters(score, e.duration))
                for e in score.parts[0].events] == [("C4", 3), ("D4", 1)]
        assert diags.skipped_elements == {"bad-data-byte": 2}
        assert len(diags.warnings) == 3
        assert "unterminated note 60" in diags.warnings[-1][1]

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


def _random_smf(seed: int) -> bytes:
    """A two-track SMF of up to 12 notes, chords and rests among them."""
    rng = random.Random(seed)
    notes, tick = [], 0
    for _ in range(rng.randint(1, 12)):
        length = rng.choice([120, 240, 480, 960])
        notes.append((tick, tick + length, rng.randint(40, 90), rng.randint(1, 127)))
        tick += rng.choice([0, length, 2 * length])
    meta = midi_meta_track(name="Piano", tempo_bpm=100, timesig=(3, 4), keysig=(1, 0))
    return midi_bytes([meta, midi_note_events(notes)])


class TestFlippedBytes:
    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(0, 10**4), st.integers(1, 255)), min_size=1, max_size=3))
    def test_a_flipped_file_imports_or_raises_midi_error(self, seed, flips):
        data = bytearray(_random_smf(seed))
        for index, mask in flips:
            data[index % len(data)] ^= mask
        try:
            score, _diags = import_midi(bytes(data))
        except MidiError:
            return
        for p in score.parts:
            p.notes
