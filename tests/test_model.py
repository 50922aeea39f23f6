import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scorefeat.model import (
    PitchRangeError,
    Score,
    SpelledPitch,
    WindowRangeError,
    governing_indices,
    melodic_line,
    merged_durations,
    midi_number,
    note_count,
    slice_window,
    sounding_measures,
)
from util import P, note, part, random_model_score, rest, score

spelled = st.builds(
    SpelledPitch,
    step=st.sampled_from("CDEFGAB"),
    alter=st.integers(-2, 2),
    octave=st.integers(0, 8),
)


class TestMidiNumber:
    def test_c4_is_60(self):
        assert midi_number(P("C", 0, 4)) == 60

    def test_b_sharp_3_is_60(self):
        assert midi_number(P("B", 1, 3)) == 60

    def test_d_flat_5_is_73(self):
        assert midi_number(P("D", -1, 5)) == 73

    def test_out_of_range_rejected(self):
        with pytest.raises(PitchRangeError):
            midi_number(P("B", 2, 9))

    @given(spelled)
    def test_monotone_in_octave(self, p):
        higher = SpelledPitch(p.step, p.alter, p.octave + 1)
        try:
            a, b = midi_number(p), midi_number(higher)
        except PitchRangeError:
            return
        assert b == a + 12

    @given(st.integers(0, 127))
    def test_enharmonic_spellings_share_midi(self, m):
        # flatwise and sharpwise spellings of the same number agree
        from scorefeat.midi import _FLAT_SPELLING, _SHARP_SPELLING

        for table in (_SHARP_SPELLING, _FLAT_SPELLING):
            step, alter = table[m % 12]
            assert midi_number(SpelledPitch(step, alter, m // 12 - 1)) == m


class TestScore:
    def test_measure_offsets_required(self):
        with pytest.raises(TypeError, match="measure_offsets"):
            Score(source_id="s", parts=(), num_measures=1, time_signatures=((1, 4, 4),))

    def test_measure_offsets_one_per_measure(self):
        with pytest.raises(ValueError, match="measure_offsets"):
            Score(source_id="s", parts=(), num_measures=2, time_signatures=((1, 4, 4),),
                  measure_offsets=(Fraction(0),))


class TestCounting:
    def test_rests_not_counted(self):
        p = part([note("C", onset=0, dur=1), rest(onset=1, dur=1), note("C", onset=2, dur=2)])
        assert note_count(p) == 2

    def test_tie_chain_counts_once(self):
        p = part([note("C", onset=0, dur=1, tie="start"), note("C", onset=1, dur=1, tie="stop")])
        assert note_count(p) == 1

    def test_empty_part(self):
        assert note_count(part([])) == 0

    def test_grace_notes_excluded(self):
        p = part([note("C", onset=0, dur=0, grace=True), note("D", onset=0, dur=4)])
        assert note_count(p) == 1

    def test_sounding_measures_sparse(self):
        p = part(
            [note("C", onset=0, dur=4, measure=1), note("D", onset=8, dur=4, measure=3)],
            measures=4,
        )
        assert sounding_measures(p) == {1, 3}

    def test_all_rest_part(self):
        p = part([rest(onset=0, dur=4, measure=1)], measures=4)
        assert sounding_measures(p) == set()

    def test_tie_across_barline_attributed_to_start(self):
        # enumeration oracle: the only counted event lives in measure 2
        events = [
            note("G", onset=4, dur=4, measure=2, tie="start"),
            note("G", onset=8, dur=2, measure=3, tie="stop"),
        ]
        counted = [e for e in events if e.tie in ("none", "start")]
        assert {e.measure_index for e in counted} == {2}
        assert sounding_measures(part(events, measures=3)) == {2}

    def test_merged_durations_sum_chain(self):
        p = part(
            [
                note("C", onset=0, dur=1, tie="start"),
                note("C", onset=1, dur=1, tie="continue"),
                note("C", onset=2, dur=2, tie="stop"),
                note("E", onset=4, dur=1),
            ]
        )
        merged = merged_durations(p)
        assert [(e.pitch.step, d) for e, d in merged] == [("C", 4), ("E", 1)]

    def test_melodic_line_keeps_chord_top(self):
        p = part(
            [
                note("C", octave=4, onset=0, dur=1),
                note("E", octave=5, onset=0, dur=1),
                note("G", octave=3, onset=1, dur=1),
            ]
        )
        assert [e.pitch.name for e in melodic_line(p)] == ["E5", "G3"]


class TestSliceWindow:
    def _ten_measures(self):
        events = [note("C", onset=4 * m, dur=4, measure=m + 1) for m in range(10)]
        return score([part(events, measures=10)], measures=10)

    def test_window_of_three(self):
        window = slice_window(self._ten_measures(), 1, 3)
        assert window.num_measures == 3
        assert note_count(window.parts[0]) == 3

    def test_partial_window_at_end(self):
        window = slice_window(self._ten_measures(), 9, 3)
        assert window.num_measures == 2
        assert window.first_measure == 9

    def test_start_beyond_end_raises(self):
        with pytest.raises(WindowRangeError):
            slice_window(self._ten_measures(), 11, 3)

    def test_onsets_not_rebased(self):
        window = slice_window(self._ten_measures(), 3, 2)
        assert [e.onset for e in window.parts[0].events] == [Fraction(8), Fraction(12)]

    def test_disjoint_cover_partitions_note_count(self):
        # brute-force partition check over random scores
        rng = random.Random(7)
        for _ in range(20):
            s = random_model_score(rng)
            for size in (1, 2, 3):
                totals = [0] * len(s.parts)
                start = 1
                while start <= s.num_measures:
                    w = slice_window(s, start, size)
                    for i, p in enumerate(w.parts):
                        totals[i] += note_count(p)
                    start += size
                assert totals == [note_count(p) for p in s.parts]

    def test_annotation_filter(self):
        from scorefeat.harmony import attach_annotations, parse_harmony_file

        s = self._ten_measures()
        anns = parse_harmony_file(
            "measure\tbeat\tlabel\tkey\n1\t0\tI\tC\n2\t0\tV\tC\n3\t0\tI\tC\n9\t0\tIV\tC\n"
        )
        s = attach_annotations(s, anns)
        w = slice_window(s, 2, 2)
        assert [a.measure_index for a in w.annotations] == [2, 3]

    def test_governing_dynamic_carried_into_window(self):
        events = [note("C", onset=4 * m, dur=4, measure=m + 1) for m in range(4)]
        p = part(events, measures=4, dynamics=[(0, "p"), (12, "f")])
        w = slice_window(score([p], measures=4), 2, 2)
        assert w.parts[0].dynamic_marks == ((Fraction(4), "p"),)


def _scan_governing(positions, query):
    """Reference for governing_indices: the front-to-back scan that stops at
    the first mark after the query."""
    idx = -1
    for i, pos in enumerate(positions):
        if pos <= query:
            idx = i
        else:
            break
    return idx


class TestGoverningIndices:
    @given(st.lists(st.integers(0, 8)), st.lists(st.integers(-1, 9)))
    @example([], [0])  # no marks at all
    @example([2, 4], [0, 1])  # queries before the first mark
    @example([3, 3, 5, 5], [3, 4, 5])  # ties resolve to the last equal mark
    @example([0, 6, 2, 4, 9, 1], [1, 2, 5, 6, 8, 9])  # unsorted positions
    def test_matches_front_to_back_scan(self, positions, queries):
        expected = [_scan_governing(positions, q) for q in queries]
        assert governing_indices(positions, queries) == expected

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.fractions(0, 4, max_denominator=4))),
        st.lists(st.tuples(st.integers(1, 4), st.fractions(0, 4, max_denominator=4))),
    )
    def test_measure_beat_positions_match_scan(self, positions, queries):
        expected = [_scan_governing(positions, q) for q in queries]
        assert governing_indices(positions, queries) == expected
