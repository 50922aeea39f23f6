import dataclasses
import random
from dataclasses import replace
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scorefeat.cache import cache_path, load_score, store_score
from scorefeat.diagnostics import ParseDiagnostics
from scorefeat.model import (
    STEP_SEMITONES,
    TIE_STATES,
    EventColumns,
    Lyric,
    NoteEvent,
    Part,
    PitchRangeError,
    Score,
    SpelledPitch,
    WindowRangeError,
    governing_indices,
    midi_number,
    note_count,
    slice_window,
    sounding_measures,
    spelled_pitch,
    tick_base,
    to_ticks,
)
from scorefeat.midi import import_midi
from scorefeat.musicxml import parse_musicxml
from util import (
    TPQ,
    P,
    midi_bytes,
    midi_note_events,
    musicxml_doc,
    note,
    part,
    random_model_score,
    random_musicxml,
    rest,
    score,
)

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


class TestMidiProperty:
    @given(st.sampled_from("CDEFGAB"), st.integers(-2, 2), st.integers(-3, 12))
    def test_is_the_midi_number_and_raises_where_it_did(self, step, alter, octave):
        n = 12 * (octave + 1) + STEP_SEMITONES[step] + alter
        p = SpelledPitch(step, alter, octave)
        if 0 <= n <= 127:
            assert p.midi == midi_number(p) == n
        else:
            for _ in range(2):  # a failure is not kept
                with pytest.raises(PitchRangeError, match=f"maps to MIDI {n}, outside 0..127"):
                    p.midi

    def test_fields_equality_hash_and_repr_are_the_plain_dataclass_ones(self):
        plain = dataclasses.make_dataclass(
            "SpelledPitch", [("step", str), ("alter", int, 0), ("octave", int, 4)], frozen=True)
        p, oracle = SpelledPitch("C", 1, 4), plain("C", 1, 4)
        assert p.midi == 61  # kept on the instance, and in none of the below
        assert [f.name for f in dataclasses.fields(p)] == ["step", "alter", "octave"]
        assert dataclasses.astuple(p) == dataclasses.astuple(oracle)
        assert (repr(p), hash(p)) == (repr(oracle), hash(oracle))
        assert p == SpelledPitch("C", 1, 4) and p != SpelledPitch("D", -1, 4)
        assert dataclasses.replace(p, octave=5).midi == 73


class TestInternedSpellings:
    def test_parsers_and_cache_share_one_instance(self, tmp_path):
        xml, _ = parse_musicxml(musicxml_doc([("Violin", [[{"step": "C", "dur": 16}]])]))
        mid, _ = import_midi(midi_bytes([midi_note_events([(0, 480, 60, 64)])]))
        store_score(tmp_path, "key", xml, ParseDiagnostics(), [])
        cached, _ = load_score(tmp_path, "key", [])
        first, *others = [s.parts[0].events[0].pitch for s in (xml, mid, cached)]
        assert all(p is first for p in others)

    def test_a_spelling_out_of_range_is_not_interned(self):
        # so reading one cannot evict a pitch that imports from the cache
        doc = musicxml_doc([("Violin", [[{"step": "C", "octave": 99, "dur": 16}]])])
        before = spelled_pitch.cache_info()
        _score, diags = parse_musicxml(doc)
        assert "outside 0..127" in diags.warnings[0][1]
        after = spelled_pitch.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_a_float_read_from_an_entry_is_interned_apart(self):
        decoded = spelled_pitch("C", 0.0, 4)
        assert spelled_pitch("C", 0, 4) is not decoded
        assert type(spelled_pitch("C", 0, 4).alter) is int


# NoteEvent as a plain frozen dataclass declares it: the oracle for its
# equality, hash and repr.
_PlainEvent = dataclasses.make_dataclass("NoteEvent", [
    ("kind", str), ("onset", int), ("duration", int), ("measure_index", int),
    ("pitch", object, None), ("tie", str, "none"), ("dots", int, 0),
    ("lyric", object, None), ("grace", bool, False),
], frozen=True)


class TestNoteEvent:
    def _events(self):
        return [NoteEvent("note", 0, 4, 1, P("C")),
                NoteEvent(kind="note", onset=8, duration=2, measure_index=2, pitch=P("E", -1, 5),
                          tie="start", dots=1, lyric=Lyric("la", "begin")),
                NoteEvent("rest", 12, 4, 2),
                NoteEvent("note", 16, 0, 2, P("G"), grace=True)]

    def test_fields_cannot_be_assigned(self):
        e = NoteEvent("note", 0, 4, 1, P("C"))
        for name, value in (("onset", 1), ("pitch", None), ("grace", True)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del e.kind
        assert e.onset == 0

    def test_replace_runs_the_checks_again(self):
        e = NoteEvent("note", 0, 4, 1, P("C"))
        assert replace(e, onset=8) == NoteEvent("note", 8, 4, 1, P("C"))
        for changes, error in (({"duration": 0}, ValueError), ({"onset": -1}, ValueError),
                               ({"kind": "chord"}, ValueError), ({"pitch": None}, ValueError),
                               ({"tie": "open"}, ValueError), ({"dots": 3}, ValueError),
                               ({"onset": 0.5}, TypeError)):
            with pytest.raises(error):
                replace(e, **changes)

    def test_equality_hash_and_repr_are_the_dataclass_ones(self):
        events = self._events()
        plain = [_PlainEvent(**{f.name: getattr(e, f.name) for f in dataclasses.fields(e)})
                 for e in events]
        assert [repr(e) for e in events] == [repr(p) for p in plain]
        assert [hash(e) for e in events] == [hash(p) for p in plain]
        assert events == self._events()
        assert len(set(events)) == len(events)
        assert events[0] != replace(events[0], dots=1)
        assert events[0] != plain[0]  # another class, as for any dataclass
        assert [dataclasses.astuple(e) for e in events] == [dataclasses.astuple(p) for p in plain]
        assert NoteEvent.__match_args__ == _PlainEvent.__match_args__


def _event_rules(kind, onset, duration, measure_index, pitch, tie, dots, lyric, grace):
    """The rules NoteEvent's constructor checked, one event at a time."""
    if kind not in ("note", "rest"):
        raise ValueError(f"invalid event kind {kind!r}")
    if kind == "note" and pitch is None:
        raise ValueError("note event requires a pitch")
    if tie not in TIE_STATES:
        raise ValueError(f"invalid tie state {tie!r}")
    if dots not in (0, 1, 2):
        raise ValueError(f"dots must be 0..2, got {dots}")
    if type(onset) is not int or type(duration) is not int:
        raise TypeError("onset and duration must be whole ticks (int)")
    if onset < 0:
        raise ValueError("onset must be non-negative")
    if grace:
        if duration < 0:
            raise ValueError("grace duration must be >= 0")
    elif duration <= 0:
        raise ValueError("duration must be positive")


def _order_rules(rows):
    """The event order a part required."""
    onsets, measures = [row[1] for row in rows], [row[3] for row in rows]
    if onsets != sorted(onsets):
        raise ValueError("events not sorted by onset")
    if measures != sorted(measures):
        raise ValueError("measure indices decrease in event order")


def _outcome(check) -> Optional[tuple[type, str]]:
    """The type and message of what ``check()`` raises, or None."""
    try:
        check()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


# Bad values planted in a valid row, by field: each breaks a rule or, for
# onset and measure, the order. A list is unhashable.
_PLANTED = {
    0: st.sampled_from(["chord", None, "", ["note"]]),
    1: st.one_of(st.sampled_from([-1, "0", 0.5, True, None]), st.integers(0, 40)),
    2: st.one_of(st.sampled_from([0, -1, 0.5, None, False]), st.integers(-2, 8)),
    3: st.integers(0, 9),
    4: st.none(),
    5: st.sampled_from(["open", None, "", ["none"]]),
    6: st.sampled_from([3, -1, 1.5, "1", True, [1]]),
    8: st.booleans(),
}


@st.composite
def _event_rows(draw, max_planted=3):
    """Rows of valid events in order, then up to ``max_planted`` planted values."""
    rows, onset, measure = [], 0, 1
    for _ in range(draw(st.integers(0, 6))):
        onset += draw(st.integers(0, 8))
        measure += draw(st.integers(0, 1))
        kind = draw(st.sampled_from(["note", "rest"]))
        grace = draw(st.booleans())
        duration = draw(st.integers(0 if grace else 1, 8))
        pitch = draw(st.sampled_from([P("C"), P("E", -1, 5)])) if kind == "note" else None
        lyric = draw(st.sampled_from([None, Lyric("la", "begin")]))
        rows.append([kind, onset, duration, measure, pitch, draw(st.sampled_from(TIE_STATES)),
                     draw(st.integers(0, 2)), lyric, grace])
    for _ in range(draw(st.integers(0, max_planted)) if rows else 0):
        field = draw(st.sampled_from(sorted(_PLANTED)))
        rows[draw(st.integers(0, len(rows) - 1))][field] = draw(_PLANTED[field])
    return [tuple(row) for row in rows]


def _columns(rows) -> list[tuple]:
    return [tuple(column) for column in zip(*rows)] if rows else [()] * 9


class TestEventColumns:
    @settings(max_examples=500)  # a planted value shows only in some rows
    @given(_event_rows())
    @example([("note", 0, 0, 1, P("C"), "none", 0, None, True),
              ("note", 4, -1, 1, P("C"), "none", 0, None, True)])
    @example([("rest", 0, 4, 1, None, "none", [1], None, False),
              ("chord", 4, 4, 1, None, "none", 0, None, False)])
    @example([("note", 0, 4, 2, P("C"), "none", 0, None, False),
              ("note", 4, 4, 1, P("C"), "none", 0, None, False)])
    @example([("note", 0, 0, 1, P("C"), "none", 0, None, True),
              ("rest", 0, 0, 1, None, "none", 0, None, False)])
    def test_columns_check_as_their_rows_and_order_do(self, rows):
        rules = _outcome(lambda: [_event_rules(*row) for row in rows])
        assert _outcome(lambda: [NoteEvent(*row) for row in rows]) == rules
        expected = rules or _outcome(lambda: _order_rules(rows))
        assert _outcome(lambda: EventColumns(*_columns(rows))) == expected

    @given(_event_rows(max_planted=0))
    def test_a_row_range_equals_its_rows_checked_afresh(self, rows):
        events = EventColumns(*_columns(rows))
        assert list(events) == [NoteEvent(*row) for row in rows]
        for first in range(len(rows) + 1):
            for last in range(first, len(rows) + 1):
                window = events.rows(first, last)
                assert window == EventColumns(*_columns(rows[first:last]))
                assert list(window) == list(events)[first:last]

    def test_columns_of_different_lengths_are_rejected(self):
        columns = _columns([("note", 0, 4, 1, P("C"), "none", 0, None, False)])
        columns[2] = ()
        with pytest.raises(ValueError, match="differ in length"):
            EventColumns(*columns)

    def test_events_are_built_once_and_given_events_kept(self):
        rows = [("note", 0, 4, 1, P("C"), "none", 0, None, False),
                ("rest", 4, 4, 1, None, "none", 0, None, False)]
        given_events = tuple(NoteEvent(*row) for row in rows)
        p = part(list(given_events))
        assert all(a is b for a, b in zip(p.events, given_events))
        columns = EventColumns(*_columns(rows))
        assert columns[0] is columns[0] and columns[-1] == given_events[-1]
        assert tuple(columns) == given_events and len(columns) == 2


class TestPart:
    def test_a_hook_that_moves_measures_out_of_order_raises(self):
        s = score([part([note("C", onset=0, measure=1), note("D", onset=4, measure=2)],
                        measures=2)])

        def swap_measures(s: Score) -> Score:
            p = s.parts[0]
            events = tuple(replace(e, measure_index=3 - e.measure_index) for e in p.events)
            return replace(s, parts=(replace(p, events=events),))

        with pytest.raises(ValueError, match="measure indices decrease"):
            swap_measures(s)


class TestScore:
    def test_measure_offsets_required(self):
        with pytest.raises(TypeError, match="measure_offsets"):
            Score(source_id="s", parts=(), num_measures=1, time_signatures=((1, 4, 4),))

    def test_part_ids_are_unique(self):
        violin = part([note("C")])
        with pytest.raises(ValueError, match=r"duplicate part identity \('violin', 1\)"):
            score([violin, violin])
        alias = replace(part([note("D")], sound="viola"), part_id=violin.part_id)
        with pytest.raises(ValueError, match="duplicate part id 'ViolinI'"):
            score([violin, alias])

    def test_measure_offsets_one_per_measure(self):
        with pytest.raises(ValueError, match="measure_offsets"):
            Score(source_id="s", parts=(), num_measures=2, time_signatures=((1, 4, 4),),
                  measure_offsets=(0,), ticks_per_quarter=1)


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
        cols = p.notes
        assert [(pitch.step, d) for pitch, d in zip(cols.pitch, cols.merged)] == [
            ("C", 4 * TPQ), ("E", TPQ)]

    def test_melodic_line_keeps_chord_top(self):
        p = part(
            [
                note("C", octave=4, onset=0, dur=1),
                note("E", octave=5, onset=0, dur=1),
                note("G", octave=3, onset=1, dur=1),
            ]
        )
        assert [p.notes.pitch[i].name for i in p.notes.line] == ["E5", "G3"]


# The event loops the note columns replaced, kept as references.

def reference_counted_notes(part: Part) -> list[NoteEvent]:
    return [
        e
        for e in part.events
        if e.kind == "note" and not e.grace and e.tie in ("none", "start")
    ]


def reference_merged_durations(part: Part) -> list[tuple[NoteEvent, int]]:
    result: list[tuple[NoteEvent, int]] = []
    open_chains: dict[int, int] = {}  # midi number -> index into result
    for e in part.events:
        if e.kind != "note" or e.grace:
            continue
        key = midi_number(e.pitch)
        if e.tie in ("none", "start"):
            result.append((e, e.duration))
            if e.tie == "start":
                open_chains[key] = len(result) - 1
        else:  # continue | stop
            idx = open_chains.get(key)
            if idx is not None:
                head, total = result[idx]
                result[idx] = (head, total + e.duration)
                if e.tie == "stop":
                    del open_chains[key]
    return result


def reference_melodic_line(part: Part) -> list[NoteEvent]:
    line: list[NoteEvent] = []
    kept = 0
    for e in reference_counted_notes(part):
        m = midi_number(e.pitch)
        if line and line[-1].onset == e.onset:
            if m > kept:
                line[-1] = e
                kept = m
        else:
            line.append(e)
            kept = m
    return line


def _parsed_random_musicxml(rng: random.Random) -> Score:
    return parse_musicxml(random_musicxml(rng)[0])[0]


_CHORD_WITH_TIE = score([part([
    note("C", onset=0, dur=1, tie="start"),
    note("G", onset=0, dur=1, tie="start"),
    note("E", onset=0, dur=1),
    note("C", onset=1, dur=Fraction(1, 3), tie="continue"),
    note("G", onset=1, dur=2, tie="stop"),
    note("C", onset=Fraction(4, 3), dur=Fraction(2, 3), tie="stop"),
    note("A", octave=5, onset=3, dur=1),
], dynamics=[(Fraction(1, 5), "p")])])
_GRACE = score([part([
    note("D", octave=5, onset=0, dur=0, grace=True),
    note("C", onset=0, dur=1),
    note("B", onset=1, dur=Fraction(1, 2), grace=True),
    note("E", onset=1, dur=1),
])])
_DANGLING = score([part([
    note("F", onset=0, dur=1, tie="stop"),
    note("F", onset=1, dur=1, tie="continue"),
    note("A", onset=2, dur=1, tie="start"),
    note("B", onset=3, dur=1, tie="stop"),
    note("G", onset=4, dur=1, tie="start"),
    note("G", onset=5, dur=1, tie="stop"),
    note("G", onset=6, dur=1, tie="stop"),  # its chain closed a beat ago
], measures=2)])


class TestNoteColumns:
    @given(st.one_of(
        st.randoms(use_true_random=False).map(random_model_score),
        st.randoms(use_true_random=False).map(_parsed_random_musicxml),
    ))
    @example(_CHORD_WITH_TIE)
    @example(_GRACE)
    @example(_DANGLING)
    def test_columns_match_the_event_loops(self, s):
        for p in s.parts:
            cols = p.notes
            heads = reference_counted_notes(p)
            merged = reference_merged_durations(p)
            assert [id(e) for e, _ in merged] == [id(e) for e in heads]
            assert list(cols.merged) == [d for _, d in merged]
            assert list(cols.onset) == [e.onset for e in heads]
            assert list(cols.duration) == [e.duration for e in heads]
            assert list(cols.midi) == [midi_number(e.pitch) for e in heads]
            assert list(cols.measure) == [e.measure_index for e in heads]
            assert list(cols.pitch) == [e.pitch for e in heads]
            assert list(cols.dots) == [e.dots for e in heads]
            assert list(cols.lyric) == [e.lyric for e in heads]
            line = reference_melodic_line(p)
            assert [cols.onset[i] for i in cols.line] == [e.onset for e in line]
            assert [cols.pitch[i] for i in cols.line] == [e.pitch for e in line]

    def test_chord_with_tie_pinned(self):
        cols = _CHORD_WITH_TIE.parts[0].notes
        assert [pitch.name for pitch in cols.pitch] == ["C4", "G4", "E4", "A5"]
        assert cols.merged == (2 * TPQ, 3 * TPQ, TPQ, TPQ)
        assert [cols.pitch[i].name for i in cols.line] == ["G4", "A5"]

    def test_columns_never_enter_the_entry(self, tmp_path):
        s = random_model_score(random.Random(5))
        store_score(tmp_path, "ab", s, ParseDiagnostics(), [])
        fresh = cache_path(tmp_path, "ab").read_bytes()
        for p in s.parts:
            p.notes
        store_score(tmp_path, "ab", s, ParseDiagnostics(), [])
        assert cache_path(tmp_path, "ab").read_bytes() == fresh
        assert "notes" not in repr(s.parts[0])
        assert load_score(tmp_path, "ab", [])[0] == s


class TestTickBase:
    def test_lcm_of_the_denominators(self):
        assert tick_base([Fraction(1, 3), Fraction(2, 5), Fraction(4), Fraction(7, 6)]) == 30
        assert tick_base([]) == 1

    def test_to_ticks_is_exact_or_raises(self):
        assert to_ticks(Fraction(2, 5), 30) == 12
        with pytest.raises(ValueError):
            to_ticks(Fraction(1, 7), 30)

    def test_events_take_whole_ticks_only(self):
        with pytest.raises(TypeError):
            NoteEvent(kind="rest", onset=Fraction(1, 2), duration=1, measure_index=1)
        with pytest.raises(TypeError):
            NoteEvent(kind="rest", onset=0, duration=1.5, measure_index=1)


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
        assert [e.onset for e in window.parts[0].events] == [8 * TPQ, 12 * TPQ]

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
        assert w.parts[0].dynamic_marks == ((4 * TPQ, "p"),)


def _filtered_window(part: Part, start: int, end: int) -> Part:
    """The window part as slicing once built it: every event of the part
    filtered by its measure, and note columns from a fresh walk over them."""
    return replace(part, events=tuple(e for e in part.events
                                      if start <= e.measure_index <= end))


def _windows(s: Score):
    """Every (start, end) window of ``s``, clipped at its last measure."""
    for start in s.measure_indices():
        for end in range(start, s.last_measure + 1):
            yield start, end


# A chain from measure 1 tied into measure 2, whole notes at TPQ 480.
_CHAIN_OVER_THE_BARLINE = score([part([
    note("C", onset=0, dur=4, measure=1, tie="start"),
    note("C", onset=4, dur=4, measure=2, tie="stop"),
    note("E", onset=8, dur=4, measure=3),
], measures=3)])
# Chords whose notes lie on both sides of a measure's edge: the window's own
# walk picks the top note of its share of each.
_CHORDS_OVER_THE_BARLINE = score([part([
    note("C", onset=0, dur=4, measure=1),
    note("E", octave=5, onset=4, dur=1, measure=1),
    note("G", onset=4, dur=1, measure=2),
    note("D", onset=5, dur=3, measure=2),
    note("F", onset=8, dur=1, measure=2),
    note("A", octave=3, onset=8, dur=1, measure=3),
], measures=3)])


class TestWindowNotes:
    @given(st.one_of(
        st.randoms(use_true_random=False).map(
            lambda rng: random_model_score(rng, ties_across_barlines=True)),
        st.randoms(use_true_random=False).map(_parsed_random_musicxml),
    ))
    @example(_CHAIN_OVER_THE_BARLINE)
    @example(_CHORD_WITH_TIE)
    @example(_DANGLING)
    def test_window_columns_equal_a_walk_of_the_filtered_events(self, s):
        for start, end in _windows(s):
            w = slice_window(s, start, end - start + 1)
            for whole, p in zip(s.parts, w.parts):
                oracle = _filtered_window(whole, start, end)
                assert p.events == oracle.events
                assert whole.notes.window(start, end) == p.notes == oracle.notes

    def test_chain_counts_its_length_inside_the_window(self):
        s = _CHAIN_OVER_THE_BARLINE
        assert s.parts[0].notes.merged == (3840, 1920)
        first = slice_window(s, 1, 1).parts[0].notes
        assert first.merged == (1920,)
        assert first.continuations == ()
        second = slice_window(s, 2, 1).parts[0].notes
        assert second.onset == () and second.merged == ()
        assert slice_window(s, 1, 2).parts[0].notes.merged == (3840,)

    def test_a_chord_split_by_the_window_edge_walks_the_window(self):
        s = _CHORDS_OVER_THE_BARLINE
        whole = s.parts[0].notes
        assert [whole.pitch[i].name for i in whole.line] == ["C4", "E5", "D4", "F4"]
        for start, end in _windows(s):
            w = slice_window(s, start, end - start + 1).parts[0]
            assert w.notes == _filtered_window(s.parts[0], start, end).notes
        assert whole.window(2, 2) is None
        line = slice_window(s, 2, 1).parts[0].notes
        assert [line.pitch[i].name for i in line.line] == ["G4", "D4", "F4"]


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
