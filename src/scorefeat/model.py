"""Immutable score model and the counting/slicing primitives feature code builds on.

All positions and durations are whole ticks: one tick is ``1 /
Score.ticks_per_quarter`` quarter note, a base that each parser picks so
that every time it read is exact (partitura's ``onset_div``/``divs_pq``).
Tuplets never accumulate floating-point error across a score.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import fields, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, compress, count, repeat
from math import lcm
from operator import and_, attrgetter, is_, itemgetter, not_
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .instruments import camel_case
from .records import record

if TYPE_CHECKING:
    from .harmony import HarmonicAnnotation

STEP_SEMITONES = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
STEP_ORDER = "CDEFGAB"
ALTER_SYMBOLS = {-2: "bb", -1: "b", 0: "", 1: "#", 2: "##"}

FAMILIES = (
    "strings",
    "woodwinds",
    "brass",
    "voices",
    "percussion",
    "keyboard",
    "plucked",
    "other",
)

# Column prefix of each family's scope (see ``Score.scopes``).
FAMILY_PREFIXES = {family: f"Family{camel_case(family)}_" for family in FAMILIES}

TIE_STATES = ("none", "start", "continue", "stop")


class PitchRangeError(ValueError):
    """Pitch falls outside the MIDI range 0..127."""


class WindowRangeError(ValueError):
    """Requested measure window starts beyond the end of the score."""


@record(frozen=True)
class SpelledPitch:
    """A notated pitch: letter step, semitone alteration, scientific octave.

    Spellings are compared field-wise: C#4 and Db4 are different spellings
    even though they share a MIDI number.
    """

    step: str
    alter: int = 0
    octave: int = 4

    def __post_init__(self):
        if self.step not in STEP_SEMITONES:
            raise ValueError(f"invalid step {self.step!r}")
        if not -2 <= self.alter <= 2:
            raise ValueError(f"alter out of range -2..2: {self.alter}")

    @property
    def name(self) -> str:
        return f"{self.step}{ALTER_SYMBOLS[self.alter]}{self.octave}"

    @cached_property
    def midi(self) -> int:
        """MIDI note number (C4 = 60), computed on first use and kept."""
        n = 12 * (self.octave + 1) + STEP_SEMITONES[self.step] + self.alter
        if not 0 <= n <= 127:
            raise PitchRangeError(f"{self.name} maps to MIDI {n}, outside 0..127")
        return n


@lru_cache(maxsize=1024, typed=True)
def spelled_pitch(step: str, alter: int = 0, octave: int = 4) -> SpelledPitch:
    """The one instance of a spelling, so caches keyed on pitches
    (``interval_name``) hit by identity. Its MIDI number is read here, so an
    interned pitch maps into 0..127 and a spelling outside it raises
    ``PitchRangeError`` without being kept. Parsers and the cache decoder
    call it positionally (keywords are cached apart); ``typed`` keeps a
    decoded float or bool apart from an int."""
    pitch = SpelledPitch(step, alter, octave)
    pitch.midi
    return pitch


def midi_number(pitch: SpelledPitch) -> int:
    """MIDI note number of a spelled pitch (C4 = 60)."""
    return pitch.midi


def tick_base(quarters: Iterable[Fraction]) -> int:
    """Ticks per quarter note that make each of ``quarters`` a whole number
    of ticks: the LCM of their denominators."""
    return lcm(*{q.denominator for q in quarters})


def to_ticks(quarters: Fraction, ticks_per_quarter: int) -> int:
    """``quarters`` in whole ticks of ``ticks_per_quarter`` per quarter note."""
    scale, rest = divmod(ticks_per_quarter, quarters.denominator)
    if rest:
        raise ValueError(f"{quarters} quarters is no whole number of 1/{ticks_per_quarter} ticks")
    return quarters.numerator * scale


@record(frozen=True)
class Lyric:
    """One syllable sung on a note."""

    text: str
    syllabic: str = "single"  # single | begin | middle | end


def _check_row(kind, onset, duration, pitch, tie, dots, grace) -> None:
    """The rules of one event, in order: the first one it breaks raises."""
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


_KINDS, _TIES, _DOTS, _INT = frozenset(("note", "rest")), frozenset(TIE_STATES), {0, 1, 2}, {int}


def _check_rows(kind, onset, duration, pitch, tie, dots, grace) -> None:
    """Raise for the first row that breaks an event rule, with that rule's
    message. A test over whole columns passes the usual case; only columns
    that fail it are walked row by row for the first offender."""
    try:
        if (_KINDS.issuperset(kind) and _TIES.issuperset(tie) and _DOTS.issuperset(dots)
                and _INT.issuperset(map(type, onset)) and _INT.issuperset(map(type, duration))
                and min(onset, default=0) >= 0
                and "note" not in compress(kind, map(is_, pitch, repeat(None)))
                and (min(duration, default=1) > 0  # or 0, and only for grace notes
                     or min(duration) == 0 and all(compress(grace, map((0).__eq__, duration))))):
            return
    except TypeError:  # an unhashable value: the walk finds the rule it breaks
        pass
    for row in zip(kind, onset, duration, pitch, tie, dots, grace):
        _check_row(*row)


@record(frozen=True, init=False)
class NoteEvent:
    """One note or rest in a part.

    Onsets are absolute tick offsets from the start of the original score;
    window slices keep them un-rebased. Grace notes carry zero duration and
    are excluded from counting features. A part keeps its events as
    ``EventColumns`` and builds these only when they are asked for.
    """

    kind: str  # "note" | "rest"
    onset: int  # ticks
    duration: int  # ticks
    measure_index: int  # 1-based
    pitch: Optional[SpelledPitch] = None
    tie: str = "none"  # none | start | continue | stop
    dots: int = 0
    lyric: Optional[Lyric] = None
    grace: bool = False

    def __init__(self, kind, onset, duration, measure_index, pitch=None, tie="none",
                 dots=0, lyric=None, grace=False):
        # One dict update instead of the frozen __init__'s setattr per field.
        self.__dict__.update(kind=kind, onset=onset, duration=duration,
                             measure_index=measure_index, pitch=pitch, tie=tie,
                             dots=dots, lyric=lyric, grace=grace)
        self.__post_init__()

    def __post_init__(self):
        _check_rows((self.kind,), (self.onset,), (self.duration,), (self.pitch,), (self.tie,),
                    (self.dots,), (self.grace,))


_EVENT_FIELDS = tuple(f.name for f in fields(NoteEvent))
_event_row = attrgetter(*_EVENT_FIELDS)


@record(frozen=True)
class EventColumns(Sequence[NoteEvent]):
    """A part's events, one tuple per ``NoteEvent`` field, all of one length,
    in event order.

    Building one checks every rule of ``NoteEvent`` over whole columns, with
    the same messages, and that onsets and measure indices never decrease:
    windows take their rows by bisection on the measure column. As a
    sequence it yields ``NoteEvent``s, built on first use and kept.
    """

    kind: tuple[str, ...]
    onset: tuple[int, ...]
    duration: tuple[int, ...]
    measure_index: tuple[int, ...]
    pitch: tuple[Optional[SpelledPitch], ...]
    tie: tuple[str, ...]
    dots: tuple[int, ...]
    lyric: tuple[Optional[Lyric], ...]
    grace: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.kind)
        if any(len(getattr(self, name)) != n for name in _EVENT_FIELDS):
            raise ValueError("event columns differ in length")
        _check_rows(self.kind, self.onset, self.duration, self.pitch, self.tie, self.dots,
                    self.grace)
        if sorted(self.onset) != list(self.onset):
            raise ValueError("events not sorted by onset")
        if sorted(self.measure_index) != list(self.measure_index):
            raise ValueError("measure indices decrease in event order")

    @classmethod
    def of(cls, events: Iterable[NoteEvent]) -> EventColumns:
        """The columns of ``events``, which they then yield as themselves."""
        events = tuple(events)
        columns = cls(*zip(*map(_event_row, events)) if events else [()] * len(_EVENT_FIELDS))
        if all(type(e) is NoteEvent for e in events):
            columns.__dict__["_events"] = events
        return columns

    def rows(self, first: int, last: int) -> EventColumns:
        """Rows ``first`` to ``last - 1``. A row range of checked columns
        keeps every rule and both orders, so it is not checked again."""
        view = object.__new__(EventColumns)
        view.__dict__.update((name, getattr(self, name)[first:last]) for name in _EVENT_FIELDS)
        return view

    @cached_property
    def _events(self) -> tuple[NoteEvent, ...]:
        # The rows are checked, so the events are not checked again.
        new, events = NoteEvent.__new__, []
        for row in zip(*map(self.__dict__.__getitem__, _EVENT_FIELDS)):
            event = new(NoteEvent)
            event.__dict__.update(zip(_EVENT_FIELDS, row))
            events.append(event)
        return tuple(events)

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, index):
        return self._events[index]

    def __iter__(self):
        return iter(self._events)


@record(frozen=True)
class NoteColumns:
    """A part's counted notes (tie-chain heads that are not grace), one row
    each in event order, in partitura's ``note_array`` layout, in the
    score's ticks."""

    onset: tuple[int, ...]
    duration: tuple[int, ...]  # the head's own notated duration
    merged: tuple[int, ...]  # with its tie continuations folded in
    midi: tuple[int, ...]
    measure: tuple[int, ...]
    pitch: tuple[SpelledPitch, ...]
    dots: tuple[int, ...]
    lyric: tuple[Optional[Lyric], ...]
    line: tuple[int, ...]  # rows of the melodic line: the highest note per onset
    # (row, ((measure, ticks), ...)) of each chain with continuations, by row
    continuations: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def window(self, start: int, end: int) -> Optional[NoteColumns]:
        """The columns a walk over the events of measures ``start..end``
        builds: the rows of those measures, line rows rebased, and a tie
        chain that runs on past ``end`` cut back to its pieces up to ``end``.
        None when a chord straddles the window's edge, since the walk then
        picks the top note of the chord's part inside the window."""
        onset = self.onset
        lo = bisect_left(self.measure, start)
        hi = bisect_right(self.measure, end, lo)
        if 0 < lo < len(onset) and onset[lo - 1] == onset[lo] or (
                0 < hi < len(onset) and onset[hi - 1] == onset[hi]):
            return None
        merged = list(self.merged[lo:hi])
        chains = []
        continuations = self.continuations
        for row, pieces in continuations[bisect_left(continuations, (lo,)):
                                         bisect_left(continuations, (hi,))]:
            if pieces[-1][0] > end:
                pieces = tuple(piece for piece in pieces if piece[0] <= end)
                merged[row - lo] = self.duration[row] + sum(ticks for _, ticks in pieces)
            if pieces:
                chains.append((row - lo, pieces))
        line = self.line[bisect_left(self.line, lo):bisect_left(self.line, hi)]
        return NoteColumns(onset[lo:hi], self.duration[lo:hi], tuple(merged), self.midi[lo:hi],
                           self.measure[lo:hi], self.pitch[lo:hi], self.dots[lo:hi],
                           self.lyric[lo:hi], tuple(map(lo.__rsub__, line)), tuple(chains))


def _taker(rows: list[int]) -> Callable[[tuple], tuple]:
    """A function that takes ``rows`` of a column, as a tuple."""
    if len(rows) > 1:
        return itemgetter(*rows)
    return lambda column: tuple(column[i] for i in rows)


_midi_of = attrgetter("midi")


@record(frozen=True)
class Part:
    """One performer line: ordered events plus instrument identity.

    (instrument_sound, sound_ordinal) and part_id are each unique within a
    Score; part_id is the CamelCase sound name with the ordinal as a Roman
    numeral (ViolinII). A tuple of ``NoteEvent``s given as ``events`` is
    turned into ``EventColumns``.
    """

    part_id: str
    instrument_sound: str
    sound_ordinal: int
    family: str
    is_vocal: bool
    events: EventColumns
    dynamic_marks: tuple[tuple[int, str], ...] = ()  # (tick, token)
    measure_count: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.sound_ordinal < 1:
            raise ValueError("sound_ordinal must be >= 1")
        if type(self.events) is not EventColumns:
            object.__setattr__(self, "events", EventColumns.of(self.events))
        if any(type(pos) is not int for pos, _ in self.dynamic_marks):
            raise TypeError("dynamic mark positions must be whole ticks (int)")

    @cached_property
    def notes(self) -> NoteColumns:
        """Built from the event columns on first use; a tie continuation
        without an open chain is dropped."""
        events = self.events
        duration = events.duration
        if "rest" in events.kind or any(events.grace):
            counted = list(compress(count(), map(and_, map("note".__eq__, events.kind),
                                                 map(not_, events.grace))))
            take = _taker(counted)
        else:  # every event is a counted note, so every row is taken
            counted, take = range(len(duration)), tuple
        midi = list(map(_midi_of, take(events.pitch)))
        ties = take(events.tie)
        merged = []  # with continuations, when there are any
        pieces: dict[int, list] = {}  # row -> (measure, ticks) of its continuations
        if "continue" in ties or "stop" in ties:
            rows, head_midi = [], []
            open_chains: dict[int, int] = {}  # midi number -> row of the chain head
            for i, m, tie in zip(counted, midi, ties):
                if tie == "none" or tie == "start":
                    if tie == "start":
                        open_chains[m] = len(rows)
                    rows.append(i)
                    head_midi.append(m)
                    merged.append(duration[i])
                elif (r := open_chains.get(m)) is not None:
                    merged[r] += duration[i]
                    pieces.setdefault(r, []).append((events.measure_index[i], duration[i]))
                    if tie == "stop":
                        del open_chains[m]
            midi, take = head_midi, _taker(rows)
        onset, own = take(events.onset), take(duration)
        if len(set(onset)) == len(onset):  # no chords: every note is on the line
            line = range(len(onset))
        else:
            line = []  # the highest note of each onset, the first of equals
            for row, (o, m) in enumerate(zip(onset, midi)):
                if not line or onset[line[-1]] != o:
                    line.append(row)
                elif m > midi[line[-1]]:
                    line[-1] = row
        return NoteColumns(onset, own, tuple(merged) if pieces else own, tuple(midi),
                           take(events.measure_index), take(events.pitch), take(events.dots),
                           take(events.lyric), tuple(line),
                           tuple((r, tuple(p)) for r, p in sorted(pieces.items())))


@record(frozen=True)
class TempoMark:
    """A tempo indication at the start of a measure: words, a metronome value or both."""

    measure_index: int
    text: Optional[str] = None
    bpm: Optional[float] = None  # quarter notes per minute


@record(frozen=True)
class Score:
    """Immutable parsed score. Safe to share freely across threads.

    ``measure_offsets`` holds the absolute tick at which each measure
    starts, one per measure from ``first_measure`` on. The parser that
    builds a score computes them once; window slices keep their share of
    them, with the original measure numbering and un-rebased onsets.
    """

    source_id: str
    parts: tuple[Part, ...]
    num_measures: int
    time_signatures: tuple[tuple[int, int, int], ...]  # (measure_index, num, den)
    measure_offsets: tuple[int, ...]
    ticks_per_quarter: int
    key_signature: int = 0  # fifths, -7..+7
    tempo_marks: tuple[TempoMark, ...] = ()
    annotations: Optional[tuple["HarmonicAnnotation", ...]] = None
    first_measure: int = 1

    def __post_init__(self):
        if self.num_measures < 1:
            raise ValueError("score must have at least one measure")
        if not self.time_signatures:
            raise ValueError("time_signatures must be non-empty")
        if self.time_signatures[0][0] != self.first_measure:
            raise ValueError("first time signature must sit at the first measure")
        if not -7 <= self.key_signature <= 7:
            raise ValueError(f"key signature out of range: {self.key_signature}")
        if len(self.measure_offsets) != self.num_measures:
            raise ValueError("measure_offsets length must equal num_measures")
        if type(self.ticks_per_quarter) is not int or self.ticks_per_quarter < 1:
            raise ValueError(f"ticks_per_quarter must be an int >= 1: {self.ticks_per_quarter!r}")
        if any(type(q) is not int for q in self.measure_offsets):
            raise TypeError("measure_offsets must be whole ticks (int)")
        seen = set()
        for p in self.parts:
            key = (p.instrument_sound, p.sound_ordinal)
            if key in seen:
                raise ValueError(f"duplicate part identity {key} in score")
            if p.part_id in seen:
                raise ValueError(f"duplicate part id {p.part_id!r} in score")
            seen.update((key, p.part_id))

    @cached_property
    def scopes(self) -> tuple[tuple[str, tuple[Part, ...]], ...]:
        """(column prefix, member parts) of every scope below the score, walked
        once on first use: one per part in score order (``PartViolinII_``),
        then one per instrument sound (``SoundViolin_``), then one per family
        (``FamilyStrings_``), groups in order of first appearance. Sounds
        group by their prefix, so "bass clarinet" and "bass.clarinet" are one
        sound."""
        sounds: dict[str, list[Part]] = {}
        families: dict[str, list[Part]] = {}
        for p in self.parts:
            sounds.setdefault(f"Sound{camel_case(p.instrument_sound)}_", []).append(p)
            families.setdefault(FAMILY_PREFIXES[p.family], []).append(p)
        groups = (*sounds.items(), *families.items())
        return (*((f"Part{p.part_id}_", (p,)) for p in self.parts),
                *((prefix, tuple(members)) for prefix, members in groups))

    @property
    def last_measure(self) -> int:
        return self.first_measure + self.num_measures - 1

    def measure_indices(self) -> range:
        return range(self.first_measure, self.last_measure + 1)

    def time_signature_at(self, measure_index: int) -> tuple[int, int]:
        active = self.time_signatures[0][1:]
        for m, num, den in self.time_signatures:
            if m > measure_index:
                break
            active = (num, den)
        return active

    def measure_quarters(self, measure_index: int) -> Fraction:
        """Nominal measure length in quarter notes from the active signature."""
        num, den = self.time_signature_at(measure_index)
        return Fraction(num * 4, den)

    def nominal_quarters(self) -> Fraction:
        """``measure_quarters`` summed over every measure, exactly, one term per
        run of measures under one signature. As in ``time_signature_at``, also
        for unsorted signatures, a measure takes the last signature whose
        running maximum of measures is at or before it (``governing_indices``)."""
        signatures = self.time_signatures
        reach = list(accumulate((m for m, _, _ in signatures), max))
        total, measure, last = Fraction(0), self.first_measure, self.last_measure
        while measure <= last:
            j = bisect_right(reach, measure)
            end = min(reach[j] - 1, last) if j < len(reach) else last
            _, num, den = signatures[j - 1]  # j >= 1: the first sits at first_measure
            total += Fraction(num * 4, den) * (end - measure + 1)
            measure = end + 1
        return total

    def measure_offset(self, measure_index: int) -> int:
        """Absolute tick at the start of a measure."""
        if not self.first_measure <= measure_index <= self.last_measure:
            raise ValueError(f"measure {measure_index} not in score range")
        return self.measure_offsets[measure_index - self.first_measure]

    def total_quarters(self) -> Fraction:
        """Span of the score (or window) in quarter notes."""
        span = self.measure_offsets[-1] - self.measure_offsets[0]
        return Fraction(span, self.ticks_per_quarter) + self.measure_quarters(self.last_measure)


def note_count(part: Part) -> int:
    return len(part.notes.onset)


def sounding_measures(part: Part) -> set[int]:
    """Measure indices containing at least one counted note (tie chains are
    attributed to the measure where they start)."""
    return set(part.notes.measure)


def governing_indices(positions: Sequence, queries: Iterable) -> list[int]:
    """For each query, the index of the mark that governs it, or -1.

    The rule is "the last mark at or before the query governs it", read as a
    front-to-back scan over ``positions`` that stops at the first position
    after the query. Marks are usually sorted; when they are not (a MusicXML
    ``<offset>`` can move a mark before an earlier one), the scan's answer is
    still kept: the governing index is the last one whose running maximum of
    positions is at or before the query, found by bisection.
    """
    reach = list(accumulate(positions, max))
    return [bisect_right(reach, q) - 1 for q in queries]


def slice_window(score: Score, start_measure: int, length: int) -> Score:
    """Score view over measures [start_measure, start_measure + length - 1].

    Onsets and measure indices are preserved, not rebased. Annotations are
    filtered to the window. The governing dynamic and tempo marks at the
    window start are carried in so duration-weighted features keep their
    "effective until the next mark" semantics.

    Each part's events are a row range of the whole part's, found by
    bisection on their measures, and so are its note columns
    (``NoteColumns.window``): a window checks and walks no event again.
    """
    if length < 1:
        raise ValueError("window length must be >= 1")
    if not score.first_measure <= start_measure <= score.last_measure:
        raise WindowRangeError(
            f"window start {start_measure} outside measures "
            f"{score.first_measure}..{score.last_measure}"
        )
    eff_length = min(length, score.last_measure - start_measure + 1)
    end_measure = start_measure + eff_length - 1
    window_start = score.measure_offset(start_measure)
    if end_measure < score.last_measure:
        window_end = score.measure_offset(end_measure + 1)
    else:
        nominal = score.measure_quarters(end_measure) * score.ticks_per_quarter
        window_end = score.measure_offset(end_measure) + nominal

    parts = []
    for part in score.parts:
        measures = part.events.measure_index
        first = bisect_left(measures, start_measure)
        last = bisect_right(measures, end_measure, first)
        marks = [(pos, tok) for pos, tok in part.dynamic_marks
                 if window_start <= pos < window_end]
        i = governing_indices([pos for pos, _ in part.dynamic_marks], [window_start])[0]
        if i >= 0 and (not marks or marks[0][0] > window_start):
            marks.insert(0, (window_start, part.dynamic_marks[i][1]))
        window_part = replace(part, events=part.events.rows(first, last),
                              dynamic_marks=tuple(marks), measure_count=eff_length)
        notes = part.notes.window(start_measure, end_measure)
        if notes is not None:  # else the window part walks its own events
            window_part.__dict__["notes"] = notes
        parts.append(window_part)

    sigs = [(start_measure, *score.time_signature_at(start_measure))]
    sigs += [(m, n, d) for m, n, d in score.time_signatures if start_measure < m <= end_measure]

    tempo = [t for t in score.tempo_marks if start_measure <= t.measure_index <= end_measure]
    prior = [t for t in score.tempo_marks if t.measure_index < start_measure]
    if prior and (not tempo or tempo[0].measure_index > start_measure):
        tempo.insert(0, replace(prior[-1], measure_index=start_measure))

    annotations = None
    if score.annotations is not None:
        annotations = tuple(
            a for a in score.annotations if start_measure <= a.measure_index <= end_measure
        )

    lo = start_measure - score.first_measure
    return replace(
        score,
        parts=tuple(parts),
        num_measures=eff_length,
        time_signatures=tuple(sigs),
        tempo_marks=tuple(tempo),
        annotations=annotations,
        first_measure=start_measure,
        measure_offsets=score.measure_offsets[lo : lo + eff_length],
    )
