"""Immutable score model and the counting/slicing primitives feature code builds on.

All positions and durations are exact rationals (quarter-note units) so that
tuplets never accumulate floating-point error across a score.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

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

TIE_STATES = ("none", "start", "continue", "stop")


class PitchRangeError(ValueError):
    """Pitch falls outside the MIDI range 0..127."""


class WindowRangeError(ValueError):
    """Requested measure window starts beyond the end of the score."""


@dataclass(frozen=True)
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

    @property
    def pitch_class(self) -> int:
        return (STEP_SEMITONES[self.step] + self.alter) % 12


def midi_number(pitch: SpelledPitch) -> int:
    """MIDI note number of a spelled pitch (C4 = 60)."""
    n = 12 * (pitch.octave + 1) + STEP_SEMITONES[pitch.step] + pitch.alter
    if not 0 <= n <= 127:
        raise PitchRangeError(f"{pitch.name} maps to MIDI {n}, outside 0..127")
    return n


@dataclass(frozen=True)
class Lyric:
    text: str
    syllabic: str = "single"  # single | begin | middle | end


@dataclass(frozen=True)
class NoteEvent:
    """One note or rest in a part.

    Onsets are absolute quarter-note offsets from the start of the original
    score; window slices keep them un-rebased. Grace notes carry zero
    duration and are excluded from counting features.
    """

    kind: str  # "note" | "rest"
    onset: Fraction
    duration: Fraction
    measure_index: int  # 1-based
    pitch: Optional[SpelledPitch] = None
    tie: str = "none"  # none | start | continue | stop
    dots: int = 0
    lyric: Optional[Lyric] = None
    grace: bool = False

    def __post_init__(self):
        if self.kind not in ("note", "rest"):
            raise ValueError(f"invalid event kind {self.kind!r}")
        if self.kind == "note" and self.pitch is None:
            raise ValueError("note event requires a pitch")
        if self.tie not in TIE_STATES:
            raise ValueError(f"invalid tie state {self.tie!r}")
        if self.dots not in (0, 1, 2):
            raise ValueError(f"dots must be 0..2, got {self.dots}")
        if self.onset < 0:
            raise ValueError("onset must be non-negative")
        if self.grace:
            if self.duration < 0:
                raise ValueError("grace duration must be >= 0")
        elif self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class Part:
    """One performer line: ordered events plus instrument identity.

    (instrument_sound, sound_ordinal) is unique within a Score; part_id is
    the CamelCase sound name with the ordinal as a Roman numeral (ViolinII).
    """

    part_id: str
    instrument_sound: str
    sound_ordinal: int
    family: str
    is_vocal: bool
    events: tuple[NoteEvent, ...]
    dynamic_marks: tuple[tuple[Fraction, str], ...] = ()
    measure_count: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.sound_ordinal < 1:
            raise ValueError("sound_ordinal must be >= 1")
        onsets = [e.onset for e in self.events]
        if onsets != sorted(onsets):
            raise ValueError(f"part {self.part_id}: events not sorted by onset")


@dataclass(frozen=True)
class TempoMark:
    measure_index: int
    text: Optional[str] = None
    bpm: Optional[float] = None  # quarter notes per minute


@dataclass(frozen=True)
class Score:
    """Immutable parsed score. Safe to share freely across threads.

    ``measure_offsets`` holds the absolute quarter-note offset at which each
    measure starts, one per measure from ``first_measure`` on. The parser
    that builds a score computes them once; window slices keep their share
    of them, with the original measure numbering and un-rebased onsets.
    """

    source_id: str
    parts: tuple[Part, ...]
    num_measures: int
    time_signatures: tuple[tuple[int, int, int], ...]  # (measure_index, num, den)
    measure_offsets: tuple[Fraction, ...]
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
        seen = set()
        for p in self.parts:
            key = (p.instrument_sound, p.sound_ordinal)
            if key in seen:
                raise ValueError(f"duplicate part identity {key} in score")
            seen.add(key)

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

    def measure_offset(self, measure_index: int) -> Fraction:
        """Absolute quarter-note offset at the start of a measure."""
        if not self.first_measure <= measure_index <= self.last_measure:
            raise ValueError(f"measure {measure_index} not in score range")
        return self.measure_offsets[measure_index - self.first_measure]

    def total_quarters(self) -> Fraction:
        """Span of the score (or window) in quarter notes."""
        return (
            self.measure_offsets[-1]
            + self.measure_quarters(self.last_measure)
            - self.measure_offsets[0]
        )


def counted_notes(part: Part) -> list[NoteEvent]:
    """Sounding notes that count: no rests, no grace notes, and a tie chain
    counts once via its starting event."""
    return [
        e
        for e in part.events
        if e.kind == "note" and not e.grace and e.tie in ("none", "start")
    ]


def note_count(part: Part) -> int:
    return len(counted_notes(part))


def sounding_measures(part: Part) -> set[int]:
    """Measure indices containing at least one counted note (tie chains are
    attributed to the measure where they start)."""
    return {e.measure_index for e in counted_notes(part)}


def merged_durations(part: Part) -> list[tuple[NoteEvent, Fraction]]:
    """(chain-head event, full duration) per counted note, with tie
    continuations folded into their chain head."""
    result: list[tuple[NoteEvent, Fraction]] = []
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
            # dangling continuation without a head: ignore (parser warned)
    return result


def melodic_line(part: Part) -> list[NoteEvent]:
    """Counted notes reduced to one per onset: the highest chord notehead."""
    line: list[NoteEvent] = []
    kept = 0
    for e in counted_notes(part):  # already onset-sorted per Part invariant
        m = midi_number(e.pitch)
        if line and line[-1].onset == e.onset:
            if m > kept:
                line[-1] = e
                kept = m
        else:
            line.append(e)
            kept = m
    return line


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
        window_end = score.measure_offset(end_measure) + score.measure_quarters(end_measure)

    parts = []
    for part in score.parts:
        events = tuple(
            e for e in part.events if start_measure <= e.measure_index <= end_measure
        )
        marks = [(pos, tok) for pos, tok in part.dynamic_marks
                 if window_start <= pos < window_end]
        i = governing_indices([pos for pos, _ in part.dynamic_marks], [window_start])[0]
        if i >= 0 and (not marks or marks[0][0] > window_start):
            marks.insert(0, (window_start, part.dynamic_marks[i][1]))
        parts.append(replace(part, events=events, dynamic_marks=tuple(marks),
                             measure_count=eff_length))

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
