"""Pitch-content feature families: key estimation, scale degrees, ambitus, melody.

Key finding correlates a duration-weighted pitch-class profile against the
major/minor probe-tone profiles from Krumhansl's *Cognitive Foundations of
Musical Pitch* (1990), rotated through all 24 candidate keys.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul, sub
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from ..harmony import key_mode, key_tonic_pc
from ..model import (
    STEP_ORDER,
    Part,
    Score,
    governing_indices,
    midi_number,
)
from ..records import record
from .core import moments, scoped_names, sqrt_ratio

KRUMHANSL_MAJOR = (6.35, 2.23, 3.48, 2.33, 4.38, 4.09, 2.52, 5.19, 2.39, 3.66, 2.29, 2.88)
KRUMHANSL_MINOR = (6.33, 2.68, 3.52, 5.38, 2.60, 3.53, 2.54, 4.75, 3.98, 2.69, 3.34, 3.17)

_MAJOR_NAMES = ("C", "Db", "D", "Eb", "E", "F", "F#", "G", "Ab", "A", "Bb", "B")
_MINOR_NAMES = ("c", "c#", "d", "d#", "e", "f", "f#", "g", "g#", "a", "bb", "b")

_MAJOR_FIFTHS = {(7 * f) % 12: f for f in range(-5, 7)}
_MINOR_FIFTHS = {(7 * f + 9) % 12: f for f in range(-5, 7)}

_MAJOR_DEGREES = {0: 1, 2: 2, 4: 3, 5: 4, 7: 5, 9: 6, 11: 7}
# Both the natural subtonic and the raised leading tone count as degree 7.
_MINOR_DEGREES = {0: 1, 2: 2, 3: 3, 5: 4, 7: 5, 8: 6, 10: 7, 11: 7}
# (tonic, mode) -> the scale degree of each MIDI number, 0 for chromatic notes.
_DEGREE_TABLES = {
    (tonic, mode): (tuple(degrees.get((pc - tonic) % 12, 0) for pc in range(12)) * 11)[:128]
    for mode, degrees in (("major", _MAJOR_DEGREES), ("minor", _MINOR_DEGREES))
    for tonic in range(12)
}

_LETTER = {step: i for i, step in enumerate(STEP_ORDER)}
_PERFECT_BASE = {1: 0, 4: 5, 5: 7}
_MAJOR_BASE = {2: 2, 3: 4, 6: 9, 7: 11}


@record(frozen=True)
class PitchClassProfile:
    """Duration-weighted pitch-class histogram (index 0 = C), in quarters
    from ``profile_from_score``; the key estimate is the same in any unit."""

    weights: tuple

    def __post_init__(self):
        if len(self.weights) != 12:
            raise ValueError("profile needs exactly 12 weights")
        if any(w < 0 for w in self.weights):
            raise ValueError("profile weights must be non-negative")

    @property
    def total(self) -> float:
        return sum(self.weights)


@record(frozen=True)
class KeyEstimate:
    """The best-correlated key of a profile and its lead over the runner-up."""

    tonic: int  # pitch class 0..11
    mode: str  # "major" | "minor"
    score: Optional[float]  # Pearson correlation of the winner
    runner_up_margin: float

    @property
    def name(self) -> str:
        return _MAJOR_NAMES[self.tonic] if self.mode == "major" else _MINOR_NAMES[self.tonic]


def _pitched(part: Part) -> bool:
    return part.family != "percussion"


def _pitch_class_ticks(score: Score) -> tuple[int, ...]:
    """Sounding ticks per pitch class, summed over the pitched parts."""
    weights = [0] * 12
    for part in score.parts:
        if _pitched(part):
            for midi, ticks in zip(part.notes.midi, part.notes.merged):
                weights[midi % 12] += ticks
    return tuple(weights)


def profile_from_score(score: Score) -> PitchClassProfile:
    tpq = score.ticks_per_quarter
    return PitchClassProfile(tuple(Fraction(w, tpq) for w in _pitch_class_ticks(score)))


# Krumhansl's profiles x100 and centred x12: ints with the same correlations.
_REFS = [[12 * w - sum(ref) for w in ref]
         for ref in ([round(100 * w) for w in p] for p in (KRUMHANSL_MAJOR, KRUMHANSL_MINOR))]
_SQUARES = [sum(w * w for w in ref) for ref in _REFS]
# The 24 candidate keys in tie-break order, major tonics 0-11 then minor:
# (mode, tonic, rotated reference, its Σ squares, the other mode's). A
# covariance's cov·|cov| times the last orders the candidates as r does.
_KEY_CANDIDATES = tuple(
    (mode, tonic, _REFS[i][-tonic:] + _REFS[i][:-tonic], _SQUARES[i], _SQUARES[1 - i])
    for i, mode in enumerate(("major", "minor")) for tonic in range(12))


def estimate_key_ks(profile: PitchClassProfile) -> KeyEstimate:
    """Best of 24 candidate keys by exact Pearson correlation against rotated
    reference profiles. Ties prefer major, then the lower tonic."""
    if profile.total <= 0:
        raise ValueError("key estimation needs at least one positive weight")
    ratios = [w.as_integer_ratio() for w in profile.weights]
    scale = lcm(*(den for _, den in ratios))
    weights = [num * (scale // den) for num, den in ratios]  # exact, x scale
    spread = 12 * sum(w * w for w in weights) - sum(weights) ** 2  # 12·Σ(w - mean)²
    if spread == 0 or weights.count(0) == 11:
        return KeyEstimate(weights.index(max(weights)), "major", None, 0.0)

    covs = [sum(map(mul, weights, ref)) for _, _, ref, _, _ in _KEY_CANDIDATES]
    ranked = sorted(range(24), key=lambda i: -covs[i] * abs(covs[i]) * _KEY_CANDIDATES[i][4])
    # both are >= 0: a mode's 12 covariances sum to 0 (its references are centred)
    best, second = (sqrt_ratio(12 * covs[i] ** 2, spread * _KEY_CANDIDATES[i][3])
                    for i in ranked[:2])
    mode, tonic = _KEY_CANDIDATES[ranked[0]][:2]
    return KeyEstimate(tonic=tonic, mode=mode, score=best, runner_up_margin=best - second)


def key_features(score: Score) -> dict:
    profile = PitchClassProfile(_pitch_class_ticks(score))  # in ticks
    if profile.total <= 0:
        return {}
    est = estimate_key_ks(profile)
    implied = (_MAJOR_FIFTHS if est.mode == "major" else _MINOR_FIFTHS)[est.tonic]
    out = {
        "Key": est.name,
        "KeyMode": est.mode,
        "KeySignatureMatchesEstimate": int(score.key_signature == implied),
    }
    if est.score is not None:
        out["KS_Correlation"] = est.score
    return out


_AMBITUS_KEYS = ("LowestMidi", "HighestMidi", "LowestName", "HighestName", "AmbitusSemitones")


def ambitus_features(score: Score) -> dict:
    """Part, sound, family, and score ambitus off one extremes pass per part
    (percussion excluded)."""
    extremes = {}  # part_id -> ((midi, pitch) lowest, (midi, pitch) highest)
    for p in score.parts:
        midi, pitch = p.notes.midi, p.notes.pitch
        if _pitched(p) and midi:  # the first of equal extremes
            lo, hi = min(midi), max(midi)
            extremes[p.part_id] = ((lo, pitch[midi.index(lo)]), (hi, pitch[midi.index(hi)]))

    def emit(prefix: str, members) -> dict:
        pairs = [extremes[p.part_id] for p in members if p.part_id in extremes]
        if not pairs:
            return {}
        lo = min((p[0] for p in pairs), key=lambda t: t[0])
        hi = max((p[1] for p in pairs), key=lambda t: t[0])
        names = scoped_names(prefix, _AMBITUS_KEYS)
        return dict(zip(names, (lo[0], hi[0], lo[1].name, hi[1].name, hi[0] - lo[0])))

    out = {}
    for prefix, members in (*score.scopes, ("", score.parts)):  # "": the score
        out.update(emit(prefix, members))
    return out


def interval_name(a, b) -> tuple[int, str]:
    """(signed semitones, quality+size name) between two spelled pitches.

    The semitones are the signed pitch distance b - a. The name is unsigned
    and is measured in the direction the letter names move (by pitch for a
    unison), so spelling matters: C4->F#4 is A4 while C4->Gb4 is d5. The two
    directions can disagree: E#2->Fb2 rises by letter but falls by pitch, so
    it is (-1, "dd2"), a doubly diminished second spanning -1 semitones.
    """
    semis = midi_number(b) - midi_number(a)
    steps = (_LETTER[b.step] + 7 * b.octave) - (_LETTER[a.step] + 7 * a.octave)
    return semis, interval_between(steps, semis)


@lru_cache(maxsize=4096)
def interval_between(steps: int, semis: int) -> str:
    """Name of a move by ``steps`` letter names and ``semis`` semitones (see
    ``interval_name``)."""
    if steps == 0 and semis == 0:
        return "P1"
    direction = 1 if steps > 0 else (-1 if steps < 0 else (1 if semis > 0 else -1))
    size = abs(steps) + 1
    asemis = semis * direction
    simple = ((size - 1) % 7) + 1
    octaves = (size - 1) // 7
    if simple in _PERFECT_BASE:
        delta = asemis - (_PERFECT_BASE[simple] + 12 * octaves)
        if delta == 0:
            quality = "P"
        elif delta > 0:
            quality = "A" * delta
        else:
            quality = "d" * -delta
    else:
        delta = asemis - (_MAJOR_BASE[simple] + 12 * octaves)
        if delta == 0:
            quality = "M"
        elif delta == -1:
            quality = "m"
        elif delta > 0:
            quality = "A" * delta
        else:
            quality = "d" * (-delta - 1)
    return f"{quality}{size}"


def _moves(part: Part) -> Iterable[tuple[int, int]]:
    """(letter steps, semitones) of each move between consecutive chord tops;
    rests do not break the line."""
    cols = part.notes
    letters = [_LETTER[p.step] + 7 * p.octave for p in map(cols.pitch.__getitem__, cols.line)]
    midi = [cols.midi[i] for i in cols.line]
    return zip(map(sub, letters[1:], letters), map(sub, midi[1:], midi))


class MelodySummary(NamedTuple):
    """Counts and exact sums over a list of melodic intervals. The summary
    of several lists merges from theirs: counts and sums add, the largest
    moves take the maximum."""

    names: Mapping[str, int]  # interval name -> count
    n: int
    ascending: int
    descending: int
    stepwise: int  # at most 2 semitones
    abs_sum: int  # Σ|semitones|
    square_sum: int  # Σ semitones²
    rise: int  # largest ascending move in semitones, 0 if none
    fall: int  # largest descending move in semitones, 0 if none


def _summarise(counted: Iterable[tuple[tuple[int, str], int]]) -> MelodySummary:
    """The summary of intervals given as ((semitones, name), count) pairs."""
    names: dict[str, int] = {}
    n = ascending = descending = stepwise = abs_sum = square_sum = rise = fall = 0
    for (semis, name), count in counted:
        names[name] = names.get(name, 0) + count
        n += count
        if semis > 0:
            ascending += count
            if semis > rise:
                rise = semis
        elif semis < 0:
            descending += count
            if -semis > fall:
                fall = -semis
        if -2 <= semis <= 2:
            stepwise += count
        abs_sum += abs(semis) * count
        square_sum += semis * semis * count
    return MelodySummary(names, n, ascending, descending, stepwise, abs_sum, square_sum,
                         rise, fall)


def _merge(summaries: Sequence[MelodySummary]) -> MelodySummary:
    if len(summaries) == 1:
        return summaries[0]
    names: dict[str, int] = {}
    for summary in summaries:
        for name, count in summary.names.items():
            names[name] = names.get(name, 0) + count
    return MelodySummary(
        names,
        *(sum(column) for column in list(zip(*summaries))[1:7]),  # n .. square_sum
        max(summary.rise for summary in summaries),
        max(summary.fall for summary in summaries),
    )


# The melody cells of a summary after the interval counts, in column order.
_MELODY_KEYS = ("AscendingFrac", "DescendingFrac", "RepeatedFrac", "StepwiseFrac", "LeapFrac",
                "AbsIntervalMean", "AbsIntervalStd", "LargestAscending", "LargestDescending")


@lru_cache(maxsize=8192)
def _interval_names(prefix: str, name: str) -> tuple[str, str]:
    return f"{prefix}Interval_{name}_Count", f"{prefix}Interval_{name}_Frac"


def _melody_cells(summary: MelodySummary, prefix: str = "") -> dict:
    """The cells of a summary, each name after ``prefix``."""
    n = summary.n
    if not n:
        return {}
    out: dict = {}
    for name in sorted(summary.names):
        count = summary.names[name]
        count_name, frac_name = _interval_names(prefix, name)
        out[count_name] = count
        out[frac_name] = count / n
    names = scoped_names(prefix, _MELODY_KEYS)
    ascending, descending, repeated, stepwise, leap, mean, std, rise, fall = names
    out[ascending] = summary.ascending / n
    out[descending] = summary.descending / n
    out[repeated] = (n - summary.ascending - summary.descending) / n
    out[stepwise] = summary.stepwise / n
    out[leap] = (n - summary.stepwise) / n
    out[mean], out[std] = moments(n, summary.abs_sum, summary.square_sum)
    if summary.ascending:
        out[rise] = summary.rise
    if summary.descending:
        out[fall] = summary.fall
    return out


def melody_features(score: Score) -> dict:
    """Part, sound and family melody cells, each merged from one interval
    summary per part."""
    summaries = {
        p.part_id: _summarise(((semis, interval_between(steps, semis)), count)
                              for (steps, semis), count in Counter(_moves(p)).items())
        for p in score.parts if _pitched(p)
    }
    out = {}
    for prefix, members in score.scopes:
        pooled = [summaries[p.part_id] for p in members if p.part_id in summaries]
        if pooled:
            out.update(_melody_cells(_merge(pooled), prefix))
    return out


def _degree_fractions(prefix: str, degrees: list[int]) -> dict:
    n = len(degrees)
    out = {f"{prefix}_{d}_Frac": degrees.count(d) / n for d in range(1, 8)}
    out[f"{prefix}_chromatic_Frac"] = degrees.count(0) / n
    return out


def scale_degree_features(
    part: Part, score: Score, global_key: Optional[tuple[int, str]] = None
) -> dict:
    """Degree distributions against the estimated main key and, when harmony
    annotations exist, against each note's governing local key."""
    if not _pitched(part):
        return {}
    cols = part.notes
    if not cols.onset:
        return {}
    out = {}
    if global_key is not None:
        tonic, mode = global_key
        table = _DEGREE_TABLES[tonic % 12, mode]
        out.update(_degree_fractions("Degree", list(map(table.__getitem__, cols.midi))))

    annotations = score.annotations
    if annotations:
        tables = [_DEGREE_TABLES.get((key_tonic_pc(a.local_key), key_mode(a.local_key)))
                  for a in annotations]
        # An annotation at ``beat`` governs a note ``q`` ticks into the
        # measure iff beat * tpq <= q, iff ceil(beat * tpq) <= q (q is whole).
        tpq = score.ticks_per_quarter
        governing = governing_indices(
            [(a.measure_index, -(-a.beat.numerator * tpq // a.beat.denominator))
             for a in annotations],
            [(m, q - score.measure_offset(m)) for m, q in zip(cols.measure, cols.onset)],
        )
        local = [tables[idx][midi] for midi, idx in zip(cols.midi, governing)
                 if idx >= 0 and tables[idx] is not None]
        if local:
            out.update(_degree_fractions("LocalDegree", local))
    return out
