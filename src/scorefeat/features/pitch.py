"""Pitch-content feature families: key estimation, scale degrees, ambitus, melody.

Key finding correlates a duration-weighted pitch-class profile against the
major/minor probe-tone profiles from Krumhansl's *Cognitive Foundations of
Musical Pitch* (1990), rotated through all 24 candidate keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..harmony import key_mode, key_tonic_pc
from ..model import (
    STEP_ORDER,
    Part,
    Score,
    counted_notes,
    governing_indices,
    melodic_line,
    merged_durations,
    midi_number,
)
from .core import part_groups

KRUMHANSL_MAJOR = (6.35, 2.23, 3.48, 2.33, 4.38, 4.09, 2.52, 5.19, 2.39, 3.66, 2.29, 2.88)
KRUMHANSL_MINOR = (6.33, 2.68, 3.52, 5.38, 2.60, 3.53, 2.54, 4.75, 3.98, 2.69, 3.34, 3.17)

_MAJOR_NAMES = ("C", "Db", "D", "Eb", "E", "F", "F#", "G", "Ab", "A", "Bb", "B")
_MINOR_NAMES = ("c", "c#", "d", "d#", "e", "f", "f#", "g", "g#", "a", "bb", "b")

_MAJOR_FIFTHS = {(7 * f) % 12: f for f in range(-5, 7)}
_MINOR_FIFTHS = {(7 * f + 9) % 12: f for f in range(-5, 7)}

_MAJOR_DEGREES = {0: 1, 2: 2, 4: 3, 5: 4, 7: 5, 9: 6, 11: 7}
# Both the natural subtonic and the raised leading tone count as degree 7.
_MINOR_DEGREES = {0: 1, 2: 2, 3: 3, 5: 4, 7: 5, 8: 6, 10: 7, 11: 7}

_PERFECT_BASE = {1: 0, 4: 5, 5: 7}
_MAJOR_BASE = {2: 2, 3: 4, 6: 9, 7: 11}


@dataclass(frozen=True)
class PitchClassProfile:
    """Duration-weighted pitch-class histogram (index 0 = C)."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != 12:
            raise ValueError("profile needs exactly 12 weights")
        if any(w < 0 for w in self.weights):
            raise ValueError("profile weights must be non-negative")

    @property
    def total(self) -> float:
        return sum(self.weights)


@dataclass(frozen=True)
class KeyEstimate:
    tonic: int  # pitch class 0..11
    mode: str  # "major" | "minor"
    score: Optional[float]  # Pearson correlation of the winner
    runner_up_margin: float

    @property
    def name(self) -> str:
        return _MAJOR_NAMES[self.tonic] if self.mode == "major" else _MINOR_NAMES[self.tonic]


def _pitched(part: Part) -> bool:
    return part.family != "percussion"


def profile_from_score(score: Score) -> PitchClassProfile:
    weights = [0.0] * 12
    for part in score.parts:
        if not _pitched(part):
            continue
        for head, duration in merged_durations(part):
            weights[head.pitch.pitch_class] += float(duration)
    return PitchClassProfile(weights=tuple(weights))


# The 24 candidate keys in tie-break order (major tonics 0-11, then minor):
# (mode, tonic, rotated reference minus its mean, its spread). Correlations
# repeat np.corrcoef's arithmetic exactly, one np.dot per candidate: a single
# matrix product sums in another order and would change the last bit of the
# KS_Correlation cells, which the CSV writes in full.
_INV_DOF = 1 / 11


def _key_candidates() -> tuple:
    out = []
    for mode, profile in (("major", KRUMHANSL_MAJOR), ("minor", KRUMHANSL_MINOR)):
        for tonic in range(12):
            ref = np.roll(np.asarray(profile), tonic)
            centred = ref - ref.mean()
            out.append((mode, tonic, centred, np.sqrt(np.dot(centred, centred) * _INV_DOF)))
    return tuple(out)


_KEY_CANDIDATES = _key_candidates()


def estimate_key_ks(profile: PitchClassProfile) -> KeyEstimate:
    """Best of 24 candidate keys by Pearson correlation against rotated
    reference profiles. Ties prefer major, then the lower tonic."""
    if profile.total <= 0:
        raise ValueError("key estimation needs at least one positive weight")
    weights = np.asarray(profile.weights, dtype=float)
    if np.ptp(weights) == 0 or np.count_nonzero(weights) == 1:
        tonic = int(np.argmax(weights))
        return KeyEstimate(tonic=tonic, mode="major", score=None, runner_up_margin=0.0)

    centred = weights - weights.mean()
    spread = np.sqrt(np.dot(centred, centred) * _INV_DOF)
    scores = [
        min(1.0, max(-1.0, float(np.dot(centred, ref) * _INV_DOF / spread / ref_spread)))
        for _mode, _tonic, ref, ref_spread in _KEY_CANDIDATES
    ]
    best = int(np.argmax(scores))  # the first maximum: major, then the lower tonic
    mode, tonic, _ref, _spread = _KEY_CANDIDATES[best]
    margin = scores[best] - max(scores[:best] + scores[best + 1:])
    return KeyEstimate(tonic=tonic, mode=mode, score=scores[best], runner_up_margin=margin)


def key_features(score: Score) -> dict:
    profile = profile_from_score(score)
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


def ambitus_features(score: Score) -> dict:
    """Part, sound, family, and score ambitus off one extremes pass per part
    (percussion excluded)."""
    extremes = {}  # part_id -> (lowest event, highest event)
    for p in score.parts:
        if not _pitched(p):
            continue
        lo = hi = None
        for e in counted_notes(p):
            m = midi_number(e.pitch)
            if lo is None or m < lo[0]:
                lo = (m, e)
            if hi is None or m > hi[0]:
                hi = (m, e)
        if lo is not None:
            extremes[p.part_id] = (lo, hi)

    def emit(prefix: str, members) -> dict:
        pairs = [extremes[p.part_id] for p in members if p.part_id in extremes]
        if not pairs:
            return {}
        lo = min((p[0] for p in pairs), key=lambda t: t[0])
        hi = max((p[1] for p in pairs), key=lambda t: t[0])
        return {
            f"{prefix}LowestMidi": lo[0],
            f"{prefix}HighestMidi": hi[0],
            f"{prefix}LowestName": lo[1].pitch.name,
            f"{prefix}HighestName": hi[1].pitch.name,
            f"{prefix}AmbitusSemitones": hi[0] - lo[0],
        }

    out = {}
    for part in score.parts:
        out.update(emit(f"Part{part.part_id}_", [part]))
    for prefix, members in part_groups(score):
        out.update(emit(f"{prefix}_", members))
    out.update(emit("", score.parts))  # score level
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
    dn = (STEP_ORDER.index(b.step) + 7 * b.octave) - (STEP_ORDER.index(a.step) + 7 * a.octave)
    if dn == 0 and semis == 0:
        return 0, "P1"
    direction = 1 if dn > 0 else (-1 if dn < 0 else (1 if semis > 0 else -1))
    size = abs(dn) + 1
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
    return semis, f"{quality}{size}"


def interval_sequence(part: Part) -> list[tuple[int, str]]:
    """Melodic intervals between consecutive chord tops; rests do not break
    the line."""
    line = melodic_line(part)
    return [interval_name(a.pitch, b.pitch) for a, b in zip(line, line[1:])]


def melody_from_intervals(intervals: Sequence[tuple[int, str]]) -> dict:
    if not intervals:
        return {}
    n = len(intervals)
    out: dict = {}
    by_name: dict[str, int] = {}
    for _, name in intervals:
        by_name[name] = by_name.get(name, 0) + 1
    for name in sorted(by_name):
        out[f"Interval_{name}_Count"] = by_name[name]
        out[f"Interval_{name}_Frac"] = by_name[name] / n

    semis = [s for s, _ in intervals]
    ascending = sum(1 for s in semis if s > 0)
    descending = sum(1 for s in semis if s < 0)
    out["AscendingFrac"] = ascending / n
    out["DescendingFrac"] = descending / n
    out["RepeatedFrac"] = (n - ascending - descending) / n
    stepwise = sum(1 for s in semis if abs(s) <= 2)
    out["StepwiseFrac"] = stepwise / n
    out["LeapFrac"] = (n - stepwise) / n

    magnitudes = np.abs(np.asarray(semis, dtype=float))
    out["AbsIntervalMean"] = float(magnitudes.mean())
    out["AbsIntervalStd"] = float(magnitudes.std())  # population
    up = [s for s in semis if s > 0]
    down = [-s for s in semis if s < 0]
    if up:
        out["LargestAscending"] = max(up)
    if down:
        out["LargestDescending"] = max(down)
    return out


def melody_features(score: Score) -> dict:
    """Part, sound, and family melody features off one interval pass per part."""
    sequences = {
        p.part_id: interval_sequence(p) if _pitched(p) else [] for p in score.parts
    }
    out = {}
    for part in score.parts:
        values = melody_from_intervals(sequences[part.part_id])
        out.update({f"Part{part.part_id}_{k}": v for k, v in values.items()})
    for prefix, members in part_groups(score):
        pooled = [iv for p in members for iv in sequences[p.part_id]]
        values = melody_from_intervals(pooled)
        out.update({f"{prefix}_{k}": v for k, v in values.items()})
    return out


def _degree_of(pc: int, tonic: int, mode: str) -> Optional[int]:
    table = _MAJOR_DEGREES if mode == "major" else _MINOR_DEGREES
    return table.get((pc - tonic) % 12)


def _degree_fractions(prefix: str, degrees: Sequence[Optional[int]]) -> dict:
    n = len(degrees)
    out = {}
    for d in range(1, 8):
        out[f"{prefix}_{d}_Frac"] = sum(1 for x in degrees if x == d) / n
    out[f"{prefix}_chromatic_Frac"] = sum(1 for x in degrees if x is None) / n
    return out


def scale_degree_features(
    part: Part, score: Score, global_key: Optional[tuple[int, str]] = None
) -> dict:
    """Degree distributions against the estimated main key and, when harmony
    annotations exist, against each note's governing local key."""
    if not _pitched(part):
        return {}
    notes = counted_notes(part)
    if not notes:
        return {}
    out = {}
    if global_key is not None:
        tonic, mode = global_key
        degrees = [_degree_of(e.pitch.pitch_class, tonic, mode) for e in notes]
        out.update(_degree_fractions("Degree", degrees))

    annotations = score.annotations
    if annotations:
        keys = [(key_tonic_pc(a.local_key), key_mode(a.local_key)) for a in annotations]
        governing = governing_indices(
            [(a.measure_index, a.beat) for a in annotations],
            [(e.measure_index, e.onset - score.measure_offset(e.measure_index)) for e in notes],
        )
        local_degrees = []
        for e, idx in zip(notes, governing):
            if idx < 0:
                continue
            tonic, mode = keys[idx]
            if tonic is None or mode is None:
                continue
            local_degrees.append(_degree_of(e.pitch.pitch_class, tonic, mode))
        if local_degrees:
            out.update(_degree_fractions("LocalDegree", local_degrees))
    return out
