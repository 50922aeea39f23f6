"""Pitch-content feature families: key estimation, scale degrees, ambitus, melody.

Key finding correlates a duration-weighted pitch-class profile against the
major/minor probe-tone profiles from Krumhansl's *Cognitive Foundations of
Musical Pitch* (1990), rotated through all 24 candidate keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

from ..harmony import key_mode, key_tonic_pc
from ..model import (
    STEP_ORDER,
    Part,
    Score,
    governing_indices,
    melodic_line,
    midi_number,
)
from .core import mean_std, scopes, sqrt_ratio

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
    """Duration-weighted pitch-class histogram (index 0 = C), in quarters."""

    weights: tuple

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
    weights = [0] * 12
    for part in score.parts:
        if not _pitched(part):
            continue
        for midi, ticks in zip(part.notes.midi, part.notes.merged):
            weights[midi % 12] += ticks
    return PitchClassProfile(weights=tuple(Fraction(w, score.ticks_per_quarter) for w in weights))


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

    covs = [sum(w * r for w, r in zip(weights, ref)) for _, _, ref, _, _ in _KEY_CANDIDATES]
    ranked = sorted(range(24), key=lambda i: -covs[i] * abs(covs[i]) * _KEY_CANDIDATES[i][4])
    # both are >= 0: a mode's 12 covariances sum to 0 (its references are centred)
    best, second = (sqrt_ratio(12 * covs[i] ** 2, spread * _KEY_CANDIDATES[i][3])
                    for i in ranked[:2])
    mode, tonic = _KEY_CANDIDATES[ranked[0]][:2]
    return KeyEstimate(tonic=tonic, mode=mode, score=best, runner_up_margin=best - second)


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
    extremes = {}  # part_id -> ((midi, event) lowest, (midi, event) highest)
    for p in score.parts:
        if not _pitched(p):
            continue
        pairs = list(zip(p.notes.midi, p.notes.heads))
        if pairs:  # min and max keep the first of equal extremes
            extremes[p.part_id] = (min(pairs, key=lambda t: t[0]), max(pairs, key=lambda t: t[0]))

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
    for prefix, members in scopes(score) + [("", score.parts)]:  # "": the score
        out.update(emit(prefix, members))
    return out


@lru_cache(maxsize=8192)
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

    out["AbsIntervalMean"], out["AbsIntervalStd"] = mean_std([abs(s) for s in semis])
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
    for prefix, members in scopes(score):
        pooled = [iv for p in members for iv in sequences[p.part_id]]
        out.update({prefix + k: v for k, v in melody_from_intervals(pooled).items()})
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
    cols = part.notes
    if not cols.heads:
        return {}
    pitch_classes = [m % 12 for m in cols.midi]
    out = {}
    if global_key is not None:
        tonic, mode = global_key
        degrees = [_degree_of(pc, tonic, mode) for pc in pitch_classes]
        out.update(_degree_fractions("Degree", degrees))

    annotations = score.annotations
    if annotations:
        keys = [(key_tonic_pc(a.local_key), key_mode(a.local_key)) for a in annotations]
        # An annotation at ``beat`` governs a note ``q`` ticks into the
        # measure iff beat * tpq <= q, iff ceil(beat * tpq) <= q (q is whole).
        tpq = score.ticks_per_quarter
        governing = governing_indices(
            [(a.measure_index, -(-a.beat.numerator * tpq // a.beat.denominator))
             for a in annotations],
            [(m, q - score.measure_offset(m)) for m, q in zip(cols.measure, cols.onset)],
        )
        local_degrees = []
        for pc, idx in zip(pitch_classes, governing):
            if idx < 0:
                continue
            tonic, mode = keys[idx]
            if tonic is None or mode is None:
                continue
            local_degrees.append(_degree_of(pc, tonic, mode))
        if local_degrees:
            out.update(_degree_fractions("LocalDegree", local_degrees))
    return out
