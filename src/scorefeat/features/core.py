"""Bookkeeping feature families: core counts, scoring, tempo, dynamics, lyrics."""

from __future__ import annotations

import re
from functools import lru_cache
from math import isqrt
from operator import mul
from typing import Sequence

from ..model import (
    FAMILY_PREFIXES,
    Part,
    Score,
    governing_indices,
    note_count,
    sounding_measures,
)

# Engraver-default-style intensity levels on a 0-127 scale. Accent marks
# (sfz and friends) sound at forte; extreme markings clamp to the ends.
CANONICAL_DYNAMICS = ("ppp", "pp", "p", "mp", "mf", "f", "ff", "fff")
DEFAULT_DYNAMIC_LEVELS = {
    "ppp": 16, "pp": 33, "p": 49, "mp": 64, "mf": 80, "f": 96, "ff": 112, "fff": 126,
    "pppp": 16, "ffff": 126,
    "sf": 96, "sfz": 96, "sffz": 96, "fz": 96, "rf": 96, "rfz": 96,
    "fp": 96, "sfp": 96, "pf": 96,
}


def nearest_dynamic_token(velocity: int) -> str:
    """Canonical marking whose level is closest to a MIDI velocity."""
    return min(
        CANONICAL_DYNAMICS,
        key=lambda t: (abs(DEFAULT_DYNAMIC_LEVELS[t] - velocity), DEFAULT_DYNAMIC_LEVELS[t]),
    )


def sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded, for ints num >= 0 and den > 0: a
    root of 55 bits or more, its last bit set when inexact, rounds once."""
    k = max(0, (110 - num.bit_length() + den.bit_length()) // 2)
    root = isqrt((num << 2 * k) // den)
    return (root | (root * root * den != num << 2 * k)) / (1 << k)


def moments(n: int, total: int, squares: int, scale: int = 1) -> tuple[float, float]:
    """Mean and population standard deviation of ``n`` ints over ``scale``,
    with sum ``total`` and sum of squares ``squares``, correctly rounded.
    Sums of parts add up to the sums of their union, so a merged cell is
    exact (Chan, Golub & LeVeque 1979)."""
    return total / (n * scale), sqrt_ratio(n * squares - total * total, (n * scale) ** 2)


def mean_std(values: Sequence[int], scale: int = 1) -> tuple[float, float]:
    """Mean and population standard deviation of ``values / scale``."""
    return moments(len(values), sum(values), sum(map(mul, values, values)), scale)


# A score-level value whose name already starts with a scope prefix keeps
# it: ``Part<Id>_``, ``Sound<Name>_`` or ``Family<Name>_``, where <...> is
# empty or starts with an uppercase letter or digit, or ``Texture_`` or
# ``Score_``. Any other name gets ``Score_``.
SCOPED_NAME = re.compile(r"(?:(?:Part|Sound|Family)(?:[A-Z0-9][0-9A-Za-z]*)?|Texture|Score)_")


@lru_cache(maxsize=4096)
def scoped_names(prefix: str, keys: tuple[str, ...]) -> tuple[str, ...]:
    """``prefix`` before each of ``keys``: the column names of one scope's
    cells, built once per (prefix, keys) rather than once per cell."""
    return tuple(prefix + key for key in keys)


def core_part(part: Part, score: Score, upstream) -> dict:
    return {
        "NumNotes": note_count(part),
        "SoundingMeasures": len(sounding_measures(part)),
    }


def core_score(score: Score, part_values, upstream) -> dict:
    num, den = score.time_signatures[0][1:]
    out = {
        "NumMeasures": score.num_measures,
        "TimeSignature": f"{num}/{den}",
        "KeySignature": score.key_signature,
    }

    for prefix, members in score.scopes[len(score.parts):]:  # sounds, families
        values = [part_values[p.part_id]["NumNotes"] for p in members]
        out[f"{prefix}NumNotes"] = sum(values)
        out[f"{prefix}NumNotesMean"] = sum(values) / len(values)
    return out


def scoring_features(score: Score) -> dict:
    sounds_in_order: list[str] = []
    for part in score.parts:
        if part.instrument_sound not in sounds_in_order:
            sounds_in_order.append(part.instrument_sound)
    vocal = []
    for part in score.parts:
        if part.is_vocal and part.instrument_sound not in vocal:
            vocal.append(part.instrument_sound)

    out = {
        "Instrumentation": ",".join(sounds_in_order),
        "NumParts": len(score.parts),
    }
    if vocal:
        out["Voices"] = ",".join(vocal)
    sizes = {prefix: len(members) for prefix, members in score.scopes[len(score.parts):]}
    families = {prefix: sizes.pop(prefix, 0) for prefix in FAMILY_PREFIXES.values()}
    for prefix, n in sizes.items():  # the sounds
        out[f"{prefix}NumParts"] = n
    for prefix, n in families.items():
        out[f"{prefix}Present"] = int(n > 0)
        out[f"{prefix}NumParts"] = n
    return out


def tempo_features(score: Score) -> dict:
    out = {}
    for mark in score.tempo_marks:
        if mark.text:
            out["TempoMarking"] = mark.text.lower()
            break
    for mark in score.tempo_marks:
        if mark.bpm is not None:
            out["TempoBPM"] = mark.bpm
            break
    out["NumTempoChanges"] = max(len(score.tempo_marks) - 1, 0)
    return out


def dynamics_features(part: Part) -> dict:
    """Duration-weighted dynamics, each marking effective until the next.

    Parts with no markings emit nothing (missing, not zero).
    """
    marks = [(pos, tok) for pos, tok in part.dynamic_marks if tok in DEFAULT_DYNAMIC_LEVELS]
    if not marks:
        return {}

    cols = part.notes
    weights: dict[int, int] = {}  # mark index -> governed ticks
    boundaries = [pos for pos, _ in marks]
    levels = [DEFAULT_DYNAMIC_LEVELS[tok] for _, tok in marks]
    for ticks, idx in zip(cols.duration, governing_indices(boundaries, cols.onset)):
        if idx < 0:
            continue  # sounding before the first marking: no level in force
        weights[idx] = weights.get(idx, 0) + ticks

    total = sum(weights.values())
    if total > 0:
        mean = sum(levels[i] * w for i, w in weights.items()) / total
    else:
        mean = sum(levels) / len(levels)  # marks without governed notes

    out = {
        "DynMean": mean,
        "DynRange": max(levels) - min(levels),
    }
    for _, tok in marks:
        out[f"Dyn_{tok}_Count"] = out.get(f"Dyn_{tok}_Count", 0) + 1
    return out


def lyrics_features(part: Part) -> dict:
    """Syllable-alignment features; only vocal parts emit anything."""
    if not part.is_vocal:
        return {}
    lyrics = part.notes.lyric
    out = {}
    if part.measure_count > 0:
        out["SoundingMeasuresRatio"] = len(sounding_measures(part)) / part.measure_count
    syllables = sum(
        1 for lyric in lyrics if lyric is not None and lyric.syllabic in ("single", "begin")
    )
    if syllables == 0:
        return out
    out["NumSyllables"] = syllables
    out["NotesPerSyllable"] = len(lyrics) / syllables
    out["MelismaRatio"] = (len(lyrics) - syllables) / len(lyrics)
    return out
