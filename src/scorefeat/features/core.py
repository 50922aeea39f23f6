"""Bookkeeping feature families: core counts, scoring, tempo, dynamics, lyrics."""

from __future__ import annotations

from fractions import Fraction

from ..instruments import camel_case
from ..model import (
    FAMILIES,
    Part,
    Score,
    counted_notes,
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


def part_groups(score: Score):
    """(prefix, member parts) per instrument sound, then per family, each in
    order of first appearance; prefixes read ``SoundViolin``, ``FamilyStrings``."""
    for label, attr in (("Sound", "instrument_sound"), ("Family", "family")):
        groups: dict[str, list[Part]] = {}
        for part in score.parts:
            groups.setdefault(getattr(part, attr), []).append(part)
        for name, members in groups.items():
            yield f"{label}{camel_case(name)}", members


def core_part(part: Part, score: Score, upstream) -> dict:
    return {
        "NumNotes": note_count(part),
        "SoundingMeasures": len(sounding_measures(part)),
    }


def core_score(score: Score, part_values, upstream) -> dict:
    num, den = score.time_signatures[0][1:]
    out = {
        "FileName": score.source_id,
        "NumMeasures": score.num_measures,
        "TimeSignature": f"{num}/{den}",
        "KeySignature": score.key_signature,
    }

    for prefix, members in part_groups(score):
        values = [part_values[p.part_id]["NumNotes"] for p in members]
        out[f"{prefix}_NumNotes"] = sum(values)
        out[f"{prefix}_NumNotesMean"] = sum(values) / len(values)
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
    family_counts = {}
    for prefix, members in part_groups(score):
        if prefix.startswith("Sound"):
            out[f"{prefix}_NumParts"] = len(members)
        else:
            family_counts[prefix] = len(members)
    for family in FAMILIES:
        prefix = f"Family{camel_case(family)}"
        n = family_counts.get(prefix, 0)
        out[f"{prefix}_Present"] = int(n > 0)
        out[f"{prefix}_NumParts"] = n
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

    weights: dict[int, Fraction] = {}
    boundaries = [pos for pos, _ in marks]
    levels = [DEFAULT_DYNAMIC_LEVELS[tok] for _, tok in marks]
    notes = counted_notes(part)
    for event, idx in zip(notes, governing_indices(boundaries, (e.onset for e in notes))):
        if idx < 0:
            continue  # sounding before the first marking: no level in force
        weights[idx] = weights.get(idx, Fraction(0)) + event.duration

    total = sum(weights.values(), Fraction(0))
    if total > 0:
        mean = float(sum(levels[i] * w for i, w in weights.items()) / total)
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
    counted = counted_notes(part)
    out = {}
    if part.measure_count > 0:
        out["SoundingMeasuresRatio"] = len(sounding_measures(part)) / part.measure_count
    syllables = sum(
        1 for e in counted if e.lyric is not None and e.lyric.syllabic in ("single", "begin")
    )
    if syllables == 0:
        return out
    out["NumSyllables"] = syllables
    out["NotesPerSyllable"] = len(counted) / syllables
    out["MelismaRatio"] = (len(counted) - syllables) / len(counted)
    return out
