"""Duration and inter-part feature families: density, rhythm, texture."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations

from ..model import Part, Score, note_count, sounding_measures
from .core import mean_std, scoped_names

# Nominal values in sixteenth notes.
_DURATION_CLASSES = (("whole", 16), ("half", 8), ("quarter", 4), ("eighth", 2), ("sixteenth", 1))
DURATION_CLASS_NAMES = tuple(name for name, _ in _DURATION_CLASSES) + ("other",)

# Length of a note with k dots over its undotted value: (numerator, denominator).
_DOT_FACTORS = {0: (1, 1), 1: (3, 2), 2: (7, 4)}


_DENSITY_KEYS = ("NotesPerMeasure", "NotesPerSoundingMeasure", "SoundingDensity")


def density_features(score: Score) -> dict:
    """Part, sound, and family density features off one duration pass per part:
    note counts against measure counts and sounding span."""
    # the score's span is span / per ticks
    span, per = (score.total_quarters() * score.ticks_per_quarter).as_integer_ratio()
    counts = {}
    for p in score.parts:
        counts[p.part_id] = (note_count(p), len(sounding_measures(p)), sum(p.notes.merged))

    def emit(prefix: str, members) -> dict:
        notes = sum(counts[p.part_id][0] for p in members)
        sounding = sum(counts[p.part_id][1] for p in members)
        sounded = sum(counts[p.part_id][2] for p in members)
        per_measure, per_sounding, density = scoped_names(prefix, _DENSITY_KEYS)
        values = {per_measure: notes / (score.num_measures * len(members))}
        if sounding:
            values[per_sounding] = notes / sounding
        if span > 0:
            values[density] = sounded * per / (span * len(members))
        return values

    out = {}
    for prefix, members in score.scopes:
        out.update(emit(prefix, members))
    return out


@lru_cache(maxsize=4096)
def duration_class(ticks: int, tpq: int, dots: int) -> str:
    """Nominal class of a notated duration of ``ticks / tpq`` quarter notes:
    dots are undone and simple triplet members class by their notated value;
    anything else is "other"."""
    num, den = _DOT_FACTORS[dots]
    nominal = 4 * ticks * den  # in sixteenths, times tpq * num
    for name, value in _DURATION_CLASSES:
        exact = value * tpq * num
        if nominal == exact or 3 * nominal == 2 * exact:
            return name
    return "other"


def rhythm_features(part: Part, tpq: int) -> dict:
    """Average/spread of durations (tie chains merged) plus figure fractions;
    ``tpq`` is the score's ticks per quarter note."""
    cols = part.notes
    dots = cols.dots
    n = len(dots)
    if not n:
        return {}
    out = {}
    out["AvgDuration"], out["DurationStd"] = mean_std(cols.merged, tpq)  # population std
    out["DottedFrac"] = dots.count(1) / n
    out["DoubleDottedFrac"] = dots.count(2) / n
    histogram = dict.fromkeys(DURATION_CLASS_NAMES, 0)
    for (ticks, k), count in Counter(zip(cols.duration, dots)).items():
        histogram[duration_class(ticks, tpq, k)] += count
    for name in DURATION_CLASS_NAMES:
        out[f"Duration_{name}_Frac"] = histogram[name] / n
    return out


def texture_features(score: Score) -> dict:
    """Note-count ratio for every unordered part pair, earlier part on top."""
    out = {}
    counts = [(part.part_id, note_count(part)) for part in score.parts]
    for (id_a, n_a), (id_b, n_b) in combinations(counts, 2):
        if n_b > 0:
            out[f"Texture_{id_a}_{id_b}_Ratio"] = n_a / n_b
    return out
