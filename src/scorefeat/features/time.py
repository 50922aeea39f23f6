"""Duration and inter-part feature families: density, rhythm, texture."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from ..model import Part, Score, note_count, sounding_measures
from .core import mean_std, scopes

_DURATION_CLASSES = (
    ("whole", Fraction(4)),
    ("half", Fraction(2)),
    ("quarter", Fraction(1)),
    ("eighth", Fraction(1, 2)),
    ("sixteenth", Fraction(1, 4)),
)
DURATION_CLASS_NAMES = tuple(name for name, _ in _DURATION_CLASSES) + ("other",)

_DOT_FACTORS = {0: Fraction(1), 1: Fraction(3, 2), 2: Fraction(7, 4)}


def density_features(score: Score) -> dict:
    """Part, sound, and family density features off one duration pass per part:
    note counts against measure counts and sounding span."""
    total = score.total_quarters() * score.ticks_per_quarter  # ticks
    counts = {}
    for p in score.parts:
        counts[p.part_id] = (note_count(p), len(sounding_measures(p)), sum(p.notes.merged))

    def emit(prefix: str, members) -> dict:
        notes = sum(counts[p.part_id][0] for p in members)
        sounding = sum(counts[p.part_id][1] for p in members)
        sounded = sum(counts[p.part_id][2] for p in members)
        values = {"NotesPerMeasure": notes / (score.num_measures * len(members))}
        if sounding:
            values["NotesPerSoundingMeasure"] = notes / sounding
        if total > 0:
            values["SoundingDensity"] = float(sounded / (total * len(members)))
        return {prefix + k: v for k, v in values.items()}

    out = {}
    for prefix, members in scopes(score):
        out.update(emit(prefix, members))
    return out


@lru_cache(maxsize=4096)
def duration_class(duration: Fraction, dots: int) -> str:
    """Nominal class of a notated duration: dots are undone and simple triplet
    members class by their notated value; anything else is "other"."""
    nominal = duration / _DOT_FACTORS[dots]
    for name, value in _DURATION_CLASSES:
        if nominal == value or nominal == value * Fraction(2, 3):
            return name
    return "other"


def rhythm_features(part: Part, tpq: int) -> dict:
    """Average/spread of durations (tie chains merged) plus figure fractions;
    ``tpq`` is the score's ticks per quarter note."""
    cols = part.notes
    n = len(cols.heads)
    if not n:
        return {}
    dots = [e.dots for e in cols.heads]
    out = {}
    out["AvgDuration"], out["DurationStd"] = mean_std(cols.merged, tpq)  # population std
    out["DottedFrac"] = dots.count(1) / n
    out["DoubleDottedFrac"] = dots.count(2) / n
    histogram = dict.fromkeys(DURATION_CLASS_NAMES, 0)
    for (ticks, k), count in Counter(zip(cols.duration, dots)).items():
        histogram[duration_class(Fraction(ticks, tpq), k)] += count
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
