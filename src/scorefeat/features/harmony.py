"""Harmony feature family over attached Roman-numeral annotations."""

from __future__ import annotations

from ..harmony import FUNCTIONS, classify_function, key_mode
from ..model import Score


def harmony_features(score: Score) -> dict:
    """Annotation counts, functional tallies, harmonic rhythm, modulations.

    Scores without annotations emit nothing: harmony features are missing,
    not zero. "Beats" are quarter-normalized time-signature beats, so a 6/8
    measure counts 3.
    """
    if score.annotations is None:
        return {}
    annotations = score.annotations
    out = {"NumAnnotations": len(annotations)}

    tallies = dict.fromkeys(FUNCTIONS, 0)
    degree_counts: dict[str, int] = {}
    for a in annotations:
        tallies[classify_function(a.degree, a.applied_of, a.quality)] += 1
        if a.degree != "unknown":
            degree_counts[a.degree] = degree_counts.get(a.degree, 0) + 1
    labels = {"T": "T", "D": "D", "S": "S", "other": "Other"}
    for fn in FUNCTIONS:
        out[f"Function_{labels[fn]}_Count"] = tallies[fn]
        if annotations:
            out[f"Function_{labels[fn]}_Frac"] = tallies[fn] / len(annotations)

    out["HarmonicRhythmPerMeasure"] = len(annotations) / score.num_measures
    total_beats = score.nominal_quarters()
    if total_beats > 0:
        out["HarmonicRhythmPerBeat"] = float(len(annotations) / total_beats)

    out["NumModulations"] = sum(1 for a in annotations if a.is_key_change)
    keys = [a.local_key for a in annotations if a.local_key]
    out["NumLocalKeys"] = len(set(keys))
    modes = [key_mode(k) for k in keys]
    modes = [m for m in modes if m is not None]
    out["ModeChanges"] = sum(1 for prev, cur in zip(modes, modes[1:]) if prev != cur)

    for degree in sorted(degree_counts):
        out[f"Label_{degree}_Count"] = degree_counts[degree]
    return out
