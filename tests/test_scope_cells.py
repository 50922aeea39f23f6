"""Cells merged from per-part summaries equal their pooled oracles.

The melody, density, key, scale and rhythm families compute one summary per
part and merge sound and family cells from their members' summaries. Here
every such cell of a random score is recomputed the slow way: from pooled
lists, exact ``Fraction``s, and ``interval_name`` on the spelled pitches of
each part's melodic line, counted here without the package's summaries.
Half the scores give every part one sound, so sound and family scopes have
several members.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import pairwise

from hypothesis import given, settings
from hypothesis import strategies as st

from scorefeat.features.pitch import PitchClassProfile, estimate_key_ks, interval_name
from scorefeat.harmony import attach_annotations, key_mode, key_tonic_pc, parse_harmony_file
from scorefeat.instruments import part_identifier
from util import nearest_sqrt, random_model_score, run_module

_DEGREES = {
    "major": {0: 1, 2: 2, 4: 3, 5: 4, 7: 5, 9: 6, 11: 7},
    "minor": {0: 1, 2: 2, 3: 3, 5: 4, 7: 5, 8: 6, 10: 7, 11: 7},
}
_LOCAL_KEYS = ("C", "G", "a", "F#", "bb", "Eb", "e", "?")  # "?" names no key
_CLASSES = (("whole", Fraction(4)), ("half", Fraction(2)), ("quarter", Fraction(1)),
            ("eighth", Fraction(1, 2)), ("sixteenth", Fraction(1, 4)))
_DOTS = {0: Fraction(1), 1: Fraction(3, 2), 2: Fraction(7, 4)}


@st.composite
def scores(draw):
    rng = draw(st.randoms(use_true_random=False))
    s = random_model_score(rng, max_parts=5)
    if draw(st.booleans()):  # every part a violin: one sound and one family of them all
        s = replace(s, parts=tuple(
            replace(p, instrument_sound="violin", sound_ordinal=i, family="strings",
                    is_vocal=False, part_id=part_identifier("violin", i))
            for i, p in enumerate(s.parts, 1)))
    if draw(st.booleans()):  # local keys from harmony annotations
        lines = {(rng.randint(1, s.num_measures), rng.choice(["0", "1", "3/2", "3"])):
                 rng.choice(_LOCAL_KEYS) for _ in range(rng.randint(1, 4))}
        text = "measure\tbeat\tlabel\tkey\n" + "".join(
            f"{m}\t{beat}\tI\t{key}\n" for (m, beat), key in lines.items())
        s = attach_annotations(s, parse_harmony_file(text))
    return s


def _melody_cells(prefix, intervals):
    """The melody cells of pooled (semitones, name) intervals, recounted."""
    n = len(intervals)
    if not n:
        return {}
    out = {}
    names = [name for _, name in intervals]
    for name in sorted(set(names)):
        out[f"{prefix}Interval_{name}_Count"] = names.count(name)
        out[f"{prefix}Interval_{name}_Frac"] = float(Fraction(names.count(name), n))
    semis = [s for s, _ in intervals]
    rises = [s for s in semis if s > 0]
    falls = [-s for s in semis if s < 0]
    steps = [s for s in semis if abs(s) <= 2]
    out[f"{prefix}AscendingFrac"] = float(Fraction(len(rises), n))
    out[f"{prefix}DescendingFrac"] = float(Fraction(len(falls), n))
    out[f"{prefix}RepeatedFrac"] = float(Fraction(semis.count(0), n))
    out[f"{prefix}StepwiseFrac"] = float(Fraction(len(steps), n))
    out[f"{prefix}LeapFrac"] = float(Fraction(n - len(steps), n))
    sizes = [Fraction(abs(s)) for s in semis]
    mean = sum(sizes) / n
    out[f"{prefix}AbsIntervalMean"] = float(mean)
    out[f"{prefix}AbsIntervalStd"] = nearest_sqrt(sum((x - mean) ** 2 for x in sizes) / n)
    if rises:
        out[f"{prefix}LargestAscending"] = max(rises)
    if falls:
        out[f"{prefix}LargestDescending"] = max(falls)
    return out


def _degree_cells(prefix, degrees):
    n = len(degrees)
    out = {f"{prefix}_{d}_Frac": float(Fraction(degrees.count(d), n)) for d in range(1, 8)}
    out[f"{prefix}_chromatic_Frac"] = float(Fraction(degrees.count(None), n))
    return out


def _governing_key(s, measure, onset):
    """(tonic, mode) of the last annotation at or before a note, or None."""
    position = Fraction(onset - s.measure_offset(measure), s.ticks_per_quarter)
    key = None
    for a in s.annotations or ():
        if (a.measure_index, a.beat) <= (measure, position):
            key = (key_tonic_pc(a.local_key), key_mode(a.local_key))
    return None if key is None or None in key else key


def _duration_class(quarters, dots):
    nominal = quarters / _DOTS[dots]
    for name, value in _CLASSES:
        if nominal in (value, value * Fraction(2, 3)):
            return name
    return "other"


def _heads(part):
    """The counted notes, walked from the events: tie-chain heads that are
    not grace."""
    return [e for e in part.events
            if e.kind == "note" and not e.grace and e.tie in ("none", "start")]


@settings(deadline=None)
@given(scores())
def test_every_scope_cell_equals_its_pooled_oracle(s):
    tpq = s.ticks_per_quarter

    melody, density = {}, {}
    span = s.total_quarters() * tpq
    for prefix, members in s.scopes:
        lines = [[p.notes.pitch[i] for i in p.notes.line] for p in members]
        melody.update(_melody_cells(prefix, [interval_name(a, b) for line in lines
                                             for a, b in pairwise(line)]))
        k = len(members)
        notes = sum(len(_heads(p)) for p in members)
        sounding = sum(len(set(p.notes.measure)) for p in members)
        density[f"{prefix}NotesPerMeasure"] = float(Fraction(notes, s.num_measures * k))
        if sounding:
            density[f"{prefix}NotesPerSoundingMeasure"] = float(Fraction(notes, sounding))
        sounded = sum(sum(p.notes.merged) for p in members)
        density[f"{prefix}SoundingDensity"] = float(Fraction(sounded) / (span * k))
    assert list(run_module("melody", s).items()) == list(melody.items())
    assert list(run_module("density", s).items()) == list(density.items())

    weights = [Fraction(0)] * 12  # in quarters
    for p in s.parts:
        for midi, ticks in zip(p.notes.midi, p.notes.merged):
            weights[midi % 12] += Fraction(ticks, tpq)
    key = run_module("key", s)
    if sum(weights) == 0:
        assert key == {}
        return
    estimate = estimate_key_ks(PitchClassProfile(tuple(weights)))
    assert (key["Key"], key["KeyMode"], key.get("KS_Correlation")) == (
        estimate.name, estimate.mode, estimate.score)

    tonic = key_tonic_pc(key["Key"])
    for p in s.parts:
        heads, merged = _heads(p), p.notes.merged
        if not heads:
            continue
        n = len(heads)
        pcs = [midi % 12 for midi in p.notes.midi]
        scale = _degree_cells("Degree", [_DEGREES[estimate.mode].get((pc - tonic) % 12)
                                         for pc in pcs])
        local = []
        for pc, e in zip(pcs, heads):
            if (governing := _governing_key(s, e.measure_index, e.onset)) is not None:
                local.append(_DEGREES[governing[1]].get((pc - governing[0]) % 12))
        if local:
            scale.update(_degree_cells("LocalDegree", local))
        assert run_module("scale", s, p) == scale

        mean = Fraction(sum(merged), n * tpq)
        dots = [e.dots for e in heads]
        rhythm = {
            "AvgDuration": float(mean),
            "DurationStd": nearest_sqrt(sum((Fraction(d, tpq) - mean) ** 2 for d in merged) / n),
            "DottedFrac": float(Fraction(dots.count(1), n)),
            "DoubleDottedFrac": float(Fraction(dots.count(2), n)),
        }
        classes = [_duration_class(Fraction(e.duration, tpq), e.dots) for e in heads]
        for name in ("whole", "half", "quarter", "eighth", "sixteenth", "other"):
            rhythm[f"Duration_{name}_Frac"] = float(Fraction(classes.count(name), n))
        assert run_module("rhythm", s, p) == rhythm
