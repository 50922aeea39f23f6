import math
import random
from dataclasses import replace
from fractions import Fraction
from statistics import correlation

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from scorefeat.engine import ExtractorConfig, RunReport, extract, extract_unit
from scorefeat.features import STOCK_FEATURES
from scorefeat.features.pitch import (
    _DEGREE_TABLES,
    KRUMHANSL_MAJOR,
    KRUMHANSL_MINOR,
    KeyEstimate,
    PitchClassProfile,
    estimate_key_ks,
    interval_name,
    key_features,
    profile_from_score,
    scale_degree_features,
)
from scorefeat.harmony import (
    HarmonicAnnotation,
    attach_annotations,
    key_mode,
    key_tonic_pc,
    parse_harmony_file,
)
from scorefeat.model import STEP_ORDER, SpelledPitch, midi_number, slice_window
from scorefeat.registry import feature_modules, register_hook, resolve_feature_order
from util import (
    P,
    musicxml_doc,
    nearest_sqrt,
    note,
    part,
    random_model_score,
    rounds_to,
    run_module,
    score,
    sqrt_rounds_to,
)

MAJOR_PCS = (0, 2, 4, 5, 7, 9, 11)
HARMONIC_MINOR_PCS = (0, 2, 3, 5, 7, 8, 11)


def brute_force_key(weights):
    """Independent oracle: plain Pearson correlation over all 24 candidates."""
    best = None
    for mode_rank, (mode, ref) in enumerate((("major", KRUMHANSL_MAJOR),
                                             ("minor", KRUMHANSL_MINOR))):
        for tonic in range(12):
            rotated = [ref[(pc - tonic) % 12] for pc in range(12)]
            r = correlation(list(weights), rotated)
            k = (-r, mode_rank, tonic)
            if best is None or k < best[0]:
                best = (k, tonic, mode)
    return best[1], best[2]


def reference_key(profile):
    """The numpy estimator this package used to have: one ``np.corrcoef`` per
    rotated reference profile. Returns (tonic, mode, score, runner_up_margin)."""
    weights = np.asarray(profile.weights, dtype=float)
    if np.ptp(weights) == 0 or np.count_nonzero(weights) == 1:
        return int(np.argmax(weights)), "major", None, 0.0
    correlations = []
    for mode, ref in (("major", np.asarray(KRUMHANSL_MAJOR)),
                      ("minor", np.asarray(KRUMHANSL_MINOR))):
        for tonic in range(12):
            r = float(np.corrcoef(weights, np.roll(ref, tonic))[0, 1])
            correlations.append((r, mode, tonic))
    best = max(correlations, key=lambda c: c[0])  # stable: major/low tonic first
    others = sorted((c[0] for c in correlations if c is not best), reverse=True)
    return best[2], best[1], best[0], best[0] - others[0]


def exact_key(profile):
    """Oracle: Pearson correlations over Fractions, with the reference
    profiles at their decimal values, ranked exactly (ties: major, then the
    lower tonic). The winner's and the runner-up's correlations are the
    floats nearest their exact values. Returns (tonic, mode, score,
    runner_up_margin)."""
    weights = [Fraction(w) for w in profile.weights]
    if sum(weights) <= 0:
        raise ValueError("key estimation needs at least one positive weight")
    if len(set(weights)) == 1 or sum(1 for w in weights if w) == 1:
        return weights.index(max(weights)), "major", None, 0.0
    ranked = []
    for mode, ref in (("major", KRUMHANSL_MAJOR), ("minor", KRUMHANSL_MINOR)):
        ref = [Fraction(str(v)) for v in ref]
        for tonic in range(12):
            rotated = [ref[(pc - tonic) % 12] for pc in range(12)]
            mx, my = sum(weights) / 12, sum(rotated) / 12
            cov = sum((x - mx) * (y - my) for x, y in zip(weights, rotated))
            square = cov * cov / (sum((x - mx) ** 2 for x in weights)
                                  * sum((y - my) ** 2 for y in rotated))
            signed = square if cov >= 0 else -square
            ranked.append((-signed, len(ranked), tonic, mode, cov, square))
    ranked.sort()
    best, second = (math.copysign(nearest_sqrt(square), cov)
                    for _, _, _, _, cov, square in ranked[:2])
    return ranked[0][2], ranked[0][3], best, best - second


def scale_profile(pcs, transpose=0):
    weights = [0.0] * 12
    for pc in pcs:
        weights[(pc + transpose) % 12] = 1.0
    return PitchClassProfile(weights=tuple(weights))


class TestKeyEstimation:
    @pytest.mark.parametrize("transpose", range(12))
    def test_major_scales_match_oracle(self, transpose):
        profile = scale_profile(MAJOR_PCS, transpose)
        est = estimate_key_ks(profile)
        assert (est.tonic, est.mode) == (transpose, "major")
        assert (est.tonic, est.mode) == brute_force_key(profile.weights)

    @pytest.mark.parametrize("transpose", range(12))
    def test_harmonic_minor_scales_match_oracle(self, transpose):
        profile = scale_profile(HARMONIC_MINOR_PCS, transpose)
        est = estimate_key_ks(profile)
        assert (est.tonic, est.mode) == (transpose, "minor")
        assert (est.tonic, est.mode) == brute_force_key(profile.weights)

    def test_correlation_value_matches_oracle(self):
        profile = scale_profile(MAJOR_PCS)
        est = estimate_key_ks(profile)
        expected = correlation(list(profile.weights), list(KRUMHANSL_MAJOR))
        assert est.score == pytest.approx(expected, rel=1e-12)

    @given(st.lists(st.floats(0.1, 10), min_size=12, max_size=12), st.integers(1, 11))
    def test_transposition_equivariance(self, weights, k):
        profile = PitchClassProfile(weights=tuple(weights))
        rotated = PitchClassProfile(weights=tuple(weights[-k:] + weights[:-k]))
        try:
            a = estimate_key_ks(profile)
            b = estimate_key_ks(rotated)
        except ValueError:
            return
        if a.score is None or b.score is None:
            return
        if a.runner_up_margin < 1e-9:  # argmax tie: rotation may pick the twin
            return
        assert b.mode == a.mode
        assert b.tonic == (a.tonic + k) % 12

    @given(st.lists(st.one_of(st.floats(0, 1e3), st.integers(0, 8).map(float)),
                    min_size=12, max_size=12))
    @example([0.0, 0, 0, 1, 0, 0] * 2)  # Eb and A major tie exactly; Eb wins
    @example([1.0] * 12)  # flat: no correlation
    @example([1000.0] * 11 + [math.nextafter(1000.0, 0)])  # corrcoef reads 0.292
    def test_matches_corrcoef_reference_exactly(self, weights):
        """Key and correlation equal the exact oracle's, correctly rounded.
        ``np.corrcoef``'s correlation is within 4 ulps of 1.0, times the
        weights' condition number Σw²/Σ(w - mean)², of ours: it centres
        rounded values, so near-equal weights lose digits (it reads 0.292
        for 0.305 when eleven weights are 1000.0 and one is the float below)."""
        profile = PitchClassProfile(weights=tuple(weights))
        try:
            expected = exact_key(profile)
        except ValueError:
            with pytest.raises(ValueError):
                estimate_key_ks(profile)
            return
        est = estimate_key_ks(profile)
        got = (est.tonic, est.mode, est.score, est.runner_up_margin)
        assert repr(got) == repr(expected)
        _tonic, _mode, approx, _margin = reference_key(profile)
        if est.score is None:
            assert approx is None
        else:
            exact = [Fraction(w) for w in weights]
            mean = sum(exact) / 12
            condition = sum(w * w for w in exact) / sum((w - mean) ** 2 for w in exact)
            assert abs(est.score - approx) <= 4 * math.ulp(1.0) * condition

    def test_single_pitch_class_fallback(self):
        est = estimate_key_ks(scale_profile((7,)))
        assert est.tonic == 7 and est.mode == "major" and est.score is None

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            estimate_key_ks(PitchClassProfile(weights=(0.0,) * 12))


class TestKeyFeatures:
    def _scale_score(self, pcs, fifths=0):
        names = {0: ("C", 0), 2: ("D", 0), 4: ("E", 0), 5: ("F", 0), 7: ("G", 0),
                 9: ("A", 0), 11: ("B", 0), 1: ("C", 1), 3: ("E", -1), 6: ("F", 1),
                 8: ("A", -1), 10: ("B", -1)}
        events = []
        for i, pc in enumerate(pcs):
            step, alter = names[pc % 12]
            events.append(note(step, 4, alter, onset=i, dur=1, measure=i // 4 + 1))
        return score([part(events, measures=2)], measures=2, fifths=fifths)

    def test_c_major_fixture(self):
        out = key_features(self._scale_score(MAJOR_PCS))
        assert out["Key"] == "C"
        assert out["KeyMode"] == "major"

    def test_signature_match_flag(self):
        out = key_features(self._scale_score([(pc + 9) % 12 for pc in MAJOR_PCS], fifths=3))
        assert out["Key"] == "A"
        assert out["KeySignatureMatchesEstimate"] == 1

    def test_empty_score_missing(self):
        assert key_features(score([part([], measures=1)])) == {}

    def test_key_signature_comes_from_core_alone(self):
        s = self._scale_score([(pc + 9) % 12 for pc in MAJOR_PCS], fifths=3)
        assert "KeySignature" not in key_features(s)
        assert run_module("core", s)["KeySignature"] == 3

    def test_profile_is_exact_in_quarters(self):
        events = [note("C", onset=0, dur=Fraction(1, 3)),
                  note("E", onset=Fraction(1, 3), dur=Fraction(2, 3))]
        profile = profile_from_score(score([part(events)]))
        assert profile.weights == (Fraction(1, 3), 0, 0, 0, Fraction(2, 3)) + (0,) * 7

    def test_duration_weighting(self):
        # long G-major content outweighs a short chromatic blip
        events = [note("G", onset=0, dur=8, measure=1),
                  note("B", onset=8, dur=4, measure=3),
                  note("D", 5, onset=12, dur=4, measure=4)]
        profile = profile_from_score(score([part(events, measures=4)], measures=4))
        assert profile.weights[7] == 8.0
        assert profile.total == 16.0


class TestAmbitus:
    def test_span_c4_to_g5(self):
        p = part([note("C", 4, onset=0, dur=1), note("G", 5, onset=1, dur=1)])
        out = run_module("ambitus", p)
        assert out["AmbitusSemitones"] == 19
        assert out["LowestName"] == "C4"
        assert out["HighestName"] == "G5"

    def test_single_note(self):
        assert run_module("ambitus", part([note("C")]))["AmbitusSemitones"] == 0

    def test_empty_missing(self):
        assert run_module("ambitus", part([])) == {}

    def test_score_ambitus_brute_force(self):
        rng = random.Random(5)
        for _ in range(10):
            s = random_model_score(rng)
            out = run_module("ambitus", s)
            midis = [
                midi_number(e.pitch)
                for p in s.parts if p.family != "percussion"
                for e in p.events
                if e.kind == "note" and not e.grace and e.tie in ("none", "start")
            ]
            if not midis:
                assert out == {}
                continue
            assert out["AmbitusSemitones"] == max(midis) - min(midis)
            for p in s.parts:
                part_out = run_module("ambitus", p)
                if part_out:
                    assert part_out["AmbitusSemitones"] <= out["AmbitusSemitones"]


class TestIntervals:
    @pytest.mark.parametrize(
        "a,b,semis,name",
        [
            (P("C"), P("E"), 4, "M3"),
            (P("C"), P("G", -1), 6, "d5"),
            (P("C"), P("F", 1), 6, "A4"),
            (P("E"), P("C"), -4, "M3"),
            (P("C"), P("C"), 0, "P1"),
            (P("C"), P("C", 1), 1, "A1"),
            (P("C"), P("D", -1), 1, "m2"),
            (P("C", 0, 4), P("C", 0, 5), 12, "P8"),
            (P("C", 0, 4), P("D", 0, 5), 14, "M9"),
            (P("B", 0, 3), P("F", 0, 4), 6, "d5"),
            (P("F", 0, 4), P("B", 0, 4), 6, "A4"),
        ],
    )
    def test_spelled_arithmetic(self, a, b, semis, name):
        assert interval_name(a, b) == (semis, name)

    @given(
        st.builds(SpelledPitch, step=st.sampled_from("CDEFGAB"),
                  alter=st.integers(-1, 1), octave=st.integers(2, 6)),
        st.builds(SpelledPitch, step=st.sampled_from("CDEFGAB"),
                  alter=st.integers(-1, 1), octave=st.integers(2, 6)),
    )
    @example(P("E", 1, 2), P("F", -1, 2))  # letters rise, pitch falls: dd2
    @example(P("C", -1, 3), P("B", 1, 2))  # letters fall, pitch rises: dd2
    def test_name_rederives_semitones(self, a, b):
        # consistency oracle: unpack quality+size back into a semitone count,
        # measured along the letter direction (pitch direction for unisons)
        semis, name = interval_name(a, b)
        letters = (STEP_ORDER.index(b.step) + 7 * b.octave) - (
            STEP_ORDER.index(a.step) + 7 * a.octave)
        direction = 1 if letters > 0 or (letters == 0 and semis >= 0) else -1
        quality = name.rstrip("0123456789")
        size = int(name[len(quality):])
        simple = ((size - 1) % 7) + 1
        octaves = (size - 1) // 7
        perfect = {1: 0, 4: 5, 5: 7}
        major = {2: 2, 3: 4, 6: 9, 7: 11}
        if simple in perfect:
            base = perfect[simple]
            delta = {"P": 0}.get(quality)
        else:
            base = major[simple]
            delta = {"M": 0, "m": -1}.get(quality)
        if delta is None:
            if set(quality) == {"A"}:
                delta = len(quality)
            elif set(quality) == {"d"}:
                delta = -len(quality) if simple in perfect else -len(quality) - 1
            else:
                pytest.fail(f"unexpected quality {quality!r}")
        assert semis * direction == base + 12 * octaves + delta


# MIDI number -> (step, octave, alter), spelled with sharps
_SHARPS = {m: ("CCDDEFFGGAAB"[m % 12], m // 12 - 1, int(m % 12 in (1, 3, 6, 8, 10)))
           for m in range(128)}


class TestMelody:
    @given(st.lists(st.integers(21, 108), min_size=2, max_size=61))
    def test_abs_interval_mean_and_std_are_correctly_rounded(self, midi):
        p = part([note(*_SHARPS[m], onset=i, dur=1, measure=i // 4 + 1)
                  for i, m in enumerate(midi)])
        out = run_module("melody", p)
        sizes = [Fraction(abs(b - a)) for a, b in zip(midi, midi[1:])]
        mean = sum(sizes) / len(sizes)
        assert rounds_to(out["AbsIntervalMean"], mean)
        assert sqrt_rounds_to(out["AbsIntervalStd"],
                              sum((x - mean) ** 2 for x in sizes) / len(sizes))

    def test_fraction_example(self):
        p = part([note("C", onset=0, dur=1), note("D", onset=1, dur=1),
                  note("E", onset=2, dur=1), note("C", onset=3, dur=1)])
        out = run_module("melody", p)  # intervals +2, +2, -4
        assert out["AscendingFrac"] == pytest.approx(2 / 3)
        assert out["StepwiseFrac"] == pytest.approx(2 / 3)
        assert out["AbsIntervalMean"] == pytest.approx(8 / 3)
        assert out["LargestAscending"] == 2
        assert out["LargestDescending"] == 4

    def test_descending_whole_tone_is_stepwise(self):
        p = part([note("D", onset=0, dur=1), note("C", onset=1, dur=1),
                  note("G", onset=2, dur=1)])
        out = run_module("melody", p)  # intervals -2, +7
        assert out["StepwiseFrac"] == 0.5
        assert out["LeapFrac"] == 0.5
        assert out["LargestDescending"] == 2

    def test_monotone_scale_never_descends(self):
        p = part([note("CDEFGAB"[i], 4 + i // 7, onset=i, dur=1) for i in range(7)])
        assert run_module("melody", p)["DescendingFrac"] == 0.0

    def test_direction_fractions_sum_to_one(self):
        rng = random.Random(11)
        for _ in range(10):
            s = random_model_score(rng, max_parts=2)
            for p in s.parts:
                out = run_module("melody", p)
                if not out:
                    continue
                total = out["AscendingFrac"] + out["DescendingFrac"] + out["RepeatedFrac"]
                assert total == pytest.approx(1.0, abs=1e-9)
                assert out["StepwiseFrac"] + out["LeapFrac"] == pytest.approx(1.0, abs=1e-9)
                fracs = sum(v for k, v in out.items()
                            if k.startswith("Interval_") and k.endswith("_Frac"))
                assert fracs == pytest.approx(1.0, abs=1e-9)

    def test_rests_do_not_break_sequence(self):
        from util import rest

        p = part([note("C", onset=0, dur=1), rest(onset=1, dur=2),
                  note("E", onset=3, dur=1)])
        assert run_module("melody", p)["Interval_M3_Count"] == 1

    def test_chord_voice_flag(self):
        p = part([note("C", 4, onset=0, dur=1), note("E", 5, onset=0, dur=1),
                  note("D", 4, onset=1, dur=1)])
        assert [p.notes.pitch[i].name for i in p.notes.line] == ["E5", "D4"]
        cells = run_module("melody", p)  # E5 -> D4, not the lower voice's C4 -> D4 (M2)
        assert cells["Interval_M9_Count"] == 1 and "Interval_M2_Count" not in cells

    def test_short_line_empty(self):
        assert run_module("melody", part([note("C")])) == {}


class TestScaleDegrees:
    def test_all_dominant(self):
        events = [note("G", onset=i, dur=1) for i in range(4)]
        s = score([part(events)])
        out = scale_degree_features(s.parts[0], s, (0, "major"))
        assert out["Degree_5_Frac"] == 1.0

    def test_chromatic_fraction(self):
        events = [note("C", onset=i, dur=Fraction(2, 5)) for i in range(9)]
        events.append(note("F", 4, 1, onset=9, dur=1))
        s = score([part(events)])
        out = scale_degree_features(s.parts[0], s, (0, "major"))
        assert out["Degree_chromatic_Frac"] == pytest.approx(0.1)
        assert out["Degree_1_Frac"] == pytest.approx(0.9)

    def test_fractions_sum_to_one(self):
        rng = random.Random(313)
        s = random_model_score(rng, max_parts=1)
        out = scale_degree_features(s.parts[0], s, (0, "major"))
        if out:
            total = sum(v for k, v in out.items() if k.startswith("Degree_"))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_local_key_after_modulation(self):
        # C major for measures 1-4, G major from measure 5; a D in measure 6
        # counts as local degree 5 (oracle: governing-annotation lookup).
        events = [note("C", onset=4 * m, dur=4, measure=m + 1) for m in range(5)]
        events.append(note("D", 4, onset=20, dur=4, measure=6))
        s = score([part(events, measures=6)], measures=6)
        anns = parse_harmony_file(
            "measure\tbeat\tlabel\tkey\n1\t0\tI\tC\n5\t0\tI\tG\n"
        )
        s = attach_annotations(s, anns)
        out = scale_degree_features(s.parts[0], s, (0, "major"))
        # notes: 5x C (local 1 in C until m5, then local 4 in G) + 1x D (local 5 in G)
        assert out["LocalDegree_5_Frac"] == pytest.approx(1 / 6)
        assert out["LocalDegree_1_Frac"] == pytest.approx(4 / 6)
        assert out["LocalDegree_4_Frac"] == pytest.approx(1 / 6)

    def test_local_key_with_annotations_out_of_order(self):
        # Same score, annotations handed over G-first: a front-to-back scan
        # stops at (5, 0) for measures 1-4, so those notes have no local key,
        # and from measure 5 on the later C annotation governs.
        events = [note("C", onset=4 * m, dur=4, measure=m + 1) for m in range(5)]
        events.append(note("D", 4, onset=20, dur=4, measure=6))
        s = score([part(events, measures=6)], measures=6)
        anns = parse_harmony_file(
            "measure\tbeat\tlabel\tkey\n1\t0\tI\tC\n5\t0\tI\tG\n"
        )
        s = attach_annotations(s, anns[::-1])
        out = scale_degree_features(s.parts[0], s, (0, "major"))
        assert out["LocalDegree_1_Frac"] == pytest.approx(1 / 2)
        assert out["LocalDegree_2_Frac"] == pytest.approx(1 / 2)

    def test_annotation_between_two_ticks(self):
        # beat 1/7 falls between ticks 68 and 69 of 480 per quarter: it
        # governs the note at 1 quarter but not the D at tick 68 (17/120 < 1/7)
        events = [note("C", onset=0, dur=Fraction(17, 120)),
                  note("D", onset=Fraction(17, 120), dur=Fraction(103, 120)),
                  note("E", onset=1, dur=3)]
        s = score([part(events)])
        assert s.parts[0].events[1].onset == 68
        anns = parse_harmony_file("measure\tbeat\tlabel\tkey\n1\t0\tI\tC\n1\t1/7\tI\tG\n")
        out = scale_degree_features(s.parts[0], attach_annotations(s, anns))
        # C and D in C major, E in G major
        assert {k: v for k, v in out.items() if v} == pytest.approx(
            {"LocalDegree_1_Frac": 1 / 3, "LocalDegree_2_Frac": 1 / 3,
             "LocalDegree_6_Frac": 1 / 3})


def _local_degrees_per_note(p, s) -> dict:
    """The LocalDegree cells of part ``p``, note by note: each note's
    position in its measure, found through ``Score.measure_offset``, and a
    front-to-back scan of the annotations that stops at the first one after
    it; the last one before the stop governs."""
    tpq, degrees = s.ticks_per_quarter, []
    marks = [(a.measure_index, math.ceil(a.beat * tpq)) for a in s.annotations]
    for m, onset, midi in zip(p.notes.measure, p.notes.onset, p.notes.midi):
        query, governing = (m, onset - s.measure_offset(m)), None
        for mark, a in zip(marks, s.annotations):
            if mark > query:
                break
            governing = a
        if governing is not None:
            table = _DEGREE_TABLES.get((key_tonic_pc(governing.local_key),
                                        key_mode(governing.local_key)))
            if table is not None:
                degrees.append(table[midi])
    if not degrees:
        return {}
    cells = {f"LocalDegree_{d}_Frac": degrees.count(d) / len(degrees) for d in range(1, 8)}
    cells["LocalDegree_chromatic_Frac"] = degrees.count(0) / len(degrees)
    return cells


@st.composite
def _annotated_scores(draw):
    """A ``random_model_score`` with annotations in any order, some at beats
    past their measure's end, and a window of it."""
    s = random_model_score(draw(st.randoms(use_true_random=False)))
    beats = st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(3),
                             Fraction(17, 4), Fraction(9)])  # a 4/4 measure ends at 4
    positions = draw(st.lists(st.tuples(st.integers(1, s.num_measures), beats), min_size=1,
                              max_size=8, unique=True))
    annotations = [HarmonicAnnotation(m, beat, "I", draw(st.sampled_from(["C", "G", "a", "eb"])),
                                      "I", "major", 0, None, False) for m, beat in positions]
    s = attach_annotations(s, annotations)  # out of order as drawn
    start = draw(st.integers(1, s.num_measures))
    return s, slice_window(s, start, draw(st.integers(1, s.num_measures - start + 1)))


class TestLocalDegreeParity:
    @given(_annotated_scores())
    def test_cells_equal_the_per_note_oracle(self, scores):
        for s in scores:
            for p in s.parts:
                out = scale_degree_features(p, s, None)
                assert out == _local_degrees_per_note(p, s)

    @pytest.mark.parametrize("measures, outside", [((0, 1, 2), 0), ((1, 5, 6), 5)],
                             ids=["before-the-first", "past-the-last"])
    def test_the_first_note_outside_the_score_raises(self, measures, outside):
        events = [note("C", onset=4 * i, dur=4, measure=m) for i, m in enumerate(measures)]
        s = score([part(events, measures=4)], measures=4)
        s = attach_annotations(s, parse_harmony_file("measure\tbeat\tlabel\tkey\n1\t0\tI\tC\n"))
        with pytest.raises(ValueError, match=f"^measure {outside} not in score range$"):
            scale_degree_features(s.parts[0], s)

    def test_a_note_past_the_last_measure_fails_the_files_features(self, tmp_path):
        def hook(s):
            first = s.parts[0]
            measures = (*first.events.measure_index[:-1], s.last_measure + 1)
            events = replace(first.events, measure_index=measures)
            return replace(s, parts=(replace(first, events=events),))

        register_hook("note_past_the_end", hook)
        (tmp_path / "a.musicxml").write_bytes(musicxml_doc([("Violin", [
            [{"step": "C", "octave": 4, "dur": 16}], [{"step": "D", "octave": 4, "dur": 16}]])]))
        (tmp_path / "a.harmony.tsv").write_text("measure\tbeat\tlabel\tkey\n1\t0\tI\tC\n",
                                                encoding="utf-8")
        report = RunReport()
        extract(ExtractorConfig(hooks=["note_past_the_end"]), [tmp_path / "a.musicxml"], report)
        assert report.failures == [{"path": str(tmp_path / "a.musicxml"), "stage": "features",
                                    "error": "measure 3 not in score range"}]


def fifth_up(pitch: SpelledPitch) -> SpelledPitch:
    """The pitch a perfect fifth higher: the letter moves up four steps, B
    gains a sharp (B -> F#), and a letter that passes B moves up an octave."""
    i = STEP_ORDER.index(pitch.step) + 4
    return SpelledPitch(STEP_ORDER[i % 7], pitch.alter + (pitch.step == "B"),
                        pitch.octave + i // 7)


class TestTransposition:
    @staticmethod
    def _row(s):
        registry = feature_modules()
        return extract_unit(s, resolve_feature_order(registry, list(STOCK_FEATURES)), registry)

    @given(st.randoms(use_true_random=False))
    def test_a_fifth_up_moves_only_the_pitch_cells(self, rng):
        s = random_model_score(rng)
        profile = profile_from_score(s)
        key = estimate_key_ks(profile) if profile.total > 0 else None
        assume(key is None or key.runner_up_margin != 0)  # a tie goes to the lower tonic
        up = replace(s, key_signature=s.key_signature + 1, parts=tuple(
            replace(p, events=tuple(e if e.pitch is None else replace(e, pitch=fifth_up(e.pitch))
                                    for e in p.events))
            for p in s.parts))
        before, after = self._row(s), self._row(up)
        assert list(after) == list(before)
        respelled = {e.pitch.name: fifth_up(e.pitch).name
                     for p in s.parts for e in p.events if e.pitch is not None}
        for name, value in before.items():
            if name.endswith(("LowestMidi", "HighestMidi")):
                value += 7
            elif name.endswith(("LowestName", "HighestName")):
                value = respelled[value]
            elif name == "Score_Key":
                value = KeyEstimate((key.tonic + 7) % 12, key.mode, None, 0.0).name
            elif name == "Score_KeySignature":
                value += 1
            assert after[name] == value, name
