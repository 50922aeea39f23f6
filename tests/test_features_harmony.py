import time
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scorefeat.features.harmony import harmony_features
from scorefeat.harmony import HarmonicAnnotation, attach_annotations, parse_harmony_file
from scorefeat.model import Score, slice_window
from util import note, part, score

TSV = "measure\tbeat\tlabel\tkey\n"

_LABEL = HarmonicAnnotation(1, Fraction(0), "I", "C", "I", "major", 0, None, False)


def alternating_score(measures: int) -> Score:
    """No parts, 3/4 and 4/4 in turn in every measure, one annotation each."""
    lengths = [Fraction(3 if m % 2 else 4) for m in range(1, measures + 1)]
    return Score(
        source_id="alternating", parts=(), num_measures=measures,
        time_signatures=tuple((m, 3 if m % 2 else 4, 4) for m in range(1, measures + 1)),
        measure_offsets=tuple(int(q) for q in accumulate([Fraction(0), *lengths[:-1]])),
        ticks_per_quarter=1,
        annotations=tuple(replace(_LABEL, measure_index=m) for m in range(1, measures + 1)))


def annotated_score(rows, measures=4, sig=(4, 4)):
    events = [note("C", onset=4 * m, dur=4, measure=m + 1) for m in range(measures)]
    s = score([part(events, measures=measures)], measures=measures, sig=sig)
    return attach_annotations(s, parse_harmony_file(TSV + rows))


class TestHarmonyFeatures:
    def test_harmonic_rhythm(self):
        rows = "".join(f"{m}\t{b}\tI\tC\n" for m in (1, 2, 3, 4) for b in (0, 2))
        out = harmony_features(annotated_score(rows))
        assert out["NumAnnotations"] == 8
        assert out["HarmonicRhythmPerMeasure"] == 2.0
        assert out["HarmonicRhythmPerBeat"] == 0.5

    def test_function_tallies(self):
        out = harmony_features(annotated_score("1\t0\tI\tC\n2\t0\tV\tC\n3\t0\tI\tC\n"))
        assert out["Function_T_Count"] == 2
        assert out["Function_D_Count"] == 1
        assert out["Function_T_Frac"] == pytest.approx(2 / 3)

    def test_modulation_scan(self):
        # keys C,C,a,C row-wise: oracle says changes at rows 3 and 4
        out = harmony_features(
            annotated_score("1\t0\tI\tC\n2\t0\tV\tC\n3\t0\ti\ta\n4\t0\tI\tC\n")
        )
        assert out["NumModulations"] == 2
        assert out["NumLocalKeys"] == 2
        assert out["ModeChanges"] == 2

    def test_label_degree_counts(self):
        out = harmony_features(
            annotated_score("1\t0\tI\tC\n2\t0\tV7\tC\n3\t0\tV65/ii\tC\n4\t0\tii\tC\n")
        )
        assert out["Label_I_Count"] == 1
        assert out["Label_V_Count"] == 2
        assert out["Label_ii_Count"] == 1

    def test_function_fractions_sum_to_one(self):
        out = harmony_features(
            annotated_score("1\t0\tI\tC\n2\t0\tiii\tC\n3\t0\tIV\tC\n4\t0\tGer6\tC\n")
        )
        total = sum(v for k, v in out.items()
                    if k.startswith("Function_") and k.endswith("_Frac"))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_missing_without_annotations(self):
        s = score([part([note("C")])])
        assert harmony_features(s) == {}

    def test_six_eight_beats(self):
        rows = "1\t0\tI\tC\n2\t0\tV\tC\n"
        out = harmony_features(annotated_score(rows, measures=2, sig=(6, 8)))
        # 6/8 counts 3 quarter-normalized beats per measure
        assert out["HarmonicRhythmPerBeat"] == pytest.approx(2 / 6)

    def test_windowed_counts_partition(self):
        rows = "".join(f"{m}\t0\tI\tC\n" for m in range(1, 9))
        s = annotated_score(rows, measures=8)
        whole = harmony_features(s)["NumAnnotations"]
        parts = [
            harmony_features(slice_window(s, start, 2))["NumAnnotations"]
            for start in (1, 3, 5, 7)
        ]
        assert sum(parts) == whole


@st.composite
def signature_scores(draw):
    """A score whose signatures stand at any measures, in any order, the
    first at the first measure as ``Score`` requires."""
    first = draw(st.integers(1, 4))
    measures = draw(st.integers(1, 30))
    sig = st.tuples(st.integers(1, 12), st.sampled_from([1, 2, 4, 8, 16]))
    later = draw(st.lists(st.tuples(st.integers(first - 3, first + measures + 3), sig),
                          max_size=8))
    signatures = ((first, *draw(sig)), *((m, num, den) for m, (num, den) in later))
    return Score(source_id="s", parts=(), num_measures=measures, time_signatures=signatures,
                 measure_offsets=tuple(range(measures)), ticks_per_quarter=1,
                 first_measure=first)


class TestNominalQuarters:
    @given(signature_scores())
    def test_equals_the_sum_over_every_measure(self, s):
        per_measure = sum(map(s.measure_quarters, s.measure_indices()), Fraction(0))
        total = s.nominal_quarters()
        assert type(total) is Fraction and total == per_measure

    def test_beats_of_alternating_signatures(self):
        out = harmony_features(alternating_score(5))
        assert out["HarmonicRhythmPerBeat"] == 5 / (3 + 4 + 3 + 4 + 3)

    def test_harmony_features_scale_linearly_in_measures(self):
        def fastest(measures):
            s = alternating_score(measures)
            times = []
            for _ in range(3):
                start = time.perf_counter()
                harmony_features(s)
                times.append(time.perf_counter() - start)
            return min(times)

        # linear code gives about 4; one scan of the signatures per measure, 16
        assert fastest(12_000) / fastest(3_000) < 8
