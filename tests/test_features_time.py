import random
from fractions import Fraction

import pytest

from scorefeat.features.time import (
    duration_class,
    texture_features,
)
from util import (
    note,
    part,
    random_model_score,
    rest,
    rounds_to,
    run_module,
    score,
    sqrt_rounds_to,
)


class TestDensity:
    def test_basic_ratios(self):
        events = []
        for i in range(12):
            m = (1, 2, 4)[i // 4]
            events.append(note("C", onset=(m - 1) * 4 + (i % 4), dur=1, measure=m))
        s = score([part(events, measures=4)], measures=4)
        out = run_module("density", s, s.parts[0])
        assert out["NotesPerMeasure"] == 3.0
        assert out["NotesPerSoundingMeasure"] == 4.0

    def test_silent_part(self):
        s = score([part([rest(onset=0, dur=4)], measures=4)], measures=4)
        out = run_module("density", s, s.parts[0])
        assert out["NotesPerMeasure"] == 0.0
        assert "NotesPerSoundingMeasure" not in out

    def test_tie_chain_sounds_its_full_length(self):
        events = [note("C", onset=0, dur=2, tie="start"), note("C", onset=2, dur=2, tie="stop")]
        s = score([part(events)])
        assert run_module("density", s, s.parts[0])["SoundingDensity"] == 1.0

    def test_full_sounding_density(self):
        events = [note("C", onset=4 * m, dur=4, measure=m + 1) for m in range(4)]
        s = score([part(events, measures=4)], measures=4)
        assert run_module("density", s, s.parts[0])["SoundingDensity"] == 1.0


class TestRhythm:
    def test_average_duration(self):
        p = part([note("C", onset=0, dur=1), note("D", onset=1, dur=1),
                  note("E", onset=2, dur=2)])
        out = run_module("rhythm", p)
        assert out["AvgDuration"] == pytest.approx(4 / 3)

    def test_dotted_fraction(self):
        events = [note("C", onset=0, dur=Fraction(3, 2), dots=1),
                  note("D", onset=Fraction(3, 2), dur=Fraction(1, 2)),
                  note("E", onset=2, dur=1), note("F", onset=3, dur=1)]
        assert run_module("rhythm", part(events))["DottedFrac"] == 0.25

    def test_tie_chain_merged_into_one_duration(self):
        p = part([note("C", onset=0, dur=2, tie="start"),
                  note("C", onset=2, dur=2, tie="stop")])
        assert run_module("rhythm", p)["AvgDuration"] == 4.0

    def test_empty_part_missing(self):
        assert run_module("rhythm", part([])) == {}

    def test_mean_and_std_are_correctly_rounded(self):
        rng = random.Random(17)
        for _ in range(30):
            s = random_model_score(rng)
            for p in s.parts:
                out = run_module("rhythm", s, p)
                durations = [Fraction(d, s.ticks_per_quarter) for d in p.notes.merged]
                if not durations:
                    assert out == {}
                    continue
                mean = sum(durations) / len(durations)
                variance = sum((d - mean) ** 2 for d in durations) / len(durations)
                assert rounds_to(out["AvgDuration"], mean)
                assert sqrt_rounds_to(out["DurationStd"], variance)

    @pytest.mark.parametrize(
        "dur,dots,expected",
        [
            (Fraction(4), 0, "whole"),
            (Fraction(2), 0, "half"),
            (Fraction(1), 0, "quarter"),
            (Fraction(3, 2), 1, "quarter"),  # dotted quarter
            (Fraction(1, 2), 0, "eighth"),
            (Fraction(1, 3), 0, "eighth"),  # triplet eighth by notated value
            (Fraction(1, 4), 0, "sixteenth"),
            (Fraction(7, 8), 2, "eighth"),  # double-dotted eighth
            (Fraction(5, 4), 0, "other"),
        ],
    )
    def test_duration_classes(self, dur, dots, expected):
        assert duration_class(dur.numerator, dur.denominator, dots) == expected

    def test_histogram_sums_to_one(self):
        rng = random.Random(23)
        for _ in range(10):
            s = random_model_score(rng, max_parts=2)
            for p in s.parts:
                out = run_module("rhythm", s, p)
                if not out:
                    continue
                total = sum(v for k, v in out.items()
                            if k.startswith("Duration_") and k.endswith("_Frac"))
                assert total == pytest.approx(1.0, abs=1e-9)


class TestTexture:
    def _two_parts(self, n_a=20, n_b=10):
        a = part([note("C", onset=i, dur=1, measure=i // 4 + 1) for i in range(n_a)],
                 sound="violin", measures=5)
        b = part([note("G", 3, onset=i, dur=1, measure=i // 4 + 1) for i in range(n_b)],
                 sound="cello", measures=5)
        return score([a, b], measures=5)

    def test_ratio_orientation(self):
        out = texture_features(self._two_parts())
        assert out == {"Texture_ViolinI_CelloI_Ratio": 2.0}

    def test_pair_count_combinatorics(self):
        parts = [part([note("C", onset=0, dur=1)], sound=s, measures=1)
                 for s in ("violin", "viola", "cello", "oboe")]
        out = texture_features(score(parts, measures=1))
        assert len(out) == 6

    def test_empty_denominator_missing(self):
        out = texture_features(self._two_parts(n_b=0))
        assert out == {}

    def test_single_part_no_features(self):
        s = score([part([note("C")])])
        assert texture_features(s) == {}

    def test_inverse_consistency(self):
        rng = random.Random(41)
        for _ in range(10):
            s = random_model_score(rng)
            out = texture_features(s)
            from scorefeat.model import note_count

            counts = {p.part_id: note_count(p) for p in s.parts}
            for name, value in out.items():
                _, a, b, _ = name.split("_")
                if counts[a]:
                    assert value * (counts[b] / counts[a]) == pytest.approx(1.0)
