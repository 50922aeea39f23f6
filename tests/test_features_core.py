from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scorefeat.features.core import (
    CANONICAL_DYNAMICS,
    DEFAULT_DYNAMIC_LEVELS,
    dynamics_features,
    lyrics_features,
    mean_std,
    nearest_dynamic_token,
    scoring_features,
    sqrt_ratio,
    tempo_features,
)
from scorefeat.model import TempoMark, note_count
from scorefeat.musicxml import parse_musicxml
from util import musicxml_doc, note, part, rounds_to, run_module, score, sqrt_rounds_to


def _melody(n, dur=1, measure_of=None, sound="violin", ordinal=1, measures=None,
            dynamics=(), lyrics=None):
    events = []
    for i in range(n):
        onset = i * dur
        m = measure_of(i) if measure_of else (int(onset) // 4 + 1)
        lyr = lyrics[i] if lyrics else None
        events.append(note("CDEFGAB"[i % 7], onset=onset, dur=dur, measure=m, lyric=lyr))
    return part(events, sound=sound, ordinal=ordinal, measures=measures, dynamics=dynamics)


class TestExactStatistics:
    @given(st.integers(0, 2**300), st.integers(1, 2**300))
    @example(0, 1)
    @example(4, 9)  # exact root
    @example(2, 1)
    @example(2**1000, 3)  # a root far above the 55 bits kept
    @example(1, 2**1000)  # and far below
    @example((2**53 + 1) ** 2, 4)  # an exact root halfway between two floats
    def test_sqrt_ratio_is_correctly_rounded(self, num, den):
        assert sqrt_rounds_to(sqrt_ratio(num, den), Fraction(num, den))

    @given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=40),
           st.integers(1, 960))
    @example([1, 1, 1], 3)  # no spread
    @example([1, 2], 3)
    def test_mean_std_are_correctly_rounded(self, values, scale):
        mean, std = mean_std(values, scale)
        exact = [Fraction(v, scale) for v in values]
        exact_mean = sum(exact) / len(exact)
        assert rounds_to(mean, exact_mean)
        assert sqrt_rounds_to(std, sum((x - exact_mean) ** 2 for x in exact) / len(exact))


class TestCore:
    def test_single_part_example(self):
        p = _melody(10, measure_of=lambda i: (1, 1, 1, 1, 2, 2, 2, 4, 4, 4)[i],
                    sound="voice", measures=4)
        s = score([p], measures=4)
        out = run_module("core", s)
        assert out["NumMeasures"] == 4
        assert out["PartVoiceI_NumNotes"] == 10
        assert out["PartVoiceI_SoundingMeasures"] == 3

    def test_no_identity_cells(self):
        out = run_module("core", score([_melody(4, measures=4)], measures=4))
        assert "FileName" not in out

    def test_sound_sums_and_means(self):
        s = score([_melody(8, dur=2, ordinal=1, measures=4),
                   _melody(4, dur=4, ordinal=2, measures=4)], measures=4)
        out = run_module("core", s)
        assert out["SoundViolin_NumNotes"] == 12
        assert out["SoundViolin_NumNotesMean"] == 6.0

    def test_empty_part(self):
        s = score([part([], measures=4)], measures=4)
        out = run_module("core", s)
        assert out["PartViolinI_NumNotes"] == 0
        assert out["PartViolinI_SoundingMeasures"] == 0

    def test_family_totals_reconcile(self):
        s = score([_melody(8, dur=2), _melody(5, dur=2, sound="oboe"),
                   _melody(3, dur=4, sound="cello")], measures=4)
        out = run_module("core", s)
        part_total = sum(v for k, v in out.items()
                         if k.startswith("Part") and k.endswith("_NumNotes"))
        family_total = sum(v for k, v in out.items()
                           if k.startswith("Family") and k.endswith("_NumNotes"))
        assert part_total == family_total == sum(note_count(p) for p in s.parts)


class TestScoring:
    def test_mixed_ensemble(self):
        s = score([_melody(2, ordinal=1), _melody(2, ordinal=2),
                   _melody(2, sound="voice")], measures=1)
        out = scoring_features(s)
        assert out["NumParts"] == 3
        assert out["SoundViolin_NumParts"] == 2
        assert out["FamilyStrings_NumParts"] == 2
        assert out["FamilyVoices_Present"] == 1
        assert out["Instrumentation"] == "violin,voice"
        assert out["Voices"] == "voice"

    def test_absent_family_zero(self):
        s = score([_melody(2, sound="harpsichord")], measures=1)
        out = scoring_features(s)
        assert out["FamilyStrings_Present"] == 0
        assert out["FamilyKeyboard_Present"] == 1

    def test_orchestra_counts_match_manifest(self):
        manifest = {"violin": 2, "viola": 1, "cello": 1, "double bass": 1,
                    "flute": 2, "oboe": 2, "clarinet": 2, "bassoon": 2,
                    "horn": 2, "trumpet": 2, "timpani": 1, "soprano": 1, "bass": 1}
        parts = []
        for sound, n in manifest.items():
            for ordinal in range(1, n + 1):
                parts.append(_melody(2, sound=sound, ordinal=ordinal, measures=1))
        out = scoring_features(score(parts, measures=1))
        assert out["NumParts"] == sum(manifest.values()) == 20
        from scorefeat.instruments import camel_case

        for sound, n in manifest.items():
            assert out[f"Sound{camel_case(sound)}_NumParts"] == n
        assert out["FamilyStrings_NumParts"] == 5
        assert out["FamilyWoodwinds_NumParts"] == 8
        assert out["FamilyBrass_NumParts"] == 4
        assert out["FamilyVoices_NumParts"] == 2
        assert out["FamilyPercussion_NumParts"] == 1


class TestTempo:
    def test_marking_and_bpm(self):
        s = score([_melody(4)], tempo=[TempoMark(1, "Allegro", 120.0)])
        out = tempo_features(s)
        assert out == {"TempoMarking": "allegro", "TempoBPM": 120.0, "NumTempoChanges": 0}

    def test_verbal_only_has_no_bpm(self):
        s = score([_melody(4)], tempo=[TempoMark(1, "andante", None)])
        out = tempo_features(s)
        assert out["TempoMarking"] == "andante"
        assert "TempoBPM" not in out

    def test_changes_counted(self):
        s = score([_melody(4)], tempo=[TempoMark(1, "allegro", None),
                                       TempoMark(32, "adagio", None)])
        assert tempo_features(s)["NumTempoChanges"] == 1

    def test_no_marks(self):
        assert tempo_features(score([_melody(4)]))["NumTempoChanges"] == 0


class TestDynamics:
    def test_two_markings_equal_spans(self):
        p = _melody(4, dur=1, dynamics=[(0, "p"), (2, "f")], measures=1)
        out = dynamics_features(p)
        assert out["DynMean"] == pytest.approx((49 + 96) / 2)
        assert out["DynRange"] == 96 - 49
        assert out["Dyn_p_Count"] == 1 and out["Dyn_f_Count"] == 1

    def test_single_marking(self):
        p = _melody(4, dynamics=[(0, "mf")])
        out = dynamics_features(p)
        assert out["DynMean"] == 80.0
        assert out["DynRange"] == 0

    def test_no_markings_missing(self):
        assert dynamics_features(_melody(4)) == {}

    def test_weighting_by_duration(self):
        events = [note("C", onset=0, dur=3, measure=1), note("D", onset=3, dur=1, measure=1)]
        p = part(events, dynamics=[(0, "p"), (3, "f")])
        out = dynamics_features(p)
        assert out["DynMean"] == pytest.approx((49 * 3 + 96 * 1) / 4)

    def test_mean_bounds(self):
        p = _melody(6, dynamics=[(0, "ppp"), (2, "fff"), (4, "mp")])
        out = dynamics_features(p)
        assert 16 <= out["DynMean"] <= 126

    def test_unsorted_marks_from_negative_offset(self):
        # p at beat 0 and ff at beat 3 of measure 1; a pp written in measure 2
        # with <offset> -2 quarters sits at quarter 2, after ff in mark order.
        quarters = lambda: [{"step": "C", "dur": 4} for _ in range(4)]
        m1, m2 = quarters(), quarters()
        m1[0]["dynamic"], m1[3]["dynamic"], m2[0]["dynamic"] = "p", "ff", "pp"
        doc = musicxml_doc([("Violin", [m1, m2])]).replace(
            b"<pp/></dynamics></direction-type>",
            b"<pp/></dynamics></direction-type><offset>-8</offset>",
        )
        s, _ = parse_musicxml(doc)
        p = s.parts[0]
        assert [pos / s.ticks_per_quarter for pos, _ in p.dynamic_marks] == [0, 3, 2]
        out = dynamics_features(p)
        # front-to-back scan: quarters 0-2 stop at ff (3 > onset) and keep p;
        # from quarter 3 on every mark is reached, so the last one, pp, governs
        assert out["DynMean"] == pytest.approx((49 * 3 + 33 * 5) / 8)
        assert out["DynRange"] == 112 - 33

    def test_canonical_levels_increase(self):
        series = [DEFAULT_DYNAMIC_LEVELS[t] for t in CANONICAL_DYNAMICS]
        assert series == sorted(set(series))

    def test_velocity_binning(self):
        assert nearest_dynamic_token(49) == "p"
        assert nearest_dynamic_token(64) == "mp"
        assert nearest_dynamic_token(127) == "fff"
        assert nearest_dynamic_token(1) == "ppp"
        assert DEFAULT_DYNAMIC_LEVELS["sfz"] == DEFAULT_DYNAMIC_LEVELS["f"]


class TestLyrics:
    def test_one_syllable_per_note(self):
        p = _melody(8, dur=1, sound="soprano", measures=2,
                    lyrics=[("a", "single")] * 8)
        out = lyrics_features(p)
        assert out["NumSyllables"] == 8
        assert out["NotesPerSyllable"] == 1.0
        assert out["MelismaRatio"] == 0.0

    def test_melisma(self):
        lyr = [("a", "single"), None, None, ("b", "single"), None, None]
        p = _melody(6, dur=1, sound="soprano", measures=2, lyrics=lyr)
        out = lyrics_features(p)
        assert out["NotesPerSyllable"] == 3.0
        assert out["MelismaRatio"] == pytest.approx(4 / 6)

    def test_full_sounding_ratio(self):
        p = _melody(16, dur=1, sound="soprano", measures=4,
                    lyrics=[("a", "single")] * 16)
        assert lyrics_features(p)["SoundingMeasuresRatio"] == 1.0

    def test_non_vocal_emits_nothing(self):
        assert lyrics_features(_melody(4, sound="violin")) == {}

    def test_vocal_without_syllables_keeps_ratio(self):
        p = _melody(4, sound="soprano", measures=1)
        out = lyrics_features(p)
        assert "SoundingMeasuresRatio" in out
        assert "NumSyllables" not in out
