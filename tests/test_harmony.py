from fractions import Fraction

import pytest

from scorefeat.harmony import (
    HarmonyError,
    attach_annotations,
    classify_function,
    key_mode,
    key_tonic_pc,
    parse_harmony_file,
    parse_rn_label,
    serialize_harmony,
)
from util import note, part, score

TSV = "measure\tbeat\tlabel\tkey\n"


class TestLabelGrammar:
    @pytest.mark.parametrize(
        "label,degree,quality,inversion,applied",
        [
            ("V7", "V", "dom7", 0, None),
            ("ii", "ii", "minor", 0, None),
            ("V65/IV", "V", "dom7", 1, "IV"),
            ("viio7/V", "vii", "dim7", 0, "V"),
            ("I", "I", "major", 0, None),
            ("I6", "I", "major", 1, None),
            ("i64", "i", "minor", 2, None),
            ("V43", "V", "dom7", 2, None),
            ("V2", "V", "dom7", 3, None),
            ("ii%7", "ii", "halfdim7", 0, None),
            ("viio", "vii", "dim", 0, None),
            ("III+", "III", "aug", 0, None),
            ("bII6", "bII", "major", 1, None),
            ("ii7", "ii", "min7", 0, None),
        ],
    )
    def test_hand_parsed_oracle(self, label, degree, quality, inversion, applied):
        parsed = parse_rn_label(label)
        assert (parsed.degree, parsed.quality, parsed.inversion, parsed.applied_of) == (
            degree, quality, inversion, applied,
        )

    @pytest.mark.parametrize("label", ["Ger6", "Cad64", "@none", "7", ""])
    def test_unparsable_kept_as_unknown(self, label):
        assert parse_rn_label(label).degree == "unknown"


class TestFunctions:
    @pytest.mark.parametrize(
        "degree,quality,expected",
        [
            ("I", "major", "T"), ("i", "minor", "T"), ("VI", "major", "T"), ("vi", "minor", "T"),
            ("V", "major", "D"), ("v", "minor", "D"), ("vii", "dim", "D"),
            ("VII", "dim", "D"), ("VII", "major", "other"),
            ("IV", "major", "S"), ("iv", "minor", "S"), ("II", "major", "S"), ("ii", "minor", "S"),
            ("III", "major", "other"), ("iii", "minor", "other"), ("unknown", "unknown", "other"),
            ("bII", "major", "S"),
        ],
    )
    def test_rule_table(self, degree, quality, expected):
        assert classify_function(degree, None, quality) == expected

    def test_applied_chords_are_dominants(self):
        assert classify_function("V", "ii") == "D"
        assert classify_function("vii", "V", "dim7") == "D"
        assert classify_function("IV", "IV") == "D"

    def test_total_partition_over_label_fixtures(self):
        # exhaustive enumeration: every parsable degree lands in exactly one bucket
        labels = [
            f"{acc}{num}{suf}"
            for acc in ("", "b", "#")
            for num in ("I", "II", "III", "IV", "V", "VI", "VII",
                        "i", "ii", "iii", "iv", "v", "vi", "vii")
            for suf in ("", "o", "7", "6")
        ]
        for label in labels:
            parsed = parse_rn_label(label)
            fn = classify_function(parsed.degree, parsed.applied_of, parsed.quality)
            assert fn in ("T", "D", "S", "other")


class TestHarmonyFile:
    def test_two_rows_no_key_change(self):
        anns = parse_harmony_file(TSV + "1\t0\tI\tC\n2\t0\tV\tC\n")
        assert len(anns) == 2
        assert not any(a.is_key_change for a in anns)

    def test_key_change_flagged(self):
        anns = parse_harmony_file(TSV + "1\t0\ti\ta\n5\t0\tV\tC\n")
        assert [a.is_key_change for a in anns] == [False, True]

    def test_fractional_and_decimal_beats(self):
        anns = parse_harmony_file(TSV + "3\t1.5\tviio7/V\tC\n4\t3/2\tI\tC\n")
        assert anns[0].beat == Fraction(3, 2)
        assert anns[1].beat == Fraction(3, 2)
        assert (anns[0].degree, anns[0].quality, anns[0].applied_of) == ("vii", "dim7", "V")

    def test_rows_sorted(self):
        anns = parse_harmony_file(TSV + "2\t0\tV\tC\n1\t0\tI\tC\n")
        assert [a.measure_index for a in anns] == [1, 2]

    def test_duplicate_positions_error_with_lines(self):
        with pytest.raises(HarmonyError, match=r"lines 2 and 3"):
            parse_harmony_file(TSV + "1\t0\tI\tC\n1\t0\tV\tC\n")

    def test_missing_column_error(self):
        with pytest.raises(HarmonyError, match="missing columns"):
            parse_harmony_file("measure\tbeat\tlabel\n1\t0\tI\n")

    def test_unparsable_label_kept(self):
        anns = parse_harmony_file(TSV + "1\t0\tGer6\tC\n")
        assert anns[0].degree == "unknown"
        assert anns[0].label == "Ger6"

    def test_serialize_round_trip(self):
        text = TSV + "1\t0\tI\tC\n2\t3/2\tV65/IV\tC\n5\t0\ti\ta\n"
        anns = parse_harmony_file(text)
        assert parse_harmony_file(serialize_harmony(anns)) == anns
        assert serialize_harmony(anns) == text


class TestAttach:
    def _score(self, measures=4):
        events = [note("C", onset=4 * m, dur=4, measure=m + 1) for m in range(measures)]
        return score([part(events, measures=measures)], measures=measures)

    def test_in_range_ok(self):
        anns = parse_harmony_file(TSV + "4\t0\tI\tC\n")
        attached = attach_annotations(self._score(), anns)
        assert attached.annotations == tuple(anns)

    def test_out_of_range_error(self):
        anns = parse_harmony_file(TSV + "5\t0\tI\tC\n")
        with pytest.raises(HarmonyError, match="measure 5"):
            attach_annotations(self._score(), anns)


def test_key_helpers():
    assert key_mode("C") == "major"
    assert key_mode("a") == "minor"
    assert key_mode("Bb") == "major"
    assert key_mode("") is None
    assert key_tonic_pc("C") == 0
    assert key_tonic_pc("f#") == 6
    assert key_tonic_pc("bb") == 10
    assert key_tonic_pc("X") is None
