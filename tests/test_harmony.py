import csv
import io
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scorefeat import harmony
from scorefeat.harmony import (
    HARMONY_COLUMNS,
    HarmonicAnnotation,
    HarmonyError,
    attach_annotations,
    classify_function,
    key_mode,
    key_tonic_pc,
    parse_harmony_file,
    parse_rn_label,
    serialize_harmony,
)
from scorefeat.diagnostics import ParseDiagnostics
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

    def test_extra_columns_and_unparsable_labels_are_warned_of(self, caplog):
        diags = ParseDiagnostics()
        anns = parse_harmony_file("measure\tbeat\tlabel\tkey\tnote\n1\t0\tGer6\tC\tx\n"
                                  "2\t0\tV\tC\ty\n", diags)
        assert [a.degree for a in anns] == ["unknown", "V"]
        assert diags.warnings == [("header", "extra columns ignored: note"),
                                  ("line 2", "unparsable label 'Ger6' kept with degree=unknown")]
        assert "Ger6" in caplog.text  # still logged too

    def test_line_numbers_count_blank_lines(self):
        diags = ParseDiagnostics()
        text = TSV + "1\t0\tI\tC\n\n\n2\t0\tGer6\tC\n\n3\t0\tFoo\tC\n"
        assert len(parse_harmony_file(text, diags)) == 3
        assert diags.warnings == [
            ("line 5", "unparsable label 'Ger6' kept with degree=unknown"),
            ("line 7", "unparsable label 'Foo' kept with degree=unknown")]
        with pytest.raises(HarmonyError, match="line 5: bad measure 'x'"):
            parse_harmony_file(TSV + "1\t0\tI\tC\n\n\nx\t0\tV\tC\n")
        with pytest.raises(HarmonyError, match=r"\(lines 2 and 4\)"):
            parse_harmony_file(TSV + "1\t0\tI\tC\n\n1\t0\tV\tC\n")

    @pytest.mark.parametrize("beat", ["-1", "-1/2", "-" + "0" * 40 + "1"])
    def test_a_negative_beat_is_an_error_also_when_memoized(self, beat):
        for _ in range(2):  # the second parse finds the beat memoized
            with pytest.raises(HarmonyError, match="line 3: beat must be >= 0"):
                parse_harmony_file(f"{TSV}1\t0\tI\tC\n2\t{beat}\tV\tC\n")

    def test_short_and_long_rows_read_as_in_a_dict_reader(self):
        text = TSV + "1\t0\tI\n2\t1\tV\tG\textra\tcells\n3\t0\n"
        assert [(a.measure_index, a.beat, a.label, a.local_key) for a in
                parse_harmony_file(text)] == [(1, 0, "I", ""), (2, 1, "V", "G")]

    def test_of_a_repeated_column_the_last_counts(self):
        text = "measure\tbeat\tlabel\tkey\tlabel\n1\t0\tI\tC\tV\n2\t0\tI\tC\n"
        diags = ParseDiagnostics()
        assert [a.label for a in parse_harmony_file(text, diags)] == ["V"]
        assert diags.warnings == []

    def test_serialize_round_trip(self):
        text = TSV + "1\t0\tI\tC\n2\t3/2\tV65/IV\tC\n5\t0\ti\ta\n"
        anns = parse_harmony_file(text)
        assert parse_harmony_file(serialize_harmony(anns)) == anns
        assert serialize_harmony(anns) == text


def _reference_parse(text, diags):
    """``parse_harmony_file`` without memos: rows read by ``csv.DictReader``
    and numbered by its ``line_num``, every beat through ``Fraction(str)``,
    every label through ``parse_rn_label``, duplicates found with a dict of
    positions."""
    reader = csv.DictReader(io.StringIO(text), delimiter="\t")
    if reader.fieldnames is None:
        raise HarmonyError("empty harmony file")
    missing = [c for c in HARMONY_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise HarmonyError(f"harmony file is missing columns: {', '.join(missing)}")
    extra = [c for c in reader.fieldnames if c not in HARMONY_COLUMNS]
    if extra:
        diags.warn("header", f"extra columns ignored: {', '.join(extra)}")
    rows = []
    for row in reader:
        line_no = reader.line_num
        if not (row.get("label") or "").strip():
            continue
        try:
            measure = int(row["measure"])
        except (TypeError, ValueError) as exc:
            raise HarmonyError(f"line {line_no}: bad measure {row.get('measure')!r}") from exc
        if measure < 1:
            raise HarmonyError(f"line {line_no}: measure must be >= 1")
        text_beat = row["beat"] or "0"
        try:
            beat = Fraction(text_beat.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise HarmonyError(f"line {line_no}: bad beat value {text_beat!r}: {exc}") from exc
        if beat < 0:
            raise HarmonyError(f"line {line_no}: beat must be >= 0")
        rows.append((measure, beat, row["label"].strip(), (row["key"] or "").strip(), line_no))
    rows.sort(key=lambda r: (r[0], r[1]))
    seen = {}
    for measure, beat, _label, _key, line_no in rows:
        if (measure, beat) in seen:
            raise HarmonyError(f"duplicate annotation position measure {measure} beat {beat} "
                               f"(lines {seen[(measure, beat)]} and {line_no})")
        seen[(measure, beat)] = line_no
    annotations, prev_key = [], None
    for measure, beat, label, key, line_no in rows:
        parsed = parse_rn_label(label)
        if parsed.degree == "unknown":
            diags.warn(f"line {line_no}", f"unparsable label {label!r} kept with degree=unknown")
        annotations.append(HarmonicAnnotation(
            measure, beat, label, key, parsed.degree, parsed.quality, parsed.inversion,
            parsed.applied_of, prev_key is not None and key != prev_key))
        prev_key = key
    return annotations


def _outcome(parse, text):
    """(annotations, warnings, error type and message) of one parse."""
    diags = ParseDiagnostics()
    try:
        annotations, error = parse(text, diags), None
    except HarmonyError as exc:
        annotations, error = None, (type(exc), str(exc))
    return annotations, diags.warnings, error


# Usable values repeat, so that about half of the sidecars parse.
_MEASURES = ["1", "2", "3", "4"] * 8 + ["0", "m"]
_BEATS = ["2", " 2 ", "1.50", "3/2", "0", "1", "5/4", ""] * 6 + ["-1", "1/0", "x"]
_LABELS = ["I", "V7", " ii6 ", "V65/IV", "viio7/V", "bII6", "Ger6", "@none", "Cad64", "", "i"]
_rows = st.tuples(st.sampled_from(_MEASURES), st.sampled_from(_BEATS), st.sampled_from(_LABELS),
                  st.sampled_from(["C", "a", " G"]))


def _sidecar(extra, lines) -> str:
    """A header with ``extra`` columns, then per line either nothing (a blank
    line) or a row cut ``cells`` cells short of the header's length, or
    grown past it when ``cells`` is negative."""
    text = "\t".join(HARMONY_COLUMNS + extra) + "\n"
    for line in lines:
        if line is not None:
            row, cells = line
            text += "\t".join((row + extra + ("z",))[:len(row) + len(extra) - cells])
        text += "\n"
    return text


# Mostly whole rows, some short or long ones and some blank lines.
_sidecars = st.builds(
    _sidecar,
    st.sampled_from([(), ("note",)]),
    st.lists(st.none() | st.tuples(_rows, st.sampled_from([0] * 6 + [1, 2, -1])), max_size=7),
)


class TestMemoizedParse:
    @given(_sidecars)
    def test_agrees_with_the_unmemoized_reference(self, text):
        expected = _outcome(_reference_parse, text)
        for _ in range(2):  # the second parse finds every label and beat memoized
            got = _outcome(parse_harmony_file, text)
            assert got == expected
            assert all(type(a.beat) is Fraction for a in got[0] or ())

    def test_long_texts_are_not_memoized(self):
        label, beat = "V(" + "x" * 40 + ")", "0" * 40 + "1"
        before = (harmony._memo_label.cache_info().currsize,
                  harmony._beat_value.cache_info().currsize)
        [annotation] = parse_harmony_file(f"{TSV}1\t{beat}\t{label}\tC\n")
        assert (annotation.beat, annotation.degree) == (1, "V")
        assert (harmony._memo_label.cache_info().currsize,
                harmony._beat_value.cache_info().currsize) == before


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
