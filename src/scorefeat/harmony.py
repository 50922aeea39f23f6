"""Roman-numeral harmony annotations from sidecar TSV files.

The sidecar format is a UTF-8 TSV with header ``measure\tbeat\tlabel\tkey``;
beat accepts decimals ("1.5") or fractions ("3/2"). Labels follow the usual
Roman-numeral grammar: numeral case encodes the third, ``o``/``%``/``+``
mark diminished, half-diminished and augmented chords, and figures
7/65/43/42/2/6/64 give sevenths and inversions, with an optional applied
target after a slash (``V65/IV``).
"""

from __future__ import annotations

import csv
import io
import logging
import re
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .diagnostics import ParseDiagnostics
from .model import Score
from .records import record

log = logging.getLogger(__name__)

HARMONY_COLUMNS = ("measure", "beat", "label", "key")
FUNCTIONS = ("T", "D", "S", "other")

# Degree -> function. The applied-chord rule (anything with a target acts as
# a local dominant) is handled in classify_function, not here.
FUNCTION_TABLE = {
    "I": "T", "i": "T", "VI": "T", "vi": "T",
    "V": "D", "v": "D", "vii": "D",
    "IV": "S", "iv": "S", "II": "S", "ii": "S",
}

_LABEL_RE = re.compile(
    r"^(?P<acc>[b#]{0,2})"
    r"(?P<numeral>VII|VI|V|IV|III|II|I|vii|vi|v|iv|iii|ii|i)"
    r"(?P<suffix>[o%+])?"
    r"(?P<figures>7|65|43|42|2|64|6)?"
    r"(?:\([^)]*\))?"
    r"(?:/(?P<of>.+))?$"
)

_SEVENTH_FIGURES = {"7": 0, "65": 1, "43": 2, "42": 3, "2": 3}
_TRIAD_FIGURES = {"": 0, "6": 1, "64": 2}


class HarmonyError(ValueError):
    """Unusable harmony annotation input."""


@record(frozen=True)
class ParsedLabel:
    """The parts of one Roman-numeral label."""

    degree: str  # numeral as written, with accidentals ("bII"), or "unknown"
    quality: str  # major, minor, dim, aug, dom7, min7, dim7, halfdim7, aug7, unknown
    inversion: int  # 0..3
    applied_of: Optional[str]


@record(frozen=True)
class HarmonicAnnotation:
    """One sidecar label, parsed, at its measure and beat, in its local key."""

    measure_index: int
    beat: Fraction  # quarter offset within the measure
    label: str
    local_key: str  # "C" major, "a" minor
    degree: str
    quality: str
    inversion: int
    applied_of: Optional[str]
    is_key_change: bool


def parse_rn_label(label: str) -> ParsedLabel:
    """Parse one Roman-numeral label; unparsable labels get degree "unknown"."""
    m = _LABEL_RE.match(label.strip())
    if not m:
        return ParsedLabel(degree="unknown", quality="unknown", inversion=0, applied_of=None)
    acc = m.group("acc")
    numeral = m.group("numeral")
    suffix = m.group("suffix") or ""
    figures = m.group("figures") or ""
    applied = m.group("of")

    is_seventh = figures in _SEVENTH_FIGURES
    inversion = _SEVENTH_FIGURES[figures] if is_seventh else _TRIAD_FIGURES.get(figures, 0)

    if suffix == "o":
        quality = "dim7" if is_seventh else "dim"
    elif suffix == "%":
        quality = "halfdim7" if is_seventh else "dim"
    elif suffix == "+":
        quality = "aug7" if is_seventh else "aug"
    elif numeral.isupper():
        quality = "dom7" if is_seventh else "major"
    else:
        quality = "min7" if is_seventh else "minor"

    return ParsedLabel(
        degree=acc + numeral, quality=quality, inversion=inversion, applied_of=applied
    )


def classify_function(
    degree: str, applied_of: Optional[str] = None, quality: Optional[str] = None
) -> str:
    """Tonic / dominant / subdominant / other for a parsed degree.

    Applied chords dominate their target, so any annotation with a target is
    D. Plain uppercase VII is D only when diminished.
    """
    if applied_of:
        return "D"
    base = degree.lstrip("b#")
    if base == "VII":
        return "D" if quality in ("dim", "dim7", "halfdim7") else "other"
    return FUNCTION_TABLE.get(base, "other")


# A corpus's sidecars repeat a few labels and beats on many rows, so
# parse_harmony_file memoizes both; only texts of at most _MEMO_CHARS
# characters, so no long cell outlives its file in a memo.
_MEMO_CHARS = 32
_memo_label = lru_cache(maxsize=1024)(parse_rn_label)


@lru_cache(maxsize=1024)
def _beat_value(text: str) -> tuple[Fraction, bool]:
    """The beat ``text`` gives, and whether it is negative. The digits of a
    whole beat skip ``Fraction``'s string parse."""
    text = text.strip()
    if text.isdigit() and text.isascii():
        return Fraction(int(text)), False
    beat = Fraction(text)
    return beat, beat < 0


def _parse_beat(text: str, line_no: int) -> Fraction:
    try:
        beat, negative = (_beat_value if len(text) <= _MEMO_CHARS else _beat_value.__wrapped__)(
            text)
    except (ValueError, ZeroDivisionError) as exc:
        raise HarmonyError(f"line {line_no}: bad beat value {text!r}: {exc}") from exc
    if negative:
        raise HarmonyError(f"line {line_no}: beat must be >= 0")
    return beat


def parse_harmony_file(
    text: str, diags: Optional[ParseDiagnostics] = None
) -> list[HarmonicAnnotation]:
    """Parse a harmony TSV into sorted annotations.

    Duplicate (measure, beat) positions are an error. Extra columns are
    ignored and unparsable labels kept with degree "unknown"; each is logged
    and, given ``diags``, warned of there. Blank lines are skipped, and a
    row's line number is the line it ends on in the file.
    """

    def warn(location: str, message: str) -> None:
        log.warning("%s: %s", location, message)
        if diags is not None:
            diags.warn(location, message)

    reader = csv.reader(io.StringIO(text), delimiter="\t")
    header = next(reader, None)
    if header is None:
        raise HarmonyError("empty harmony file")
    missing = [c for c in HARMONY_COLUMNS if c not in header]
    if missing:
        raise HarmonyError(f"harmony file is missing columns: {', '.join(missing)}")
    extra = [c for c in header if c not in HARMONY_COLUMNS]
    if extra:
        warn("header", f"extra columns ignored: {', '.join(extra)}")
    # of a repeated name the last column counts, and a short row's missing
    # cells are None, as in a csv.DictReader row
    at = {name: i for i, name in enumerate(header)}
    i_measure, i_beat, i_label, i_key = (at[c] for c in HARMONY_COLUMNS)
    width = len(header)

    rows = []
    for row in reader:
        row += [None] * (width - len(row))
        label = row[i_label]
        if not (label or "").strip():
            continue  # also a blank line
        line_no = reader.line_num
        try:
            measure = int(row[i_measure])
        except (TypeError, ValueError) as exc:
            raise HarmonyError(f"line {line_no}: bad measure {row[i_measure]!r}") from exc
        if measure < 1:
            raise HarmonyError(f"line {line_no}: measure must be >= 1")
        beat = _parse_beat(row[i_beat] or "0", line_no)
        rows.append((measure, beat, label.strip(), (row[i_key] or "").strip(), line_no))

    rows.sort(key=lambda r: (r[0], r[1]))
    # the sort is stable, so the rows of one position are adjacent, in line order
    for before, row in zip(rows, rows[1:]):
        if before[:2] == row[:2]:
            raise HarmonyError(
                f"duplicate annotation position measure {row[0]} beat {row[1]} "
                f"(lines {before[4]} and {row[4]})"
            )

    annotations = []
    prev_key: Optional[str] = None
    for measure, beat, label, key, line_no in rows:
        parsed = (_memo_label if len(label) <= _MEMO_CHARS else parse_rn_label)(label)
        if parsed.degree == "unknown":
            warn(f"line {line_no}", f"unparsable label {label!r} kept with degree=unknown")
        annotations.append(
            HarmonicAnnotation(
                measure_index=measure,
                beat=beat,
                label=label,
                local_key=key,
                degree=parsed.degree,
                quality=parsed.quality,
                inversion=parsed.inversion,
                applied_of=parsed.applied_of,
                is_key_change=(prev_key is not None and key != prev_key),
            )
        )
        prev_key = key
    return annotations


def serialize_harmony(annotations: Sequence[HarmonicAnnotation]) -> str:
    """Canonical TSV form; parse_harmony_file round-trips it exactly."""
    lines = ["\t".join(HARMONY_COLUMNS)]
    for a in annotations:
        lines.append(f"{a.measure_index}\t{a.beat}\t{a.label}\t{a.local_key}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=1024)
def key_mode(key: str) -> Optional[str]:
    """"C"/"Bb" -> major, "a"/"f#" -> minor, junk -> None."""
    k = key.strip()
    if not k or k[0] not in "ABCDEFGabcdefg":
        return None
    return "major" if k[0].isupper() else "minor"


@lru_cache(maxsize=1024)
def key_tonic_pc(key: str) -> Optional[int]:
    """Pitch class of a key name like "C", "bb", "F#"."""
    from .model import STEP_SEMITONES

    k = key.strip()
    if not k or k[0].upper() not in STEP_SEMITONES:
        return None
    pc = STEP_SEMITONES[k[0].upper()]
    for ch in k[1:]:
        if ch in ("#", "♯"):
            pc += 1
        elif ch in ("b", "♭"):
            pc -= 1
        else:
            return None
    return pc % 12


def attach_annotations(score: Score, annotations: Sequence[HarmonicAnnotation]) -> Score:
    """New Score with annotations attached; out-of-range positions are an error."""
    offenders = [
        a for a in annotations
        if not score.first_measure <= a.measure_index <= score.last_measure
    ]
    if offenders:
        where = ", ".join(f"measure {a.measure_index} ({a.label})" for a in offenders[:5])
        more = "" if len(offenders) <= 5 else f" and {len(offenders) - 5} more"
        raise HarmonyError(f"annotations outside score range: {where}{more}")
    return replace(score, annotations=tuple(annotations))
