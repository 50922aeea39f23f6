"""MusicXML (.xml/.musicxml/.mxl) parser producing the immutable score model.

Only score-partwise documents are supported. Unsupported elements are skipped
with a diagnostic; only structural problems (malformed XML, timewise layout,
a .mxl container without a manifest) abort the parse.
"""

from __future__ import annotations

import io
import math
import re
import zipfile
import zlib
import xml.etree.ElementTree as ET
from dataclasses import field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import attrgetter
from typing import NamedTuple, Optional

from .diagnostics import ParseDiagnostics
from .features.core import DEFAULT_DYNAMIC_LEVELS
from .instruments import (
    OrdinalAllocator,
    detect_instrument_family,
    part_identifier,
    split_instrument_ordinal,
)
from .model import (
    EventColumns,
    Lyric,
    Part,
    PitchRangeError,
    Score,
    SpelledPitch,
    TempoMark,
    spelled_pitch,
    tick_base,
    to_ticks,
)
from .records import record

PARSER_ID = "musicxml"
PARSER_VERSION = "8"

DYNAMIC_TOKENS = frozenset(DEFAULT_DYNAMIC_LEVELS)

TEMPO_WORDS = {
    "grave", "largo", "larghetto", "lento", "adagio", "adagietto",
    "andante", "andantino", "moderato", "allegretto", "allegro",
    "vivace", "vivacissimo", "presto", "prestissimo",
}

# Largest uncompressed member read from a .mxl container. Deflate packs up to
# about 1000:1, so a small container could otherwise inflate past memory.
MAX_MXL_MEMBER_BYTES = 64 * 2**20

_BEAT_UNIT_QUARTERS = {
    "breve": Fraction(8), "whole": Fraction(4), "half": Fraction(2),
    "quarter": Fraction(1), "eighth": Fraction(1, 2), "16th": Fraction(1, 4),
    "32nd": Fraction(1, 8), "64th": Fraction(1, 16),
}

# A note's tie state by whether it has a <tie type="start"> and a "stop" one
_TIE_STATES = {(False, False): "none", (True, False): "start", (False, True): "stop",
               (True, True): "continue"}

# Longest step, alter and octave texts, in all, that _read_pitch memoizes
_MEMO_CHARS = 8


class MusicXMLError(ValueError):
    """Fatal structural problem in a MusicXML document."""


class _RawNote(NamedTuple):
    """A parsed note before absolute onsets are known, timed in the
    document's units (see ``_document_unit``)."""

    measure_index: int
    offset: int  # units from measure start
    duration: int
    kind: str
    pitch: Optional[SpelledPitch]
    tie: str
    dots: int
    lyric: Optional[Lyric]
    grace: bool


@record
class _RawPart:
    """One ``<part>`` as read, before it becomes a ``Part``."""

    xml_id: str
    name: str
    notes: list[_RawNote] = field(default_factory=list)
    dynamics: list[tuple[int, int, str]] = field(default_factory=list)
    measure_lengths: list[int] = field(default_factory=list)
    has_lyrics: bool = False


def _read_member(zf: zipfile.ZipFile, name: str) -> bytes:
    """A container member, refused over MAX_MXL_MEMBER_BYTES by its declared
    size and, should the header lie, by the bytes it inflates to."""
    if zf.getinfo(name).file_size > MAX_MXL_MEMBER_BYTES:
        raise MusicXMLError(f".mxl member {name!r} is over {MAX_MXL_MEMBER_BYTES} bytes")
    try:
        with zf.open(name) as member:
            data = member.read(MAX_MXL_MEMBER_BYTES + 1)
    except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
        raise MusicXMLError(f"bad .mxl member {name!r}: {exc}") from exc
    if len(data) > MAX_MXL_MEMBER_BYTES:
        raise MusicXMLError(f".mxl member {name!r} is over {MAX_MXL_MEMBER_BYTES} bytes")
    return data


def _unzip_mxl(data: bytes) -> bytes:
    try:
        zf = zipfile.ZipFile(io.BytesIO(data))
    except zipfile.BadZipFile as exc:
        raise MusicXMLError(f"bad .mxl container: {exc}") from exc
    with zf:
        if "META-INF/container.xml" not in zf.namelist():
            raise MusicXMLError(".mxl container is missing META-INF/container.xml")
        try:
            container = ET.fromstring(_read_member(zf, "META-INF/container.xml"))
        except ET.ParseError as exc:
            raise MusicXMLError(f"bad container manifest: {exc}") from exc
        rootfile = container.find("./rootfiles/rootfile")
        if rootfile is None or "full-path" not in rootfile.attrib:
            raise MusicXMLError("container manifest names no rootfile")
        path = rootfile.attrib["full-path"]
        if path not in zf.namelist():
            raise MusicXMLError(f"rootfile {path!r} not present in container")
        return _read_member(zf, path)


def parse_musicxml(data: bytes, source_id: str = "score") -> tuple[Score, ParseDiagnostics]:
    """Parse MusicXML bytes (plain or .mxl ZIP container) into a Score."""
    if data[:4] == b"PK\x03\x04":
        data = _unzip_mxl(data)
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MusicXMLError(f"malformed XML: {exc}") from exc

    if root.tag == "score-timewise":
        raise MusicXMLError("unsupported layout: score-timewise (convert to score-partwise)")
    if root.tag != "score-partwise":
        raise MusicXMLError(f"not a MusicXML score document (root <{root.tag}>)")

    diags = ParseDiagnostics()
    part_names = _read_part_list(root, diags)
    unit = _document_unit(root)

    raw_parts: list[_RawPart] = []
    time_signatures: list[tuple[int, int, int]] = []
    tempo_raw: list[tuple[int, int, Optional[str], Optional[float]]] = []
    key_fifths: Optional[int] = None

    for part_el in root.findall("part"):
        xml_id = part_el.get("id", f"P{len(raw_parts) + 1}")
        raw = _RawPart(xml_id=xml_id, name=part_names.get(xml_id, xml_id))
        state = _PartState(unit)
        for mi, measure_el in enumerate(part_el.findall("measure"), start=1):
            sig, fifths = _parse_measure(
                measure_el, mi, raw, state, diags, tempo_raw
            )
            if sig is not None and not raw_parts:  # signatures read from first part
                if not time_signatures or time_signatures[-1][1:] != sig:
                    time_signatures.append((mi, *sig))
            if fifths is not None:
                if key_fifths is None:
                    key_fifths = fifths
                elif fifths != key_fifths:
                    diags.skip("key-change")
            state.active_sig = sig or state.active_sig
            _check_measure_durations(raw, mi, state, diags)
        raw_parts.append(raw)

    if not raw_parts:
        raise MusicXMLError("score contains no parts")

    score = _build_score(
        source_id, raw_parts, unit, time_signatures, key_fifths, tempo_raw, diags
    )
    return score, diags


def _read_part_list(root: ET.Element, diags: ParseDiagnostics) -> dict[str, str]:
    names: dict[str, str] = {}
    for sp in root.findall("./part-list/score-part"):
        pid = sp.get("id", "")
        name = (sp.findtext("part-name") or "").strip()
        if not name:
            name = (sp.findtext("./score-instrument/instrument-name") or "").strip()
        names[pid] = name or pid
    if not names:
        diags.warn("part-list", "no part-list found; using part ids as names")
    return names


def _document_unit(root: ET.Element) -> int:
    """Units per quarter note in which every time the document states is a
    whole number: the LCM of the numerators of its positive ``<divisions>``
    times the LCM of the denominators of its ``<duration>`` and ``<offset>``
    values. Unreadable values are left to the parse to report."""
    def values(tag):
        for text in {el.text or "" for el in root.iter(tag)}:  # each distinct text once
            try:
                yield _read_decimal(text)
            except (ValueError, ZeroDivisionError):
                pass

    return (lcm(*(v.numerator for v in values("divisions") if v > 0))
            * lcm(*(v.denominator for tag in ("duration", "offset") for v in values(tag))))


class _PartState:
    def __init__(self, unit: int):
        self.unit = unit
        self.per_division = unit  # units per division; <divisions> is 1 until read
        self.active_sig: Optional[tuple[int, int]] = None
        self.voice_sums: dict[str, int] = {}


def _parse_measure(measure_el, mi, raw, state, diags, tempo_raw):
    loc = f"part {raw.xml_id} measure {mi}"
    cursor = max_cursor = prev_onset = 0
    sig: Optional[tuple[int, int]] = None
    fifths: Optional[int] = None
    state.voice_sums = {}

    for el in measure_el:
        if el.tag == "note":
            cursor, prev_onset = _parse_note(
                el, mi, cursor, prev_onset, raw, state, diags, loc
            )
            max_cursor = max(max_cursor, cursor)
        elif el.tag == "attributes":
            div = el.findtext("divisions")
            if div:
                divisions = _decimal(div, "divisions", diags, loc)
                if divisions is not None and divisions <= 0:
                    diags.warn(loc, f"divisions {div!r} not positive; previous value kept")
                elif divisions is not None:
                    state.per_division = state.unit * divisions.denominator // divisions.numerator
            time_el = el.find("time")
            if time_el is not None:
                if time_el.find("senza-misura") is not None:
                    diags.skip("senza-misura")
                else:
                    beats = time_el.findtext("beats")
                    beat_type = time_el.findtext("beat-type")
                    if beats and beat_type:
                        try:
                            read = (int(beats), int(beat_type))
                        except ValueError:
                            read = (0, 0)
                        if min(read) > 0:
                            sig = read
                        else:
                            diags.warn(loc, f"unreadable time signature {beats}/{beat_type}")
            key_el = el.find("key")
            if key_el is not None:
                f = key_el.findtext("fifths")
                if f is not None:
                    try:
                        fifths = int(f)
                        if not -7 <= fifths <= 7:
                            diags.warn(loc, f"key signature {fifths} fifths out of range; ignored")
                            fifths = None
                    except ValueError:
                        diags.warn(loc, f"unreadable key fifths {f!r}")
        elif el.tag == "backup":
            cursor -= _duration_units(el.findtext("duration"), "backup", state, diags, loc)
            if cursor < 0:
                diags.warn(loc, "backup before start of measure; clamped")
                cursor = 0
        elif el.tag == "forward":
            dur = _duration_units(el.findtext("duration"), "forward", state, diags, loc)
            if dur < 0:
                diags.warn(loc, f"forward duration {Fraction(dur, state.unit)} negative; skipped")
                diags.skip("non-positive-duration")
            else:
                cursor += dur
                max_cursor = max(max_cursor, cursor)
        elif el.tag == "direction":
            _parse_direction(el, mi, cursor, raw, state, diags, tempo_raw, loc)
        elif el.tag == "sound":
            bpm = _sound_tempo(el, diags, loc)
            if bpm is not None:
                tempo_raw.append((mi, cursor, None, bpm))
        else:
            diags.skip(el.tag)

    raw.measure_lengths.append(max_cursor)
    return sig, fifths


def _read_decimal(text: str):
    """An ``xs:decimal`` element value: an int when written as one, else a
    Fraction; ValueError when it is neither."""
    try:
        return int(text)
    except ValueError:
        return Fraction(text)


def _decimal(text: str, what: str, diags, loc):
    """An ``xs:decimal`` element value, or None with a warning."""
    try:
        return _read_decimal(text)
    except (ValueError, ZeroDivisionError):
        diags.warn(loc, f"unreadable {what} {text!r}")
        return None


def _units(value, per: int) -> int:
    """``value`` things of ``per`` units each, in units (exact: see _document_unit)."""
    return value.numerator * per // value.denominator


def _sound_tempo(el, diags, loc) -> Optional[float]:
    """BPM from a ``<sound tempo>`` attribute, or None (with a warning unless
    it is absent)."""
    tempo = el.get("tempo")
    if not tempo:
        return None
    try:
        bpm = float(tempo)
    except ValueError:
        bpm = None
    if bpm is None or not 0 < bpm < math.inf:
        diags.warn(loc, f"unreadable sound tempo {tempo!r}")
        return None
    return bpm


def _duration_units(text, tag, state, diags, loc) -> int:
    """A ``<tag>``'s ``<duration>`` text (None when it has none) in units."""
    if not text:
        diags.warn(loc, f"<{tag}> without duration")
        return 0
    duration = _decimal(text, "duration", diags, loc)
    return 0 if duration is None else _units(duration, state.per_division)


_new_tuple = tuple.__new__


def _parse_note(el, mi, cursor, prev_onset, raw, state, diags, loc):
    # One walk over the children; of a repeated child the first counts, as
    # ``find`` would return it. ``flags`` holds the tags of the others.
    pitch_el = duration = voice = lyric_el = None
    dots = lyrics = 0
    tie_types = flags = ()
    for child in el:
        tag = child.tag
        if tag == "pitch":
            pitch_el = child if pitch_el is None else pitch_el
        elif tag == "duration":
            duration = (child.text or "") if duration is None else duration
        elif tag == "lyric":
            lyric_el = child if lyric_el is None else lyric_el
            lyrics += 1
        elif tag == "voice":
            voice = (child.text or "") if voice is None else voice
        elif tag == "dot":
            dots += 1
        elif tag == "tie":
            tie_types += (child.get("type"),)
        else:
            flags += (tag,)
    is_chord = "chord" in flags
    is_grace = "grace" in flags
    voice = voice or "1"

    if "cue" in flags:
        diags.skip("cue")
        if not is_chord and not is_grace:
            dur = _duration_units(duration, "note", state, diags, loc)
            if dur < 0:
                diags.warn(loc, f"cue duration {Fraction(dur, state.unit)} negative")
                diags.skip("non-positive-duration")
                dur = max(dur, -cursor)  # the cursor stops at the measure start
            return cursor + dur, cursor
        return cursor, prev_onset

    if is_grace:
        dur = 0
    else:
        try:  # a whole number of divisions, as _duration_units reads it
            dur = int(duration) * state.per_division
        except (TypeError, ValueError):
            dur = _duration_units(duration, "note", state, diags, loc)
    onset = prev_onset if is_chord else cursor

    if dots > 2:
        diags.warn(loc, f"{dots} dots clamped to 2")
        dots = 2

    pitch = None
    kind = "rest"
    if "rest" in flags:
        keep = True
    elif "unpitched" in flags:
        diags.skip("unpitched")
        keep = False
    elif pitch_el is None:
        diags.warn(loc, "note without pitch or rest; skipped")
        keep = False
    else:
        kind = "note"
        pitch = _parse_pitch(pitch_el, diags, loc)
        keep = pitch is not None

    tie = _TIE_STATES["start" in tie_types, "stop" in tie_types] if kind == "note" else "none"

    lyric = None
    if lyrics:
        texts = {child.tag: child.text or "" for child in reversed(lyric_el)}  # first wins
        text = texts.get("text", "").strip()
        syllabic = (texts.get("syllabic") or "single").strip()
        if syllabic not in ("single", "begin", "middle", "end"):
            syllabic = "single"
        if text:
            lyric = Lyric(text=text, syllabic=syllabic)
            raw.has_lyrics = True
        if lyrics > 1:
            diags.skip("lyric-verse", lyrics - 1)

    if keep and kind == "rest" and dur == 0 and not is_grace:
        keep = False  # zero-length rest carries no information
    elif keep and not is_grace and dur <= 0:
        diags.warn(loc, f"{kind} duration {Fraction(dur, state.unit)} not positive; skipped")
        diags.skip("non-positive-duration")
        keep = False
    if dur < 0:  # also for a note skipped for its pitch
        dur = max(dur, -onset)  # the cursor stops at the measure start

    if keep:  # tuple.__new__ skips the NamedTuple's Python-level __new__
        raw.notes.append(_new_tuple(_RawNote, (mi, onset, dur, kind, pitch, tie, dots, lyric,
                                               is_grace)))

    if not is_chord and not is_grace:
        state.voice_sums[voice] = state.voice_sums.get(voice, 0) + dur
        return onset + dur, onset
    return cursor, prev_onset


def _parse_pitch(pitch_el, diags, loc) -> Optional[SpelledPitch]:
    step = alter = octave = None  # each the first such child's text, as findtext reads it
    for child in pitch_el:
        tag = child.tag
        if tag == "step" and step is None:
            step = child.text or ""
        elif tag == "octave" and octave is None:
            octave = child.text or ""
        elif tag == "alter" and alter is None:
            alter = child.text or ""
    step = step or ""
    # only short texts are memoized, so no long input text outlives the parse
    short = len(step) + len(alter or "") + len(octave or "") <= _MEMO_CHARS
    pitch, warnings = (_read_pitch if short else _read_pitch.__wrapped__)(step, alter, octave)
    for message in warnings:
        diags.warn(loc, message)
    return pitch


@lru_cache(maxsize=1024)
def _read_pitch(step: str, alter: Optional[str], octave: Optional[str]):
    """The interned pitch a ``<pitch>``'s texts spell, or None, with the
    warnings reading them costs. The spelling is checked before
    ``spelled_pitch`` sees it, so one that fails never reaches that cache."""
    warnings = []
    try:
        alter_f = float(alter) if alter else 0.0
        if alter_f != int(alter_f):
            warnings.append(f"microtonal alter {alter_f} rounded")
        spelling = (step.strip().upper(), int(round(alter_f)), int(octave))
        SpelledPitch(*spelling).midi  # step, alter and range validation
        return spelled_pitch(*spelling), tuple(warnings)
    except (TypeError, ValueError, OverflowError, PitchRangeError) as exc:
        warnings.append(f"unusable pitch skipped: {exc}")
        return None, tuple(warnings)


def _parse_direction(el, mi, cursor, raw, state, diags, tempo_raw, loc):
    offset_el = el.findtext("offset")
    shift = _decimal(offset_el, "offset", diags, loc) if offset_el else None
    offset = cursor if shift is None else cursor + _units(shift, state.per_division)

    words_text: Optional[str] = None
    bpm: Optional[float] = None
    for dt in el.findall("direction-type"):
        for child in dt:
            if child.tag == "dynamics":
                for mark in child:
                    token = mark.tag
                    if token in DYNAMIC_TOKENS:
                        raw.dynamics.append((mi, offset, token))
                    else:
                        diags.skip(f"dynamics-{token}")
            elif child.tag == "words":
                text = (child.text or "").strip()
                if not text:
                    continue
                lowered = text.lower()
                if lowered in DYNAMIC_TOKENS:
                    raw.dynamics.append((mi, offset, lowered))
                elif lowered.split()[0] in TEMPO_WORDS:
                    words_text = lowered
                else:
                    diags.skip("words")
            elif child.tag == "metronome":
                bpm = _parse_metronome(child, diags, loc)
            elif child.tag == "wedge":
                diags.skip("wedge")
            else:
                diags.skip(child.tag)
    sound_el = el.find("sound")
    tempo = _sound_tempo(sound_el, diags, loc) if sound_el is not None else None
    if tempo is not None:
        bpm = tempo
    if words_text is not None or bpm is not None:
        tempo_raw.append((mi, offset, words_text, bpm))


def _parse_metronome(el, diags, loc) -> Optional[float]:
    unit = el.findtext("beat-unit")
    per_minute = el.findtext("per-minute")
    if not per_minute:
        return None
    m = re.search(r"\d+(?:\.\d+)?", per_minute)
    if not m:
        diags.warn(loc, f"unreadable per-minute {per_minute!r}")
        return None
    value = float(m.group())
    quarters = _BEAT_UNIT_QUARTERS.get(unit or "quarter", Fraction(1))
    if el.find("beat-unit-dot") is not None:
        quarters = quarters * Fraction(3, 2)
    return float(value * quarters)  # normalized to quarter BPM


def _check_measure_durations(raw, mi, state, diags):
    num, den = state.active_sig or (4, 4)
    for voice, total in state.voice_sums.items():
        if total != 0 and total * den != num * 4 * state.unit:
            diags.warn(
                f"part {raw.xml_id} measure {mi}",
                f"voice {voice} sums to {Fraction(total, state.unit)} quarters, "
                f"signature says {Fraction(num * 4, den)}",
            )


def _build_score(source_id, raw_parts, unit, time_signatures, key_fifths, tempo_raw, diags):
    if not time_signatures:
        time_signatures = [(1, 4, 4)]
        diags.warn("score", "no time signature; assuming 4/4")
    if time_signatures[0][0] != 1:
        time_signatures.insert(0, (1, 4, 4))

    num_measures = max((len(rp.measure_lengths) for rp in raw_parts), default=0)
    num_measures = max(num_measures, 1)

    # a measure lasts as long as its longest part; an empty one as its signature
    # says, which need not be whole units, so lengths are kept in quarters
    nominal_at = {m: Fraction(num * 4, den) for m, num, den in time_signatures}
    nominal = nominal_at[1]
    lengths: list[Fraction] = []
    for m in range(1, num_measures + 1):
        nominal = nominal_at.get(m, nominal)
        content = max(
            (rp.measure_lengths[m - 1] for rp in raw_parts if m <= len(rp.measure_lengths)),
            default=0,
        )
        lengths.append(Fraction(content, unit) if content > 0 else nominal)
    # the coarsest base in which every length and every time read is whole:
    # the units read need unit / gcd(unit, *them) ticks per quarter
    read = gcd(unit, *(off for rp in raw_parts for _mi, off, _token in rp.dynamics))
    for rp in raw_parts:  # with each note's offset and duration
        read = gcd(read, *map(attrgetter("offset"), rp.notes),
                   *map(attrgetter("duration"), rp.notes))
    tpq = lcm(tick_base(lengths), unit // read)
    offsets = list(accumulate((to_ticks(q, tpq) for q in lengths[:-1]), initial=0))
    # a time read in units is offsets[measure - 1] + units * tpq // unit ticks, exactly

    parts = []
    ordinals = OrdinalAllocator()
    for rp in raw_parts:
        sound, family = detect_instrument_family(rp.name)
        _, explicit = split_instrument_ordinal(rp.name)
        ordinal = ordinals.assign(sound, explicit)

        notes = sorted(rp.notes, key=attrgetter("measure_index", "offset"))
        measure, offset, duration, kind, pitch, tie, dots, lyric, grace = (
            zip(*notes) if notes else [()] * len(_RawNote._fields))
        events = EventColumns(
            kind, tuple(offsets[m - 1] + units * tpq // unit for m, units in zip(measure, offset)),
            tuple(units * tpq // unit for units in duration), measure, pitch, tie, dots, lyric,
            grace)
        dyn = tuple(
            (offsets[mi - 1] + off * tpq // unit, token)
            for mi, off, token in sorted(rp.dynamics, key=lambda d: (d[0], d[1]))
        )
        parts.append(
            Part(
                part_id=part_identifier(sound, ordinal),
                instrument_sound=sound,
                sound_ordinal=ordinal,
                family=family,
                is_vocal=(family == "voices" or rp.has_lyrics),
                events=events,
                dynamic_marks=dyn,
                measure_count=len(rp.measure_lengths),
            )
        )

    tempo_marks = tuple(
        TempoMark(measure_index=mi, text=text, bpm=bpm)
        for mi, _off, text, bpm in sorted(tempo_raw, key=lambda t: (t[0], t[1]))
    )

    return Score(
        source_id=source_id,
        parts=tuple(parts),
        num_measures=num_measures,
        time_signatures=tuple(time_signatures),
        key_signature=key_fifths if key_fifths is not None else 0,
        tempo_marks=tempo_marks,
        measure_offsets=tuple(offsets),
        ticks_per_quarter=tpq,
    )
