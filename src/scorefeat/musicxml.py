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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .diagnostics import ParseDiagnostics
from .instruments import (
    OrdinalAllocator,
    detect_instrument_family,
    part_identifier,
    split_instrument_ordinal,
)
from .model import (
    Lyric,
    NoteEvent,
    Part,
    PitchRangeError,
    Score,
    SpelledPitch,
    TempoMark,
    midi_number,
)

PARSER_ID = "musicxml"
PARSER_VERSION = "2"

DYNAMIC_TOKENS = {
    "pppp", "ppp", "pp", "p", "mp", "mf", "f", "ff", "fff", "ffff",
    "sf", "sfz", "sffz", "fz", "rf", "rfz", "fp", "sfp", "pf",
}

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


class MusicXMLError(ValueError):
    """Fatal structural problem in a MusicXML document."""


@dataclass
class _RawNote:
    """A parsed note before absolute onsets are known."""

    kind: str
    measure_index: int
    offset: Fraction  # quarters from measure start
    duration: Fraction
    pitch: Optional[SpelledPitch]
    tie: str
    dots: int
    lyric: Optional[Lyric]
    grace: bool


@dataclass
class _RawPart:
    xml_id: str
    name: str
    notes: list[_RawNote] = field(default_factory=list)
    dynamics: list[tuple[int, Fraction, str]] = field(default_factory=list)
    measure_lengths: list[Fraction] = field(default_factory=list)
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

    raw_parts: list[_RawPart] = []
    time_signatures: list[tuple[int, int, int]] = []
    tempo_raw: list[tuple[int, Fraction, Optional[str], Optional[float]]] = []
    key_fifths: Optional[int] = None

    for part_el in root.findall("part"):
        xml_id = part_el.get("id", f"P{len(raw_parts) + 1}")
        raw = _RawPart(xml_id=xml_id, name=part_names.get(xml_id, xml_id))
        state = _PartState()
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
        source_id, raw_parts, time_signatures, key_fifths, tempo_raw, diags
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


class _PartState:
    def __init__(self):
        self.divisions = 1
        self.active_sig: Optional[tuple[int, int]] = None
        self.voice_sums: dict[str, Fraction] = {}


def _parse_measure(measure_el, mi, raw, state, diags, tempo_raw):
    loc = f"part {raw.xml_id} measure {mi}"
    cursor = Fraction(0)
    max_cursor = Fraction(0)
    prev_onset = Fraction(0)
    sig: Optional[tuple[int, int]] = None
    fifths: Optional[int] = None
    state.voice_sums = {}

    for el in measure_el:
        if el.tag == "attributes":
            div = el.findtext("divisions")
            if div:
                divisions = _decimal(div, "divisions", diags, loc)
                if divisions is not None and divisions <= 0:
                    diags.warn(loc, f"divisions {div!r} not positive; previous value kept")
                elif divisions is not None:
                    state.divisions = divisions
            time_el = el.find("time")
            if time_el is not None:
                if time_el.find("senza-misura") is not None:
                    diags.skip("senza-misura")
                else:
                    beats = time_el.findtext("beats")
                    beat_type = time_el.findtext("beat-type")
                    if beats and beat_type:
                        try:
                            sig = (int(beats), int(beat_type))
                        except ValueError:
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
        elif el.tag == "note":
            cursor, prev_onset = _parse_note(
                el, mi, cursor, prev_onset, raw, state, diags, loc
            )
            max_cursor = max(max_cursor, cursor)
        elif el.tag == "backup":
            cursor -= _duration_quarters(el, state, diags, loc)
            if cursor < 0:
                diags.warn(loc, "backup before start of measure; clamped")
                cursor = Fraction(0)
        elif el.tag == "forward":
            cursor += _duration_quarters(el, state, diags, loc)
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


def _decimal(text: str, what: str, diags, loc):
    """An ``xs:decimal`` element value (an int when written as one, else a
    Fraction), or None with a warning."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return Fraction(text)
    except ValueError:
        diags.warn(loc, f"unreadable {what} {text!r}")
        return None


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


def _duration_quarters(el, state, diags, loc) -> Fraction:
    d = el.findtext("duration")
    if not d:
        diags.warn(loc, f"<{el.tag}> without duration")
        return Fraction(0)
    duration = _decimal(d, "duration", diags, loc)
    return Fraction(0) if duration is None else Fraction(duration, state.divisions)


def _parse_note(el, mi, cursor, prev_onset, raw, state, diags, loc):
    is_chord = el.find("chord") is not None
    is_grace = el.find("grace") is not None
    voice = el.findtext("voice") or "1"

    if el.find("cue") is not None:
        diags.skip("cue")
        if not is_chord and not is_grace:
            dur = _duration_quarters(el, state, diags, loc)
            return cursor + dur, cursor
        return cursor, prev_onset

    dur = Fraction(0) if is_grace else _duration_quarters(el, state, diags, loc)
    onset = prev_onset if is_chord else cursor

    dots = len(el.findall("dot"))
    if dots > 2:
        diags.warn(loc, f"{dots} dots clamped to 2")
        dots = 2

    keep = True
    pitch = None
    kind = "rest"
    if el.find("rest") is not None:
        kind = "rest"
    elif el.find("unpitched") is not None:
        diags.skip("unpitched")
        keep = False
    else:
        pitch_el = el.find("pitch")
        if pitch_el is None:
            diags.warn(loc, "note without pitch or rest; skipped")
            keep = False
        else:
            pitch = _parse_pitch(pitch_el, diags, loc)
            kind = "note"
            if pitch is None:
                keep = False

    tie = "none"
    if kind == "note":
        tie_types = {t.get("type") for t in el.findall("tie")}
        if {"start", "stop"} <= tie_types:
            tie = "continue"
        elif "start" in tie_types:
            tie = "start"
        elif "stop" in tie_types:
            tie = "stop"

    lyric = None
    lyric_els = el.findall("lyric")
    if lyric_els:
        text = (lyric_els[0].findtext("text") or "").strip()
        syllabic = (lyric_els[0].findtext("syllabic") or "single").strip()
        if syllabic not in ("single", "begin", "middle", "end"):
            syllabic = "single"
        if text:
            lyric = Lyric(text=text, syllabic=syllabic)
            raw.has_lyrics = True
        if len(lyric_els) > 1:
            diags.skip("lyric-verse", len(lyric_els) - 1)

    if keep and kind == "rest" and dur == 0 and not is_grace:
        keep = False  # zero-length rest carries no information

    if keep:
        raw.notes.append(
            _RawNote(
                kind=kind, measure_index=mi, offset=onset, duration=dur,
                pitch=pitch, tie=tie, dots=dots, lyric=lyric, grace=is_grace,
            )
        )

    if not is_chord and not is_grace:
        state.voice_sums[voice] = state.voice_sums.get(voice, Fraction(0)) + dur
        return onset + dur, onset
    return cursor, prev_onset


def _parse_pitch(pitch_el, diags, loc) -> Optional[SpelledPitch]:
    step = (pitch_el.findtext("step") or "").strip().upper()
    octave_text = pitch_el.findtext("octave")
    alter_text = pitch_el.findtext("alter")
    try:
        alter_f = float(alter_text) if alter_text else 0.0
        if alter_f != int(alter_f):
            diags.warn(loc, f"microtonal alter {alter_f} rounded")
        pitch = SpelledPitch(step=step, alter=int(round(alter_f)), octave=int(octave_text))
        midi_number(pitch)  # range validation
        return pitch
    except (TypeError, ValueError, PitchRangeError) as exc:
        diags.warn(loc, f"unusable pitch skipped: {exc}")
        return None


def _parse_direction(el, mi, cursor, raw, state, diags, tempo_raw, loc):
    offset_el = el.findtext("offset")
    shift = _decimal(offset_el, "offset", diags, loc) if offset_el else None
    offset = cursor if shift is None else cursor + Fraction(shift, state.divisions)

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
    sig = state.active_sig or (4, 4)
    expected = Fraction(sig[0] * 4, sig[1])
    for voice, total in state.voice_sums.items():
        if total != 0 and total != expected:
            diags.warn(
                f"part {raw.xml_id} measure {mi}",
                f"voice {voice} sums to {total} quarters, signature says {expected}",
            )


def _build_score(source_id, raw_parts, time_signatures, key_fifths, tempo_raw, diags):
    if not time_signatures:
        time_signatures = [(1, 4, 4)]
        diags.warn("score", "no time signature; assuming 4/4")
    if time_signatures[0][0] != 1:
        time_signatures.insert(0, (1, 4, 4))

    num_measures = max((len(rp.measure_lengths) for rp in raw_parts), default=0)
    num_measures = max(num_measures, 1)

    # a measure lasts as long as its longest part; an empty one as its signature says
    nominal_at = {m: Fraction(num * 4, den) for m, num, den in time_signatures}
    nominal = nominal_at[1]
    lengths: list[Fraction] = []
    for m in range(1, num_measures + 1):
        nominal = nominal_at.get(m, nominal)
        content = max(
            (rp.measure_lengths[m - 1] for rp in raw_parts if m <= len(rp.measure_lengths)),
            default=Fraction(0),
        )
        lengths.append(content if content > 0 else nominal)
    offsets = list(accumulate(lengths[:-1], initial=Fraction(0)))

    parts = []
    ordinals = OrdinalAllocator()
    for rp in raw_parts:
        sound, family = detect_instrument_family(rp.name)
        _, explicit = split_instrument_ordinal(rp.name)
        ordinal = ordinals.assign(sound, explicit)

        events = tuple(
            NoteEvent(
                kind=n.kind,
                onset=offsets[n.measure_index - 1] + n.offset,
                duration=n.duration,
                measure_index=n.measure_index,
                pitch=n.pitch,
                tie=n.tie,
                dots=n.dots,
                lyric=n.lyric,
                grace=n.grace,
            )
            for n in sorted(rp.notes, key=lambda n: (n.measure_index, n.offset))
        )
        dyn = tuple(
            (offsets[mi - 1] + off, token)
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
    )
