"""Standard MIDI File (format 0/1) importer with grid quantization.

MIDI carries no spellings, lyrics, or harmony; pitches are spelled from the
key-signature meta event (sharps by default, flats for flat keys). Note times
are read in the header's ticks per quarter and snapped to the fixed ``GRID``
(a sixteenth note). The measure starts planned from the time-signature events
become the score's measure offsets, and each note lands in the last measure
that starts at or before its onset. The score's tick base is the grid's,
refined only where a time signature puts a barline off the grid.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import field
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from .diagnostics import ParseDiagnostics
from .features.core import nearest_dynamic_token
from .instruments import OrdinalAllocator, detect_instrument_family, part_identifier
from .model import (
    EventColumns, Part, Score, SpelledPitch, TempoMark, spelled_pitch, tick_base, to_ticks,
)
from .records import record

PARSER_ID = "midi"
PARSER_VERSION = "5"

# The canonical dynamic marking nearest each MIDI velocity 0..127.
DYNAMIC_BY_VELOCITY = tuple(nearest_dynamic_token(v) for v in range(128))

# Input caps: a few bytes of delta time can describe hours of music, so the
# importer refuses a file whose music ends past MAX_QUARTERS (quantized) or
# that would be cut into more than MAX_MEASURES measures.
MAX_QUARTERS = 40_000
MAX_MEASURES = 10_000

# Snap grid for onsets and durations: GRID_STEPS steps to the quarter note (a
# sixteenth). Durations are floored at one step so no note quantizes away.
GRID_STEPS = 4
GRID = Fraction(1, GRID_STEPS)

_SHARP_SPELLING = {
    0: ("C", 0), 1: ("C", 1), 2: ("D", 0), 3: ("D", 1), 4: ("E", 0), 5: ("F", 0),
    6: ("F", 1), 7: ("G", 0), 8: ("G", 1), 9: ("A", 0), 10: ("A", 1), 11: ("B", 0),
}
_FLAT_SPELLING = {
    0: ("C", 0), 1: ("D", -1), 2: ("D", 0), 3: ("E", -1), 4: ("E", 0), 5: ("F", 0),
    6: ("G", -1), 7: ("G", 0), 8: ("A", -1), 9: ("A", 0), 10: ("B", -1), 11: ("B", 0),
}

_GM_EXACT = {
    40: "violin", 41: "viola", 42: "cello", 43: "double bass", 45: "strings",
    44: "strings", 46: "harp", 47: "timpani", 56: "trumpet", 57: "trombone",
    58: "tuba", 59: "trumpet", 60: "horn", 68: "oboe", 69: "english horn",
    70: "bassoon", 71: "clarinet", 72: "piccolo", 73: "flute", 74: "recorder",
}
_GM_RANGES = (
    (0, 7, "piano"), (8, 15, "celesta"), (16, 23, "organ"), (24, 31, "guitar"),
    (32, 39, "double bass"), (48, 51, "strings"), (52, 55, "choir"),
    (61, 63, "brass"), (64, 67, "saxophone"), (75, 79, "flute"),
    (80, 103, "synthesizer"), (104, 111, "synthesizer"),
    (112, 119, "percussion"), (120, 127, "synthesizer"),
)


class MidiError(ValueError):
    """Fatal problem in a Standard MIDI File."""


def gm_sound(program: int) -> str:
    if program in _GM_EXACT:
        return _GM_EXACT[program]
    for lo, hi, sound in _GM_RANGES:
        if lo <= program <= hi:
            return sound
    return "synthesizer"


def _take(data: bytes, pos: int, n: int, what: str) -> bytes:
    """The ``n`` bytes of ``data`` at ``pos``."""
    if pos + n > len(data):
        raise MidiError(f"truncated file while reading {what}")
    return data[pos : pos + n]


def _vlq(data: bytes, pos: int) -> tuple[int, int]:
    """The variable-length quantity at ``pos`` and the position after it."""
    value = 0
    for pos in range(pos, pos + 4):
        if pos >= len(data):
            raise MidiError("truncated file while reading variable-length quantity")
        b = data[pos]
        value = (value << 7) | (b & 0x7F)
        if b < 0x80:
            return value, pos + 1
    raise MidiError("variable-length quantity longer than 4 bytes")


@record
class _TrackData:
    """One MTrk chunk as read, before its notes become a ``Part``."""

    index: int
    name: Optional[str] = None
    # (tick, channel, pitch, velocity, is_on)
    notes: list[tuple[int, int, int, int, bool]] = field(default_factory=list)
    programs: list[tuple[int, int, int]] = field(default_factory=list)  # (tick, ch, program)
    end_tick: int = 0


def import_midi(data: bytes, source_id: str = "score") -> tuple[Score, ParseDiagnostics]:
    """Import an SMF format 0/1 file into a quantized Score."""
    diags = ParseDiagnostics()

    if _take(data, 0, 4, "header") != b"MThd":
        raise MidiError("not a Standard MIDI File (missing MThd)")
    header_len = int.from_bytes(_take(data, 4, 4, "header length"), "big")
    if header_len < 6:
        raise MidiError("header chunk too short")
    fmt, ntrks, division = struct.unpack(">HHH", _take(data, 8, 6, "header fields"))
    _take(data, 14, header_len - 6, "header padding")
    if fmt == 2:
        raise MidiError("format 2 files are unsupported")
    if fmt not in (0, 1):
        raise MidiError(f"unknown SMF format {fmt}")
    if division & 0x8000:
        raise MidiError("SMPTE time division is unsupported")
    tpq = division
    if tpq <= 0:
        raise MidiError("ticks per quarter must be positive")

    tempo_events: list[tuple[int, float]] = []
    sig_events: list[tuple[int, int, int]] = []
    key_events: list[tuple[int, int]] = []
    tracks: list[_TrackData] = []

    pos = 8 + header_len
    for ti in range(ntrks):
        chunk_id = _take(data, pos, 4, f"track {ti} id")
        chunk_len = int.from_bytes(_take(data, pos + 4, 4, f"track {ti} length"), "big")
        body = _take(data, pos + 8, chunk_len, f"track {ti} body")
        pos += 8 + chunk_len
        if chunk_id != b"MTrk":
            diags.skip(f"chunk-{chunk_id!r}")
            continue
        track = _TrackData(index=len(tracks))
        _parse_track(body, track, tempo_events, sig_events, key_events, diags)
        tracks.append(track)

    key_fifths: Optional[int] = None
    for _tick, fifths in sorted(key_events):
        if -7 <= fifths <= 7:
            key_fifths = fifths
            break
    prefer_flats = key_fifths is not None and key_fifths < 0

    measure_starts, time_signatures = _plan_measures(
        sig_events, tpq, *_last_ticks(tracks), diags
    )

    base = tick_base([GRID, *measure_starts])
    start_ticks = [to_ticks(q, base) for q in measure_starts]
    parts = _build_parts(tracks, tpq, start_ticks, base, prefer_flats, diags)
    tempo_marks = tuple(
        TempoMark(measure_index=bisect_right(measure_starts, Fraction(t, tpq)), bpm=bpm)
        for t, bpm in sorted(tempo_events)
    )

    return (
        Score(
            source_id=source_id,
            parts=parts,
            num_measures=len(measure_starts),
            time_signatures=time_signatures,
            key_signature=key_fifths if key_fifths is not None else 0,
            tempo_marks=tempo_marks,
            measure_offsets=tuple(start_ticks),
            ticks_per_quarter=base,
        ),
        diags,
    )


def _parse_track(body, track, tempo_events, sig_events, key_events, diags):
    """Read one track's events, by index over its bytes. A channel event with
    a data byte over 0x7F (a status byte where data belongs) is skipped with a
    warning; reading goes on after its bytes."""
    end = len(body)
    pos = tick = 0
    running: Optional[int] = None
    while pos < end:
        delta = body[pos]
        if delta < 0x80:  # a one-byte delta time, the usual case
            tick += delta
            pos += 1
        else:
            delta, pos = _vlq(body, pos)
            tick += delta
        if pos >= end:
            raise MidiError("truncated file while reading event status")
        status = body[pos]
        if status < 0x80:
            if running is None:
                raise MidiError("data byte with no running status")
            status = running
        else:
            pos += 1
        if status == 0xFF:
            running = None
            if pos >= end:
                raise MidiError("truncated file while reading meta type")
            meta = body[pos]
            length, pos = _vlq(body, pos + 1)
            payload = _take(body, pos, length, "meta payload")
            pos += length
            if meta == 0x51 and length >= 3:
                us = int.from_bytes(payload[:3], "big")
                if us > 0:
                    tempo_events.append((tick, 60_000_000 / us))
            elif meta == 0x58 and length >= 2:
                num, dd = payload[0], payload[1]
                if num > 0:
                    sig_events.append((tick, num, 2**dd))
            elif meta == 0x59 and length >= 1:
                key_events.append((tick, struct.unpack(">b", payload[:1])[0]))
            elif meta == 0x03:
                track.name = payload.decode("latin-1", "replace").strip() or None
            elif meta == 0x05:
                diags.skip("lyric")
            elif meta == 0x2F:
                break
        elif status in (0xF0, 0xF7):
            running = None
            length, pos = _vlq(body, pos)
            _take(body, pos, length, "sysex payload")
            pos += length
        else:
            running = status
            kind = status & 0xF0
            if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
                n = 2
            elif kind in (0xC0, 0xD0):
                n = 1
            else:
                raise MidiError(f"unknown status byte 0x{status:02x}")
            if pos + n > end:
                raise MidiError("truncated file while reading data byte")
            d1 = body[pos]
            d2 = body[pos + 1] if n == 2 else 0
            pos += n
            if d1 > 0x7F or d2 > 0x7F:
                diags.warn(f"track {track.index}", f"data byte over 0x7f in event "
                           f"{status:02x} {body[pos - n:pos].hex(' ')} at tick {tick}; skipped")
                diags.skip("bad-data-byte")
            elif kind == 0x90:
                track.notes.append((tick, status & 0x0F, d1, d2, d2 > 0))
            elif kind == 0x80:
                track.notes.append((tick, status & 0x0F, d1, d2, False))
            elif kind == 0xC0:
                track.programs.append((tick, status & 0x0F, d1))
    track.end_tick = tick


def _last_ticks(tracks) -> tuple[int, int]:
    """(last note-on tick, last note event tick) over all tracks."""
    onsets = [t for tr in tracks for (t, _ch, _pitch, _vel, is_on) in tr.notes if is_on]
    ends = [t for tr in tracks for (t, *_rest) in tr.notes]
    return max(onsets, default=0), max(ends, default=0)


def _grid_steps(ticks: int, tpq: int) -> int:
    """``ticks`` at ``tpq`` per quarter in whole grid steps, rounded half up."""
    return (2 * GRID_STEPS * ticks + tpq) // (2 * tpq)


def _quantize(tick: int, tpq: int) -> Fraction:
    return _grid_steps(tick, tpq) * GRID


def _plan_measures(sig_events, tpq, last_onset_tick, last_end_tick, diags):
    """Measure start offsets (quarters) and the time-signature list.

    After the last time signature, measures are planned while they start
    before the last quantized end, or at or before the last quantized onset:
    a final note that ends on a barline adds no empty measure, one whose onset
    quantizes onto it still gets its own. A time signature that starts after
    the music (at or past the last end, past the last onset) is dropped.
    There is always at least one measure, and the first starts at 0.
    """
    last_onset = _quantize(last_onset_tick, tpq)
    last_end = _quantize(last_end_tick, tpq)
    if last_end > MAX_QUARTERS:
        raise MidiError(f"music ends after {last_end} quarters, over the cap of {MAX_QUARTERS}")
    sigs = sorted({(t, n, d) for t, n, d in sig_events})
    if not sigs or sigs[0][0] > 0:
        sigs.insert(0, (0, 4, 4))
    sigs = sigs[:1] + [
        (t, n, d) for t, n, d in sigs[1:]
        if Fraction(t, tpq) < last_end or Fraction(t, tpq) <= last_onset
    ]

    starts: list[Fraction] = []
    signatures: list[tuple[int, int, int]] = []
    for i, (tick, num, den) in enumerate(sigs):
        seg_start = Fraction(tick, tpq)
        seg_end = Fraction(sigs[i + 1][0], tpq) if i + 1 < len(sigs) else None
        if starts and seg_start <= starts[-1]:
            diags.warn("midi", f"time signature change at {seg_start} inside a measure; ignored")
            continue
        mlen = Fraction(num * 4, den)
        signatures.append((len(starts) + 1, num, den))
        pos = seg_start
        while (seg_end is not None and pos < seg_end) or (
            seg_end is None and (pos < last_end or pos <= last_onset or not starts)
        ):
            if len(starts) == MAX_MEASURES:
                raise MidiError(f"more than {MAX_MEASURES} measures")
            starts.append(pos)
            pos += mlen
    if not starts:
        starts = [Fraction(0)]
        signatures = [(1, 4, 4)]
    return starts, tuple(signatures)


def _spell(midi: int, prefer_flats: bool) -> SpelledPitch:
    table = _FLAT_SPELLING if prefer_flats else _SHARP_SPELLING
    step, alter = table[midi % 12]
    return spelled_pitch(step, alter, midi // 12 - 1)


def _build_parts(tracks, tpq, start_ticks, base, prefer_flats, diags):
    """One part per (track, channel) with notes, in ticks of ``base`` per
    quarter; ``start_ticks`` are the measure starts in those ticks."""
    step_ticks = base // GRID_STEPS  # ``base`` counts whole grid steps
    channel_notes: dict[tuple[int, int], list] = {}
    channel_programs: dict[tuple[int, int], int] = {}
    track_names: dict[int, Optional[str]] = {}

    for tr in tracks:
        track_names[tr.index] = tr.name
        program: dict[int, int] = {}
        prog_iter = sorted(tr.programs)
        pi = 0
        sounding: dict[tuple[int, int], tuple[int, int]] = {}
        for tick, ch, pitch, vel, is_on in tr.notes:
            while pi < len(prog_iter) and prog_iter[pi][0] <= tick:
                program[prog_iter[pi][1]] = prog_iter[pi][2]
                pi += 1
            key = (ch, pitch)
            if is_on:
                if key in sounding:
                    s_tick, s_vel = sounding[key]
                    if s_tick == tick:
                        continue  # simultaneous duplicate: merged
                    _close(channel_notes, tr.index, ch, pitch, s_tick, tick, s_vel)
                sounding[key] = (tick, vel)
                channel_programs.setdefault((tr.index, ch), program.get(ch, 0))
            else:
                if key in sounding:
                    s_tick, s_vel = sounding.pop(key)
                    _close(channel_notes, tr.index, ch, pitch, s_tick, tick, s_vel)
        for (ch, pitch), (s_tick, s_vel) in sounding.items():
            diags.warn(f"track {tr.index}", f"unterminated note {pitch} closed at track end")
            _close(channel_notes, tr.index, ch, pitch, s_tick, max(tr.end_tick, s_tick + 1), s_vel)

    parts = []
    ordinals = OrdinalAllocator()
    for (ti, ch) in sorted(channel_notes):
        raw = channel_notes[(ti, ch)]
        if ch == 9:
            sound, family = "percussion", "percussion"
        else:
            name = track_names.get(ti) or gm_sound(channel_programs.get((ti, ch), 0))
            sound, family = detect_instrument_family(name)
        ordinal = ordinals.assign(sound, None)

        spelling = {pitch: _spell(pitch, prefer_flats) for pitch in {note[2] for note in raw}}
        rows = []  # (onset, duration, measure, pitch) of each note
        dyn_marks: list[tuple[int, str]] = []
        last_token: Optional[str] = None
        for s_tick, e_tick, pitch, vel in sorted(raw):
            onset = _grid_steps(s_tick, tpq) * step_ticks
            steps = _grid_steps(e_tick - s_tick, tpq)
            rows.append((onset, max(1, steps) * step_ticks, bisect_right(start_ticks, onset),
                         spelling[pitch]))
            token = DYNAMIC_BY_VELOCITY[vel]
            if token != last_token:
                dyn_marks.append((onset, token))
                last_token = token
        rows.sort(key=itemgetter(0))
        onsets, durations, measures, pitches = zip(*rows)
        n = len(rows)
        events = EventColumns(("note",) * n, onsets, durations, measures, pitches,
                              ("none",) * n, (0,) * n, (None,) * n, (False,) * n)
        parts.append(
            Part(
                part_id=part_identifier(sound, ordinal),
                instrument_sound=sound,
                sound_ordinal=ordinal,
                family=family,
                is_vocal=(family == "voices"),
                events=events,
                dynamic_marks=tuple(dyn_marks),
                measure_count=len(start_ticks),
            )
        )
    if not parts:
        diags.warn("midi", "no note events found")
        parts.append(
            Part(
                part_id=part_identifier("part", 1),
                instrument_sound="part",
                sound_ordinal=1,
                family="other",
                is_vocal=False,
                events=(),
                measure_count=len(start_ticks),
            )
        )
    return tuple(parts)


def _close(channel_notes, track, ch, pitch, start, end, velocity):
    channel_notes.setdefault((track, ch), []).append((start, end, pitch, velocity))
