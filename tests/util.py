"""Fixture builders for the test suite.

The MusicXML and MIDI builders are deliberately independent of the package's
parsers (plain string/byte assembly) so round-trip tests have a real oracle.
"""

from __future__ import annotations

import io
import math
import random
import struct
import zipfile
from fractions import Fraction
from xml.sax.saxutils import escape

from scorefeat.engine import extract_unit
from scorefeat.model import Lyric, NoteEvent, Part, Score, SpelledPitch, to_ticks
from scorefeat.instruments import detect_instrument_family, part_identifier
from scorefeat.registry import feature_modules, resolve_feature_order
from scorefeat.table import FeatureTable

# ---------------------------------------------------------------------------
# direct model builders: times are given in quarter notes and stored in ticks
# of TPQ per quarter, which fits every fraction the suite writes

TPQ = 480


def ticks(quarters) -> int:
    return to_ticks(Fraction(quarters), TPQ)


def quarters(s: Score, ticks: int) -> Fraction:
    """A tick count of ``s`` in quarter notes."""
    return Fraction(ticks, s.ticks_per_quarter)


# ---------------------------------------------------------------------------
# exact-rounding oracles over Fractions


def rounds_to(value: float, exact: Fraction) -> bool:
    """Whether ``exact`` lies within half an ulp of the float ``value`` (on
    each side, the half gap to the float next to it)."""
    v = Fraction(value)
    below = Fraction(math.nextafter(value, -math.inf))
    above = Fraction(math.nextafter(value, math.inf))
    return (v + below) / 2 <= exact <= (v + above) / 2


def sqrt_rounds_to(value: float, square: Fraction) -> bool:
    """Whether sqrt(``square``) lies within half an ulp of ``value`` >= 0."""
    v = Fraction(value)
    low = max(Fraction(0), (v + Fraction(math.nextafter(value, -math.inf))) / 2)
    high = (v + Fraction(math.nextafter(value, math.inf))) / 2
    return low * low <= square <= high * high


def nearest_sqrt(square: Fraction) -> float:
    """The float nearest sqrt(``square``), stepped to from ``math.sqrt``."""
    value = math.sqrt(square)
    while not sqrt_rounds_to(value, square):
        value = math.nextafter(value, math.inf if Fraction(value) ** 2 < square else 0)
    return value


def P(step, alter=0, octave=4):
    return SpelledPitch(step=step, alter=alter, octave=octave)


def note(step, octave=4, alter=0, onset=0, dur=1, measure=1, tie="none",
         dots=0, lyric=None, grace=False):
    lyr = None
    if lyric is not None:
        text, syllabic = lyric if isinstance(lyric, tuple) else (lyric, "single")
        lyr = Lyric(text=text, syllabic=syllabic)
    return NoteEvent(
        kind="note", onset=ticks(onset), duration=ticks(dur),
        measure_index=measure, pitch=P(step, alter, octave), tie=tie,
        dots=dots, lyric=lyr, grace=grace,
    )


def rest(onset=0, dur=1, measure=1):
    return NoteEvent(kind="rest", onset=ticks(onset), duration=ticks(dur),
                     measure_index=measure)


def part(events, sound="violin", ordinal=1, measures=None, dynamics=(), vocal=None):
    _, family = detect_instrument_family(sound)
    if measures is None:
        measures = max((e.measure_index for e in events), default=1)
    return Part(
        part_id=part_identifier(sound, ordinal),
        instrument_sound=sound,
        sound_ordinal=ordinal,
        family=family,
        is_vocal=(family == "voices") if vocal is None else vocal,
        events=tuple(sorted(events, key=lambda e: e.onset)),
        dynamic_marks=tuple((ticks(pos), tok) for pos, tok in dynamics),
        measure_count=measures,
    )


def score(parts, measures=None, sig=(4, 4), fifths=0, tempo=(), source="fixture",
          annotations=None):
    if measures is None:
        measures = max((p.measure_count for p in parts), default=1)
    return Score(
        source_id=source,
        parts=tuple(parts),
        num_measures=measures,
        time_signatures=((1, sig[0], sig[1]),),
        measure_offsets=tuple(ticks(Fraction(4 * sig[0], sig[1]) * i) for i in range(measures)),
        ticks_per_quarter=TPQ,
        key_signature=fifths,
        tempo_marks=tuple(tempo),
        annotations=tuple(annotations) if annotations is not None else None,
    )


def run_module(name, unit, of_part=None) -> dict:
    """Cells the registered feature module ``name`` adds to an engine row.

    The module runs through ``engine.extract_unit`` after its dependencies
    (core first, as in a run); their cells are left out. ``unit`` is a Score,
    or a Part, which is run as a one-part score. For a Score the row comes
    back with ``Score_`` stripped; for a Part (``unit`` itself, or
    ``of_part`` within ``unit``) only that part's cells come back, with the
    ``Part<Id>_`` prefix stripped.
    """
    if isinstance(unit, Part):
        unit, of_part = score([unit]), unit
    registry = feature_modules()
    order = resolve_feature_order(registry, [name])
    upstream = extract_unit(unit, order[:-1], registry)
    row = {k: v for k, v in extract_unit(unit, order, registry).items() if k not in upstream}
    if of_part is None:
        return {k.removeprefix("Score_"): v for k, v in row.items()}
    prefix = f"Part{of_part.part_id}_"
    return {k[len(prefix):]: v for k, v in row.items() if k.startswith(prefix)}


# ---------------------------------------------------------------------------
# feature tables read and written row by row


def table_of(columns, rows) -> FeatureTable:
    """A table with the given column names and rows of cells."""
    rows = [list(row) for row in rows]
    cells = zip(*rows) if rows else [()] * len(columns)
    return FeatureTable({name: list(c) for name, c in zip(columns, cells)}, len(rows))


def csv_text(table: FeatureTable) -> str:
    """The CSV that ``table.to_csv`` writes, as text."""
    buf = io.StringIO()
    table.to_csv(buf)
    return buf.getvalue()


def jsonl_text(table: FeatureTable) -> str:
    """The JSON lines that ``table.to_jsonl`` writes, as text."""
    buf = io.StringIO()
    table.to_jsonl(buf)
    return buf.getvalue()


def rows_of(table: FeatureTable) -> list[list]:
    """The table's rows, each a list of cells in column order."""
    return [[cells[i] for cells in table.columns.values()] for i in range(table.num_rows)]


def sorted_by(table: FeatureTable, *keys: str) -> FeatureTable:
    """The table with its rows sorted on the ``keys`` columns, missing last."""
    def key(i):
        return tuple((table.columns[k][i] is None, table.columns[k][i]) for k in keys)

    order = sorted(range(table.num_rows), key=key)
    return FeatureTable({name: [cells[i] for i in order] for name, cells in table.columns.items()},
                        table.num_rows)


# ---------------------------------------------------------------------------
# MusicXML builder (parser-independent)

def _note_xml(ev: dict, divisions: int) -> str:
    bits = ["<note>"]
    if ev.get("grace"):
        bits.append("<grace/>")
    if ev.get("chord"):
        bits.append("<chord/>")
    if ev.get("kind", "note") == "rest":
        bits.append("<rest/>")
    else:
        alter = ev.get("alter", 0)
        alter_xml = f"<alter>{alter}</alter>" if alter else ""
        bits.append(
            f"<pitch><step>{ev['step']}</step>{alter_xml}"
            f"<octave>{ev.get('octave', 4)}</octave></pitch>"
        )
    if not ev.get("grace"):
        bits.append(f"<duration>{ev['dur']}</duration>")
    for t in ("start", "stop"):
        if ev.get("tie") == t or (ev.get("tie") == "continue" and t in ("start", "stop")):
            bits.append(f'<tie type="{t}"/>')
    bits.extend("<dot/>" for _ in range(ev.get("dots", 0)))
    if "lyric" in ev and ev["lyric"] is not None:
        text, syllabic = ev["lyric"] if isinstance(ev["lyric"], tuple) else (ev["lyric"], "single")
        bits.append(
            f"<lyric><syllabic>{syllabic}</syllabic><text>{escape(text)}</text></lyric>"
        )
    bits.append("</note>")
    return "".join(bits)


def musicxml_doc(parts, divisions=4, beats=4, beat_type=4, fifths=0,
                 tempo_words=None, tempo_bpm=None) -> bytes:
    """Build a score-partwise document.

    ``parts`` is a list of (name, measures) where measures is a list of
    measure event lists; each event is a dict (see _note_xml) with durations
    in divisions. An event dict may also carry {"dynamic": "p"} to emit a
    dynamics direction before the note.
    """
    score_parts = []
    bodies = []
    for pi, (name, measures) in enumerate(parts, start=1):
        pid = f"P{pi}"
        score_parts.append(
            f'<score-part id="{pid}"><part-name>{escape(name)}</part-name></score-part>'
        )
        measures_xml = []
        for mi, events in enumerate(measures, start=1):
            content = []
            if mi == 1:
                content.append(
                    f"<attributes><divisions>{divisions}</divisions>"
                    f"<key><fifths>{fifths}</fifths></key>"
                    f"<time><beats>{beats}</beats><beat-type>{beat_type}</beat-type></time>"
                    "</attributes>"
                )
                if pi == 1 and (tempo_words or tempo_bpm):
                    d = ["<direction><direction-type>"]
                    if tempo_words:
                        d.append(f"<words>{escape(tempo_words)}</words>")
                    if tempo_bpm:
                        d.append(
                            "<metronome><beat-unit>quarter</beat-unit>"
                            f"<per-minute>{tempo_bpm}</per-minute></metronome>"
                        )
                    d.append("</direction-type></direction>")
                    content.append("".join(d))
            for ev in events:
                if ev.get("dynamic"):
                    content.append(
                        "<direction><direction-type><dynamics>"
                        f"<{ev['dynamic']}/>"
                        "</dynamics></direction-type></direction>"
                    )
                content.append(_note_xml(ev, divisions))
            measures_xml.append(f'<measure number="{mi}">{"".join(content)}</measure>')
        bodies.append(f'<part id="{pid}">{"".join(measures_xml)}</part>')
    doc = (
        '<?xml version="1.0" encoding="UTF-8"?>'
        "<score-partwise version=\"3.1\">"
        f"<part-list>{''.join(score_parts)}</part-list>"
        f"{''.join(bodies)}"
        "</score-partwise>"
    )
    return doc.encode("utf-8")


def mxl_bytes(xml_bytes: bytes, rootname="score.musicxml", manifest=True) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        if manifest:
            zf.writestr(
                "META-INF/container.xml",
                "<container><rootfiles>"
                f'<rootfile full-path="{rootname}"/>'
                "</rootfiles></container>",
            )
        zf.writestr(rootname, xml_bytes)
    return buf.getvalue()


_STEPS = "CDEFGAB"
_STEP_SEMIS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


def random_musicxml(rng: random.Random, max_parts=3, max_measures=6):
    """Random well-formed MusicXML plus its expected note inventory.

    Measures are exactly filled in 4/4; returns (xml bytes, expected) where
    expected[part_index] is a list of (midi, duration_quarters) per counted
    note in order.
    """
    divisions = 12  # supports sixteenths and eighth triplets
    measure_units = 4 * divisions
    n_parts = rng.randint(1, max_parts)
    n_measures = rng.randint(1, max_measures)
    names = rng.sample(
        ["Violin I", "Violin II", "Viola", "Oboe", "Soprano", "Cello", "Flute"], n_parts
    )
    parts = []
    expected = []
    for name in names:
        measures = []
        inventory = []
        for _ in range(n_measures):
            left = measure_units
            events = []
            while left > 0:
                candidates = [u for u in (3, 4, 6, 8, 12, 24, 48) if u <= left] or [left]
                dur = rng.choice(candidates)
                if rng.random() < 0.2:
                    events.append({"kind": "rest", "dur": dur})
                else:
                    step = rng.choice(_STEPS)
                    alter = rng.choice([-1, 0, 0, 0, 1])
                    octave = rng.randint(3, 5)
                    events.append(
                        {"step": step, "alter": alter, "octave": octave, "dur": dur}
                    )
                    midi = 12 * (octave + 1) + _STEP_SEMIS[step] + alter
                    inventory.append((midi, Fraction(dur, divisions)))
                left -= dur
            measures.append(events)
        parts.append((name, measures))
        expected.append(inventory)
    return musicxml_doc(parts, divisions=divisions), expected


def corpus_musicxml(rng: random.Random, n_measures=50) -> bytes:
    """One 4-part, ~50-measure score for the synthetic benchmark corpus."""
    parts = []
    for name in ("Violin I", "Violin II", "Viola", "Soprano"):
        measures = []
        for _ in range(n_measures):
            left = 16  # divisions=4 in 4/4
            events = []
            while left > 0:
                dur = rng.choice([u for u in (2, 4, 8) if u <= left] or [left])
                if rng.random() < 0.1:
                    events.append({"kind": "rest", "dur": dur})
                else:
                    ev = {
                        "step": rng.choice(_STEPS),
                        "alter": rng.choice([0, 0, 0, 1, -1]),
                        "octave": rng.randint(3, 5),
                        "dur": dur,
                    }
                    if name == "Soprano" and rng.random() < 0.5:
                        ev["lyric"] = ("la", "single")
                    events.append(ev)
                left -= dur
            measures.append(events)
        parts.append((name, measures))
    return musicxml_doc(parts, divisions=4, tempo_words="Allegro", tempo_bpm=120)


# ---------------------------------------------------------------------------
# Standard MIDI File builder (importer-independent)

def _vlq(n: int) -> bytes:
    chunks = [n & 0x7F]
    n >>= 7
    while n:
        chunks.append((n & 0x7F) | 0x80)
        n >>= 7
    return bytes(reversed(chunks))


def midi_track(events) -> bytes:
    """Encode absolute-tick events; each is (tick, payload bytes)."""
    out = bytearray()
    last = 0
    for tick, payload in sorted(events, key=lambda e: e[0]):
        out += _vlq(tick - last)
        out += payload
        last = tick
    out += _vlq(0) + b"\xff\x2f\x00"
    return bytes(out)


def midi_bytes(tracks, tpq=480, fmt=None) -> bytes:
    """Assemble an SMF; ``tracks`` is a list of absolute-event lists."""
    if fmt is None:
        fmt = 0 if len(tracks) == 1 else 1
    out = bytearray(b"MThd" + struct.pack(">IHHH", 6, fmt, len(tracks), tpq))
    for events in tracks:
        body = midi_track(events)
        out += b"MTrk" + struct.pack(">I", len(body)) + body
    return bytes(out)


def midi_note_events(notes, channel=0):
    """(tick_on, tick_off, pitch, velocity) tuples -> raw on/off events."""
    events = []
    for on, off, pitch, vel in notes:
        events.append((on, bytes([0x90 | channel, pitch, vel])))
        events.append((off, bytes([0x80 | channel, pitch, 0])))
    return events


def midi_meta_track(name=None, tempo_bpm=None, timesig=None, keysig=None):
    events = []
    if name is not None:
        data = name.encode("latin-1")
        events.append((0, bytes([0xFF, 0x03]) + _vlq(len(data)) + data))
    if tempo_bpm is not None:
        us = int(60_000_000 / tempo_bpm)
        events.append((0, bytes([0xFF, 0x51, 0x03]) + us.to_bytes(3, "big")))
    if timesig is not None:
        num, den = timesig
        dd = den.bit_length() - 1
        events.append((0, bytes([0xFF, 0x58, 0x04, num, dd, 24, 8])))
    if keysig is not None:
        sf, mi = keysig
        events.append((0, bytes([0xFF, 0x59, 0x02]) + struct.pack(">bB", sf, mi)))
    return events


# ---------------------------------------------------------------------------
# random direct-model scores for the oracle-equivalence suite

_SOUNDS = ["violin", "viola", "cello", "oboe", "flute", "soprano", "horn"]


def random_model_score(rng: random.Random, max_parts=4, max_measures=8,
                       ties_across_barlines=False) -> Score:
    """A random score built directly in the model. A tie chain stays inside
    its measure unless ``ties_across_barlines`` lets it run on into the next."""
    n_measures = rng.randint(1, max_measures)
    n_parts = rng.randint(1, max_parts)
    parts = []
    used = set()
    for _ in range(n_parts):
        sound = rng.choice(_SOUNDS)
        ordinal = 1
        while (sound, ordinal) in used:
            ordinal += 1
        used.add((sound, ordinal))
        events = []
        open_tie = None
        for mi in range(1, n_measures + 1):
            base = Fraction(4 * (mi - 1))
            pos = Fraction(0)
            if not ties_across_barlines:
                open_tie = None
            while pos < 4:
                dur = Fraction(rng.choice([1, 1, 2, 4]), rng.choice([1, 2]))
                dur = min(dur, 4 - pos)
                onset = base + pos
                roll = rng.random()
                if open_tie is not None:
                    step, alter, octave = open_tie
                    closing = rng.random() < 0.7
                    events.append(note(step, octave, alter, onset=onset, dur=dur,
                                       measure=mi, tie="stop" if closing else "continue"))
                    if closing:
                        open_tie = None
                elif roll < 0.15:
                    events.append(rest(onset=onset, dur=dur, measure=mi))
                else:
                    step = rng.choice(_STEPS)
                    alter = rng.choice([-1, 0, 0, 1])
                    octave = rng.randint(3, 5)
                    dots = 1 if dur == Fraction(3, 2) else 0
                    lyric = None
                    if sound == "soprano" and rng.random() < 0.7:
                        lyric = ("la", rng.choice(["single", "begin"]))
                    tie = "none"
                    if rng.random() < 0.12 and (ties_across_barlines or pos + dur < 4):
                        tie = "start"
                        open_tie = (step, alter, octave)
                    events.append(note(step, octave, alter, onset=onset, dur=dur,
                                       measure=mi, tie=tie, dots=dots, lyric=lyric))
                    if rng.random() < 0.1:  # chord notehead at the same onset
                        events.append(note(rng.choice(_STEPS), octave - 1, 0,
                                           onset=onset, dur=dur, measure=mi))
                pos += dur
        dyn = []
        if rng.random() < 0.5:
            dyn.append((0, rng.choice(["p", "mf", "f"])))
        parts.append(part(events, sound=sound, ordinal=ordinal,
                          measures=n_measures, dynamics=dyn))
    return score(parts, measures=n_measures, source=f"rand{rng.randint(0, 10**6)}")
