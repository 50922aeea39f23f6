"""Seeded input corpus for the benchmark, with the facts the checks need.

The corpus is built here, independently of the package under test, so the
output checks have an oracle: for every score the generator knows its
measure count and how many notes each part holds in each measure.

The structure of a corpus (which files exist, how many measures each score
has, which scores carry a harmony sidecar, which inputs are broken) depends
only on its size, never on the seed, so every seed asks for the same amount
of work. The seed picks the content: pitches, durations, keys, tempi,
velocities and timing jitter.

Inputs:

* MusicXML scores shaped like ``tests/util.corpus_musicxml``: Violin I,
  Violin II, Viola and Soprano in 4/4, divisions 4, 40-56 measures; the
  document bytes match that fixture for the same random stream. Every
  third score also carries ``<print>`` layout elements, which the parser
  skips and tallies.
* Harmony sidecars (``<stem>.harmony.tsv``) for every other MusicXML score,
  with local-key changes and applied chords.
* Standard MIDI files, format 1: a conductor track with tempo, key and
  time-signature meta events, then four instrument tracks with program
  changes, varied velocities and onsets jittered off the 1/4-quarter grid
  by less than half a grid step, so quantization snaps them back.
* A fixed handful of inputs that no correct parser accepts: a truncated
  MusicXML file, a ``.mid`` file that is not an SMF, and a sidecar whose
  header names the wrong columns.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

XML_DIR = "scores"
HARMONY_DIR = "harmony"
HARMONY_SUFFIX = ".harmony.tsv"

# (part name in the document, part identifier in the output columns)
XML_PARTS = (
    ("Violin I", "ViolinI"),
    ("Violin II", "ViolinII"),
    ("Viola", "ViolaI"),
    ("Soprano", "SopranoI"),
)
# (GM program, part identifier in the output columns)
MIDI_TRACKS = ((40, "ViolinI"), (41, "ViolaI"), (73, "FluteI"), (71, "ClarinetI"))
MIDI_TPQ = 480
MIDI_GRID_TICKS = MIDI_TPQ // 4  # the importer's default grid is 1/4 quarter
MIDI_MEASURES = 48

_STEPS = "CDEFGAB"

_KEYS = ("C", "G", "D", "F", "Bb", "a", "e", "d", "g")
_LABELS = ("I", "IV", "V", "V7", "vi", "ii6", "ii65", "I64", "viio", "iii",
           "V7/V", "V65/IV", "viio7/V", "V43/vi", "V7/ii", "bVI", "IV6", "vi7")

BROKEN_XML = f"{XML_DIR}/broken_truncated.musicxml"
BROKEN_MIDI = f"{XML_DIR}/broken_not_smf.mid"


@dataclass
class ScoreFacts:
    """What the generator knows about one score that should parse."""

    path: str  # relative to the corpus root
    stem: str
    kind: str  # "musicxml" or "midi"
    num_measures: int
    # part identifier -> notes per measure (index 0 is measure 1)
    notes: dict[str, list[int]]
    annotations: int = 0  # harmony sidecar rows, 0 without a sidecar
    skipped_elements: int = 0  # layout elements the parser should skip


@dataclass
class Corpus:
    """Every input file as bytes, plus the facts the output checks use."""

    files: dict[str, bytes] = field(default_factory=dict)
    scores: list[ScoreFacts] = field(default_factory=list)
    # relative path -> engine stage that must report it as failed
    planted_failures: dict[str, str] = field(default_factory=dict)

    @property
    def input_files(self) -> int:
        """Score files plus sidecars: every file the extractor opens."""
        return len(self.files)

    @property
    def input_bytes(self) -> int:
        return sum(len(b) for b in self.files.values())

    def write(self, root: Path) -> None:
        for rel, data in sorted(self.files.items()):
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)


# ---------------------------------------------------------------------------
# MusicXML


def _note_xml(ev: dict) -> str:
    bits = ["<note>"]
    if ev.get("kind") == "rest":
        bits.append("<rest/>")
    else:
        alter = ev["alter"]
        alter_xml = f"<alter>{alter}</alter>" if alter else ""
        bits.append(
            f"<pitch><step>{ev['step']}</step>{alter_xml}"
            f"<octave>{ev['octave']}</octave></pitch>"
        )
    bits.append(f"<duration>{ev['dur']}</duration>")
    if ev.get("lyric"):
        text, syllabic = ev["lyric"]
        bits.append(f"<lyric><syllabic>{syllabic}</syllabic><text>{escape(text)}</text></lyric>")
    bits.append("</note>")
    return "".join(bits)


def _musicxml_doc(parts, tempo_words: str, tempo_bpm: int) -> bytes:
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
                    "<attributes><divisions>4</divisions><key><fifths>0</fifths></key>"
                    "<time><beats>4</beats><beat-type>4</beat-type></time></attributes>"
                )
                if pi == 1:
                    content.append(
                        "<direction><direction-type>"
                        f"<words>{escape(tempo_words)}</words>"
                        "<metronome><beat-unit>quarter</beat-unit>"
                        f"<per-minute>{tempo_bpm}</per-minute></metronome>"
                        "</direction-type></direction>"
                    )
            content.extend(_note_xml(ev) for ev in events)
            measures_xml.append(f'<measure number="{mi}">{"".join(content)}</measure>')
        bodies.append(f'<part id="{pid}">{"".join(measures_xml)}</part>')
    doc = (
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<score-partwise version="3.1">'
        f"<part-list>{''.join(score_parts)}</part-list>"
        f"{''.join(bodies)}"
        "</score-partwise>"
    )
    return doc.encode("utf-8")


def musicxml_score(rng: random.Random,
                   n_measures: int = 50) -> tuple[bytes, dict[str, list[int]]]:
    """One 4-part score and its notes per part per measure.

    Consumes ``rng`` exactly as ``tests/util.corpus_musicxml`` does, and
    gives the same document bytes.
    """
    parts = []
    notes: dict[str, list[int]] = {}
    for name, part_id in XML_PARTS:
        measures = []
        counts = []
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
            counts.append(sum(1 for ev in events if ev.get("kind") != "rest"))
        parts.append((name, measures))
        notes[part_id] = counts
    return _musicxml_doc(parts, "Allegro", 120), notes


def _add_layout_elements(doc: bytes, n_measures: int) -> tuple[bytes, int]:
    """Open every 8th measure of the first part with a ``<print>`` element."""
    text = doc.decode("utf-8")
    first_part_end = text.index("</part>")
    head, tail = text[:first_part_end], text[first_part_end:]
    added = 0
    for mi in range(8, n_measures + 1, 8):
        tag = f'<measure number="{mi}">'
        head = head.replace(tag, tag + '<print new-system="yes"/>', 1)
        added += 1
    return (head + tail).encode("utf-8"), added


def harmony_sidecar(rng: random.Random, n_measures: int) -> tuple[bytes, int]:
    """A Roman-numeral TSV with a key change every 6-12 measures."""
    lines = ["measure\tbeat\tlabel\tkey"]
    key = rng.choice(_KEYS)
    next_change = rng.randint(6, 12)
    for mi in range(1, n_measures + 1):
        if mi == next_change:
            key = rng.choice([k for k in _KEYS if k != key])
            next_change += rng.randint(6, 12)
        beats = ("0", "2") if rng.random() < 0.6 else ("0",)
        for beat in beats:
            lines.append(f"{mi}\t{beat}\t{rng.choice(_LABELS)}\t{key}")
    return ("\n".join(lines) + "\n").encode("utf-8"), len(lines) - 1


# ---------------------------------------------------------------------------
# Standard MIDI files


def _vlq(n: int) -> bytes:
    chunks = [n & 0x7F]
    n >>= 7
    while n:
        chunks.append((n & 0x7F) | 0x80)
        n >>= 7
    return bytes(reversed(chunks))


def _track(events: list[tuple[int, bytes]]) -> bytes:
    """Encode absolute-tick (tick, payload) events as an MTrk chunk."""
    body = bytearray()
    last = 0
    for tick, payload in sorted(events, key=lambda e: e[0]):
        body += _vlq(tick - last) + payload
        last = tick
    body += _vlq(0) + b"\xff\x2f\x00"
    return b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def midi_score(rng: random.Random,
               n_measures: int = MIDI_MEASURES) -> tuple[bytes, dict[str, list[int]]]:
    """A format-1 SMF with a conductor track and four monophonic tracks."""
    bpm = rng.randint(60, 150)
    us = 60_000_000 // bpm
    fifths = rng.randint(-4, 4)
    conductor = [
        (0, b"\xff\x51\x03" + us.to_bytes(3, "big")),
        (0, bytes([0xFF, 0x58, 0x04, 4, 2, 24, 8])),
        (0, b"\xff\x59\x02" + struct.pack(">bB", fifths, 0)),
    ]
    tracks = [_track(conductor)]
    notes: dict[str, list[int]] = {}
    grid = MIDI_GRID_TICKS
    measure_ticks = 4 * MIDI_TPQ
    for ch, (program, part_id) in enumerate(MIDI_TRACKS):
        low = 48 + 7 * ch
        events = [(0, bytes([0xC0 | ch, program]))]
        counts = []
        for mi in range(n_measures):
            pos = 0
            count = 0
            while pos < 16:  # grid steps per 4/4 measure
                steps = min(rng.choice((2, 4, 4, 8)), 16 - pos)
                if rng.random() >= 0.15:
                    start = mi * measure_ticks + pos * grid
                    end = start + steps * grid
                    # Onsets land late and releases early, each by less than
                    # half a grid step, so both snap back to the grid and a
                    # release never reaches the next onset.
                    on = start + rng.randint(0, grid // 5)
                    off = end - rng.randint(grid // 12, grid // 4)
                    pitch = low + rng.randint(0, 19)
                    velocity = rng.randint(30, 120)
                    events.append((on, bytes([0x90 | ch, pitch, velocity])))
                    events.append((off, bytes([0x80 | ch, pitch, 0])))
                    count += 1
                pos += steps
            counts.append(count)
        tracks.append(_track(events))
        notes[part_id] = counts
    header = b"MThd" + struct.pack(">IHHH", 6, 1, len(tracks), MIDI_TPQ)
    return header + b"".join(tracks), notes


# ---------------------------------------------------------------------------
# corpus assembly


def xml_measures(index: int) -> int:
    """Measure count of the index-th MusicXML score, fixed for every seed."""
    return 40 + (index * 7) % 17


def build_corpus(seed: int, n_xml: int, n_midi: int) -> Corpus:
    """``n_xml`` MusicXML scores, ``n_midi`` MIDI files and the broken inputs."""
    corpus = Corpus()
    for i in range(n_xml):
        rng = random.Random(f"scorefeat-bench/{seed}/xml/{i}")
        stem = f"score_{i:03d}"
        rel = f"{XML_DIR}/{stem}.musicxml"
        n_measures = xml_measures(i)
        doc, notes = musicxml_score(rng, n_measures)
        facts = ScoreFacts(rel, stem, "musicxml", n_measures, notes)
        if i % 3 == 2:
            doc, facts.skipped_elements = _add_layout_elements(doc, n_measures)
        if i % 2 == 0:
            tsv, facts.annotations = harmony_sidecar(rng, n_measures)
            corpus.files[f"{HARMONY_DIR}/{stem}{HARMONY_SUFFIX}"] = tsv
        corpus.files[rel] = doc
        corpus.scores.append(facts)
    for j in range(n_midi):
        rng = random.Random(f"scorefeat-bench/{seed}/midi/{j}")
        stem = f"piece_{j:03d}"
        rel = f"{XML_DIR}/{stem}.mid"
        data, notes = midi_score(rng)
        corpus.files[rel] = data
        corpus.scores.append(ScoreFacts(rel, stem, "midi", MIDI_MEASURES, notes))

    rng = random.Random(f"scorefeat-bench/{seed}/broken")
    whole, _ = musicxml_score(rng, 8)
    corpus.files[BROKEN_XML] = whole[: len(whole) * 3 // 5]
    corpus.files[BROKEN_MIDI] = b"RIFF" + rng.randbytes(60)
    corpus.planted_failures = {BROKEN_XML: "parse", BROKEN_MIDI: "parse"}

    # A sidecar with the wrong header for the first score that has none: the
    # score keeps its row, the sidecar gets a failure entry.
    bare = next(s for s in corpus.scores if s.kind == "musicxml" and not s.annotations)
    bad_sidecar = f"{HARMONY_DIR}/{bare.stem}{HARMONY_SUFFIX}"
    corpus.files[bad_sidecar] = b"bar\tpos\tchord\ttonality\n1\t0\tI\tC\n"
    corpus.planted_failures[bad_sidecar] = "harmony"
    return corpus
