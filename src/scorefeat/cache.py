"""Content-addressed disk cache for parsed scores.

Entries live at ``<cache_dir>/<2-char key prefix>/<key>.score``: a magic
header, then one JSON document of plain data. It holds a format version, the
hooks that shaped the score (name and qualified function name each), its
parse's diagnostics, a table of the pitches it spells, and the score, whose
parts keep their events as one array per ``NoteEvent`` field (a pitch is a
row of the pitch table, -1 for none). The integer columns (``onset``,
``duration``, ``measure_index``, ``pitch``) and a part's dynamic mark
positions are packed: ``[type code, base64 text]`` of their little-endian
bytes in the narrowest of the ``struct`` codes ``b``/``h``/``i``/``q`` that
holds them, so a load decodes each with one ``b64decode`` and one
``struct.unpack``; only exact ints inside int64 can be packed. A column
whose values are all equal and of one type is stored as one value, which a
load repeats to the length of the part's ``onset`` column, always stored in
full; so a load never builds more than an entry holds. Loading runs no code
from the entry: the score is rebuilt through the model's constructors, so
their checks run on cached data too. An entry of another format version is
a quiet miss, and anything unreadable or invalid is a miss with a warning, so
corruption can never be fatal; the reparse overwrites either. Writes go
through a temp file and rename, so concurrent workers never observe partial
entries.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
import tempfile
from base64 import b64decode, b64encode
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .diagnostics import ParseDiagnostics
from .harmony import HarmonicAnnotation
from .model import EventColumns, Lyric, Part, Score, SpelledPitch, TempoMark, spelled_pitch
from .registry import get_hook

if TYPE_CHECKING:
    from .engine import RunReport

log = logging.getLogger(__name__)

CACHE_MAGIC = b"MSF4"
FORMAT_VERSION = 4

# Packed type codes and their bytes per value, ``struct``'s standard sizes
# under ``<``, which also makes an entry little-endian on every host.
_WIDTHS = {"b": 1, "h": 2, "i": 4, "q": 8}
_INT = {int}
_PACKED = ("onset", "duration", "measure_index", "pitch")


def cache_key(source_bytes: bytes, parser_id: str, parser_version: str) -> str:
    """Stable hex content hash over the input bytes and parser identity."""
    h = hashlib.sha256()
    h.update(parser_id.encode("utf-8"))
    h.update(b"\x00")
    h.update(parser_version.encode("utf-8"))
    h.update(b"\x00")
    h.update(source_bytes)
    return h.hexdigest()


def cache_path(cache_dir: Path, key: str) -> Path:
    return Path(cache_dir) / key[:2] / f"{key}.score"


def _hook_identities(hooks: Sequence[str]) -> tuple[tuple[str, str], ...]:
    """(name, ``module.qualname`` of the registered function) per hook.

    A callable without ``__qualname__``, such as a ``functools.partial`` or a
    class instance, is known by its type's qualified name."""
    fns = [get_hook(name) for name in hooks]
    return tuple((name, f"{fn.__module__}.{getattr(fn, '__qualname__', type(fn).__qualname__)}")
                 for name, fn in zip(hooks, fns))


def _fields(obj, **override) -> dict:
    """A dataclass's fields by name, with ``override`` in place of some."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)} | override


def _pack(values) -> list:
    """``[type code, base64 text]`` of the ints ``values``, little-endian in
    the narrowest packed code. A value outside int64 raises ``TypeError``."""
    low, high = min(values, default=0), max(values, default=0)
    code = next((code for code, width in _WIDTHS.items()
                 if -(1 << 8 * width - 1) <= low and high < 1 << 8 * width - 1), None)
    if code is None:
        raise TypeError(f"a packed column holds int64 values only, not {low}..{high}")
    return [code, b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")]


def _unpack(doc) -> tuple[int, ...]:
    """The values of a packed column; an unknown type code, bad base64 or a
    byte length that is not a whole number of values raise ``ValueError``."""
    code, text = doc
    if code not in _WIDTHS:
        raise ValueError(f"unknown type code {code!r}")
    packed = b64decode(text, validate=True)
    count, rest = divmod(len(packed), _WIDTHS[code])
    if rest:
        raise ValueError(f"{len(packed)} bytes are no whole number of {code!r} values")
    return struct.unpack(f"<{count}{code}", packed)


def _encode(hooks: Sequence[str], score: Score, diags: ParseDiagnostics) -> dict:
    # (step, alter, octave) -> row of the pitch table, and None (no pitch) -> -1
    pitches: dict = {None: -1}

    def columns(events: EventColumns) -> dict:
        keys = [None if p is None else (p.step, p.alter, p.octave) for p in events.pitch]
        for key in dict.fromkeys(keys):  # in order of first use
            pitches.setdefault(key, len(pitches) - 1)
        lyric = events.lyric
        if lyric.count(None) != len(lyric):
            lyric = [None if row is None else (row.text, row.syllabic) for row in lyric]
        doc = _fields(events, pitch=list(map(pitches.__getitem__, keys)), lyric=lyric)
        for name, column in doc.items():
            # one type too, so that 0 and False, or 1 and 1.0, never merge
            if (name != "onset" and len(column) > 1 and column.count(column[0]) == len(column)
                    and len(set(map(type, column))) == 1):
                doc[name] = column[:1]
        # the model holds onsets, durations and mark positions to exact ints, not measures
        if not _INT.issuperset(map(type, events.measure_index)):
            raise TypeError("measure indices must be ints")
        for name in _PACKED:
            doc[name] = _pack(doc[name])
        return doc

    def part(p: Part) -> dict:
        marks = p.dynamic_marks
        return _fields(p, events=columns(p.events), dynamic_marks=[
            _pack([pos for pos, _ in marks]), [token for _, token in marks]])

    annotations = score.annotations
    score_doc = _fields(
        score,
        parts=list(map(part, score.parts)),
        tempo_marks=[_fields(t) for t in score.tempo_marks],
        annotations=None if annotations is None else [
            _fields(a, beat=str(a.beat)) for a in annotations],
    )
    return {"version": FORMAT_VERSION, "hooks": _hook_identities(hooks),
            "warnings": diags.warnings, "skipped": diags.skipped_elements,
            "pitches": list(pitches)[1:], "score": score_doc}


_EVENT_COLUMNS = tuple(f.name for f in fields(EventColumns))


def _decode_pitch(row) -> SpelledPitch:
    """The interned pitch of a row of the pitch table, which must be one a
    parse can give: ints for alter and octave, and, as ``spelled_pitch``
    checks, a MIDI number in 0..127."""
    step, alter, octave = row
    if type(alter) is not int or type(octave) is not int:
        raise TypeError(f"pitch {row!r}: alter and octave must be ints")
    return spelled_pitch(step, alter, octave)


def _decode_events(doc: dict, pitches: dict, lyrics: dict) -> EventColumns:
    """A part's event columns. A column of one value is repeated to the
    length of the ``onset`` column; ``EventColumns`` rejects any other
    length that differs from it. ``pitches`` maps each row of the pitch
    table to its pitch, and -1 to None; ``lyrics`` maps each (text,
    syllabic) read so far in the entry to its ``Lyric``."""
    columns = {name: _unpack(doc[name]) if name in _PACKED else tuple(doc[name])
               for name in _EVENT_COLUMNS}
    columns["pitch"] = tuple(map(pitches.__getitem__, columns["pitch"]))
    column = columns["lyric"]
    if column.count(None) != len(column):
        keys = [None if row is None else tuple(row) for row in column]
        for key in set(keys).difference(lyrics):
            lyrics[key] = Lyric(*key)
        columns["lyric"] = tuple(map(lyrics.__getitem__, keys))
    n = len(columns["onset"])
    return EventColumns(**{name: column * n if len(column) == 1 else column
                           for name, column in columns.items()})


def _decode_part(doc: dict, pitches: dict, lyrics: dict) -> Part:
    """A part of an entry, whose marks are packed positions beside tokens."""
    positions, tokens = doc["dynamic_marks"]
    positions = _unpack(positions)
    if len(positions) != len(tokens):
        raise ValueError("dynamic mark positions and tokens differ in length")
    return Part(**{**doc, "events": _decode_events(doc["events"], pitches, lyrics),
                   "dynamic_marks": tuple(zip(positions, tokens))})


def _decode_score(doc: dict, pitches: dict) -> Score:
    """The score of an entry, rebuilt through the model's constructors so
    that their checks run on what was read. ``pitches`` maps each row of the
    pitch table, and -1, to its pitch."""
    lyrics = {None: None}
    annotations = doc["annotations"]
    return Score(**{
        **doc,
        "parts": tuple(_decode_part(p, pitches, lyrics) for p in doc["parts"]),
        "time_signatures": tuple((m, num, den) for m, num, den in doc["time_signatures"]),
        "measure_offsets": tuple(doc["measure_offsets"]),
        "tempo_marks": tuple(TempoMark(**t) for t in doc["tempo_marks"]),
        "annotations": None if annotations is None else tuple(
            HarmonicAnnotation(**{**a, "beat": Fraction(a["beat"])}) for a in annotations),
    })


def store_score(
    cache_dir: Path, key: str, score: Score, diags: ParseDiagnostics, hooks: Sequence[str]
) -> None:
    """Atomic write: temp file in the target directory, then rename.

    ``diags`` is what the parse of ``score`` reported; ``hooks`` names the
    registered hooks, in order, that were run on ``score`` after it. A value
    that JSON or a packed column cannot hold raises ``TypeError``."""
    document = json.dumps(_encode(hooks, score, diags), separators=(",", ":"))
    payload = CACHE_MAGIC + document.encode("utf-8")
    target = cache_path(cache_dir, key)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_score(
    cache_dir: Path, key: str, hooks: Sequence[str], report: Optional[RunReport] = None
) -> Optional[tuple[Score, ParseDiagnostics]]:
    """Cached (score, diagnostics), or None on miss or any kind of corruption.

    An entry of another format version, or one written under other ``hooks``
    than these (names, in order, and the qualified names of the functions
    registered under them), is a quiet miss. A corrupt entry is a miss that
    is logged and, given ``report``, warned of there with the entry's path.
    """
    target = cache_path(cache_dir, key)
    try:
        payload = target.read_bytes()
    except OSError:
        return None
    wanted_hooks = _hook_identities(hooks)
    try:
        if payload[: len(CACHE_MAGIC)] != CACHE_MAGIC:
            raise ValueError("bad header")
        doc = json.loads(payload[len(CACHE_MAGIC) :])
        if doc["version"] != FORMAT_VERSION:
            return None
        if tuple(map(tuple, doc["hooks"])) != wanted_hooks:
            return None
        skipped = doc["skipped"]
        if type(skipped) is not dict or not all(type(n) is int for n in skipped.values()):
            raise TypeError("skipped-element tallies must map names to ints")
        diags = ParseDiagnostics([(loc, msg) for loc, msg in doc["warnings"]], Counter(skipped))
        pitches = {-1: None, **dict(enumerate(map(_decode_pitch, doc["pitches"])))}
        score = _decode_score(doc["score"], pitches)
    # bad JSON, base64 or bytes, missing keys or pitch rows, columns of the
    # wrong shape or type, values the model's constructors reject, a zero
    # denominator, too deep a nesting
    except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError,
            RecursionError) as exc:
        log.warning("cache entry %s is unreadable (%s); reparsing", target, exc)
        if report is not None:
            report.add_warning(target, f"cache entry is unreadable ({exc}); reparsing")
        return None
    return score, diags
