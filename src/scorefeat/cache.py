"""Content-addressed disk cache for parsed scores.

Entries live at ``<cache_dir>/<2-char key prefix>/<key>.score``: a magic
header, then one JSON document of plain data. It holds a format version, the
hooks that shaped the score (name and qualified function name each), its
parse's diagnostics, a table of the pitches it spells, and the score, whose
parts keep their events as one array per ``NoteEvent`` field (a pitch is a
row of the pitch table). A column whose values are all equal and of one type
is stored as one value, which a load repeats to the length of the part's
``onset`` column, always stored in full; so a load never builds more than an
entry holds. Loading runs no code from the entry: the score is
rebuilt through the model's constructors, so their checks run on cached data
too. An entry of another format version is a quiet miss, and anything
unreadable or invalid is a miss with a warning, so corruption can never be
fatal; the reparse overwrites either. Writes go through a temp file and
rename, so concurrent workers never observe partial entries.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
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
FORMAT_VERSION = 3


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


def _encode(hooks: Sequence[str], score: Score, diags: ParseDiagnostics) -> dict:
    # (step, alter, octave) -> row of the pitch table, and None (no pitch) -> None
    pitches: dict = {None: None}

    def columns(events: EventColumns) -> dict:
        keys = [None if p is None else (p.step, p.alter, p.octave) for p in events.pitch]
        for key in keys:
            pitches.setdefault(key, len(pitches) - 1)
        doc = _fields(events, pitch=list(map(pitches.__getitem__, keys)), lyric=[
            None if lyric is None else (lyric.text, lyric.syllabic) for lyric in events.lyric])
        for name, column in doc.items():
            # one type too, so that 0 and False, or 1 and 1.0, never merge
            if (name != "onset" and len(column) > 1 and column.count(column[0]) == len(column)
                    and len(set(map(type, column))) == 1):
                doc[name] = column[:1]
        return doc

    annotations = score.annotations
    score_doc = _fields(
        score,
        parts=[_fields(p, events=columns(p.events)) for p in score.parts],
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


def _decode_events(doc: dict, pitches: dict) -> EventColumns:
    """A part's event columns. A column of one value is repeated to the
    length of the ``onset`` column; ``EventColumns`` rejects any other
    length that differs from it."""
    columns = {name: tuple(doc[name]) for name in _EVENT_COLUMNS}
    columns["pitch"] = tuple(map(pitches.__getitem__, columns["pitch"]))
    lyrics = columns["lyric"]
    if lyrics.count(None) != len(lyrics):
        columns["lyric"] = tuple(None if lyric is None else Lyric(*lyric) for lyric in lyrics)
    n = len(columns["onset"])
    return EventColumns(**{name: column * n if len(column) == 1 else column
                           for name, column in columns.items()})


def _decode_score(doc: dict, pitches: dict) -> Score:
    """The score of an entry, rebuilt through the model's constructors so
    that their checks run on what was read. ``pitches`` maps each row of the
    pitch table, and None, to its pitch."""
    parts = tuple(
        Part(**{**p, "events": _decode_events(p["events"], pitches),
                "dynamic_marks": tuple((pos, token) for pos, token in p["dynamic_marks"])})
        for p in doc["parts"]
    )
    annotations = doc["annotations"]
    return Score(**{
        **doc,
        "parts": parts,
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
    registered hooks, in order, that were run on ``score`` after it."""
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
        pitches = {None: None, **dict(enumerate(map(_decode_pitch, doc["pitches"])))}
        score = _decode_score(doc["score"], pitches)
    # bad JSON or bytes, missing keys, columns of the wrong shape or type,
    # values the model's constructors reject, a zero denominator, too deep a
    # nesting
    except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError,
            RecursionError) as exc:
        log.warning("cache entry %s is unreadable (%s); reparsing", target, exc)
        if report is not None:
            report.add_warning(target, f"cache entry is unreadable ({exc}); reparsing")
        return None
    return score, diags
