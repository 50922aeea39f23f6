"""Content-addressed disk cache for parsed scores.

Entries live at ``<cache_dir>/<2-char key prefix>/<key>.score``: a magic
header, then one JSON document of plain data. It holds a format version, the
hooks that shaped the score (name and qualified function name each), its
parse's diagnostics, and the score with one row of ints and strings per
event. Loading runs no code from the entry: the score is rebuilt through the
model's constructors, so their checks run on cached data too, and anything
unreadable or invalid is a miss, so corruption can never be fatal. Writes go
through a temp file and rename, so concurrent workers never observe partial
entries.
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
from typing import Optional, Sequence

from .diagnostics import ParseDiagnostics
from .harmony import HarmonicAnnotation
from .model import Lyric, NoteEvent, Part, Score, SpelledPitch, TempoMark, spelled_pitch
from .registry import get_hook

log = logging.getLogger(__name__)

CACHE_MAGIC = b"MSF4"
FORMAT_VERSION = 1


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
    pitches: dict[tuple, int] = {}  # (step, alter, octave) -> row of the pitch table

    def row(e: NoteEvent) -> list:
        p = e.pitch
        pitch = None if p is None else pitches.setdefault((p.step, p.alter, p.octave), len(pitches))
        lyric = None if e.lyric is None else (e.lyric.text, e.lyric.syllabic)
        return [e.kind, e.onset, e.duration, e.measure_index, pitch, e.tie, e.dots, lyric, e.grace]

    annotations = score.annotations
    score_doc = _fields(
        score,
        parts=[_fields(p, events=[row(e) for e in p.events]) for p in score.parts],
        tempo_marks=[_fields(t) for t in score.tempo_marks],
        annotations=None if annotations is None else [
            _fields(a, beat=str(a.beat)) for a in annotations],
    )
    return {"version": FORMAT_VERSION, "hooks": _hook_identities(hooks),
            "warnings": diags.warnings, "skipped": diags.skipped_elements,
            "pitches": list(pitches), "score": score_doc}


def _decode_score(doc: dict, pitches: list[SpelledPitch]) -> Score:
    """The score of an entry, rebuilt through the model's constructors so
    that their checks run on what was read."""
    parts = tuple(
        Part(**{**p, "events": tuple(
            NoteEvent(kind, onset, duration, measure, None if pitch is None else pitches[pitch],
                      tie, dots, None if lyric is None else Lyric(*lyric), grace)
            for kind, onset, duration, measure, pitch, tie, dots, lyric, grace in p["events"]
        ), "dynamic_marks": tuple((pos, token) for pos, token in p["dynamic_marks"])})
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
    cache_dir: Path, key: str, hooks: Sequence[str]
) -> Optional[tuple[Score, ParseDiagnostics]]:
    """Cached (score, diagnostics), or None on miss or any kind of corruption.

    An entry written under other ``hooks`` than these (names, in order, and
    the qualified names of the functions registered under them) is a miss too.
    """
    target = cache_path(cache_dir, key)
    try:
        payload = target.read_bytes()
    except OSError:
        return None
    if payload[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        log.warning("cache entry %s has a bad header; reparsing", target)
        return None
    wanted_hooks = _hook_identities(hooks)
    try:
        doc = json.loads(payload[len(CACHE_MAGIC) :])
        if doc["version"] != FORMAT_VERSION:
            raise ValueError(f"format version {doc['version']!r}")
        if tuple(map(tuple, doc["hooks"])) != wanted_hooks:
            return None
        skipped = doc["skipped"]
        if type(skipped) is not dict or not all(type(n) is int for n in skipped.values()):
            raise TypeError("skipped-element tallies must map names to ints")
        diags = ParseDiagnostics([(loc, msg) for loc, msg in doc["warnings"]], Counter(skipped))
        pitches = [spelled_pitch(*pitch) for pitch in doc["pitches"]]
        score = _decode_score(doc["score"], pitches)
    # bad JSON or bytes, missing keys, rows of the wrong shape or type, values
    # the model's constructors reject, a zero denominator, too deep a nesting
    except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError,
            RecursionError) as exc:
        log.warning("cache entry %s is unreadable (%s); reparsing", target, exc)
        return None
    return score, diags
