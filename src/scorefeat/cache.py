"""Content-addressed disk cache for parsed scores.

Entries live at ``<cache_dir>/<2-char key prefix>/<key>.score`` and carry a
magic header plus format version, then the hooks that shaped the score (name
and qualified function name each), the score itself and its parse's
diagnostics; anything unreadable is treated as a miss so corruption can never
be fatal. Writes go through a temp file and rename, so concurrent workers
never observe partial entries.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from .diagnostics import ParseDiagnostics
from .model import Score
from .registry import get_hook

log = logging.getLogger(__name__)

CACHE_MAGIC = b"MSF3"


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


def store_score(
    cache_dir: Path, key: str, score: Score, diags: ParseDiagnostics, hooks: Sequence[str]
) -> None:
    """Atomic write: temp file in the target directory, then rename.

    ``diags`` is what the parse of ``score`` reported; ``hooks`` names the
    registered hooks, in order, that were run on ``score`` after it."""
    target = cache_path(cache_dir, key)
    target.parent.mkdir(parents=True, exist_ok=True)
    entry = (_hook_identities(hooks), score, diags)
    payload = CACHE_MAGIC + pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
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
    try:
        entry = pickle.loads(payload[len(CACHE_MAGIC) :])
    except Exception as exc:  # any unpickling failure is a miss
        log.warning("cache entry %s is unreadable (%s); reparsing", target, exc)
        return None
    if not (
        isinstance(entry, tuple)
        and len(entry) == 3
        and isinstance(entry[0], tuple)
        and isinstance(entry[1], Score)
        and isinstance(entry[2], ParseDiagnostics)
    ):
        log.warning("cache entry %s holds a foreign object; reparsing", target)
        return None
    stored_hooks, score, diags = entry
    if stored_hooks != _hook_identities(hooks):
        return None
    return score, diags
