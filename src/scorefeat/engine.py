"""Stage one of the pipeline: windowing, hooks, caching, and table assembly.

Each file's work (parse or cache load, hooks, harmony pairing, feature
modules) is one call that appends the file's rows and report entries to the
run's. The calls run one at a time, in input order, on the calling thread:
every stage holds the GIL, so threads only added the cost of passing it
between them.
"""

from __future__ import annotations

import logging
from collections import ChainMap, Counter
from dataclasses import field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import cache as score_cache
from . import midi as midi_importer
from . import musicxml as musicxml_parser
from .diagnostics import ParseDiagnostics
from .features import FEATURE_ALIASES, STOCK_FEATURES
from .features.core import SCOPED_NAME
from .harmony import HarmonyError, attach_annotations, parse_harmony_file
from .model import Score, slice_window
from .records import record
from .registry import (
    RegistryError,
    feature_modules,
    get_hook,
    resolve_feature_order,
)
from .table import IDENTITY_COLUMNS, FeatureTable

log = logging.getLogger(__name__)

# Suffix -> parser module and the name of its parse function. The function is
# looked up on the module at each call, so a patched module attribute is
# the one the engine runs.
_PARSERS = {
    ".musicxml": (musicxml_parser, "parse_musicxml"),
    ".xml": (musicxml_parser, "parse_musicxml"),
    ".mxl": (musicxml_parser, "parse_musicxml"),
    ".mid": (midi_importer, "import_midi"),
    ".midi": (midi_importer, "import_midi"),
}
SCORE_EXTENSIONS = tuple(_PARSERS)
HARMONY_SUFFIX = ".harmony.tsv"


class ConfigError(ValueError):
    """Invalid extractor configuration."""


@record
class ExtractorConfig:
    """Declarative settings for the extraction stage."""

    xml_dir: Optional[Path] = None
    harmony_dir: Optional[Path] = None
    features: list[str] = field(default_factory=lambda: list(STOCK_FEATURES))
    basic_modules: list[str] = field(default_factory=lambda: ["scoring"])
    window_size: Optional[int] = None
    window_overlap: int = 0
    cache_dir: Optional[Path] = None
    hooks: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.xml_dir is not None:
            self.xml_dir = Path(self.xml_dir)
        if self.harmony_dir is not None:
            self.harmony_dir = Path(self.harmony_dir)
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)

    def requested_modules(self) -> list[str]:
        names = list(self.basic_modules) + list(self.features)
        seen: dict[str, None] = {}
        for name in names:
            seen.setdefault(FEATURE_ALIASES.get(name, name))
        return list(seen)

    def validate(self) -> None:
        if self.window_size is not None:
            if self.window_size < 1:
                raise ConfigError("window_size must be >= 1")
            if not 0 <= self.window_overlap < self.window_size:
                raise ConfigError("window_overlap must satisfy 0 <= overlap < window_size")
        elif self.window_overlap:
            raise ConfigError("window_overlap requires window_size")
        for hook in self.hooks:
            try:
                get_hook(hook)
            except RegistryError as exc:
                raise ConfigError(str(exc)) from exc


@record
class RunReport:
    """Outcome ledger of a run, in input order: failures, parser warnings,
    skipped-element tallies and cache statistics."""

    failures: list[dict] = field(default_factory=list)
    warnings: list[dict] = field(default_factory=list)
    skipped: Counter = field(default_factory=Counter)
    parsed: int = 0
    cache_hits: int = 0
    cache_writes: int = 0

    def add_failure(self, path, stage: str, error: Exception | str) -> None:
        self.failures.append({"path": str(path), "stage": stage, "error": str(error)})

    def add_warning(self, path, message: str) -> None:
        """A warning about the file at ``path``, or about the run for None."""
        entry = {"message": message} if path is None else {"path": str(path), "message": message}
        self.warnings.append(entry)

    def to_json_lines(self) -> str:
        import json

        lines = [json.dumps({"kind": "failure", **f}) for f in self.failures]
        lines += [json.dumps({"kind": "warning", **w}) for w in self.warnings]
        lines.append(
            json.dumps(
                {
                    "kind": "summary",
                    "parsed": self.parsed,
                    "cache_hits": self.cache_hits,
                    "cache_writes": self.cache_writes,
                    "failures": len(self.failures),
                    "skipped": dict(sorted(self.skipped.items())),
                }
            )
        )
        return "\n".join(lines) + "\n"


def plan_windows(num_measures: int, size: int, overlap: int) -> list[tuple[int, int]]:
    """(start, length) covering every measure; stride is size - overlap and
    the final window may be clipped but always adds a new measure."""
    if num_measures < 1:
        raise ConfigError("num_measures must be >= 1")
    if size < 1:
        raise ConfigError("window size must be >= 1")
    if not 0 <= overlap < size:
        raise ConfigError("overlap must satisfy 0 <= overlap < size")
    stride = size - overlap
    starts = [1]
    while starts[-1] + stride <= num_measures - overlap:
        starts.append(starts[-1] + stride)
    return [(s, min(size, num_measures - s + 1)) for s in starts]


def run_hooks(score: Score, hooks: Sequence[Callable[[Score], Score]]) -> Score:
    """Apply post-parse hooks in registration order (composition f, then g)."""
    for hook in hooks:
        score = hook(score)
    return score


def _stem(path: Path) -> str:
    """File name without its last suffix: the score's ``source_id``."""
    return path.name[: -len(path.suffix)] if path.suffix else path.name


def load_or_parse(path, config: ExtractorConfig, report: RunReport) -> Score:
    """Cache-aware parse. Cached entries already carry hook effects, so hooks
    are only run on a fresh parse; an entry written under other hooks, or a
    corrupt one, falls back to reparsing. Files with the same bytes share an
    entry, so a hit takes its ``source_id`` from ``path``. A hit reports the
    warnings and skipped tallies its parse gave, as a fresh parse does. A
    score that an entry cannot hold is used uncached, with a warning."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in _PARSERS:
        raise ConfigError(f"unsupported score file extension {suffix!r}")
    parser, parse_name = _PARSERS[suffix]
    data = path.read_bytes()
    key = score_cache.cache_key(data, parser.PARSER_ID, parser.PARSER_VERSION)
    stem = _stem(path)

    cached = None
    if config.cache_dir is not None:
        cached = score_cache.load_score(config.cache_dir, key, config.hooks, report)
    if cached is not None:
        score, diags = cached
        report.cache_hits += 1
        if score.source_id != stem:
            score = replace(score, source_id=stem)
    else:
        score, diags = getattr(parser, parse_name)(data, source_id=stem)
        report.parsed += 1
        score = run_hooks(score, [get_hook(name) for name in config.hooks])
        if config.cache_dir is not None:
            try:
                score_cache.store_score(config.cache_dir, key, score, diags, config.hooks)
                report.cache_writes += 1
            except TypeError as exc:  # a hook left what JSON or a packed column cannot hold
                report.add_warning(path, f"not cached: {exc}")

    for location, message in diags.warnings:
        report.add_warning(path, f"{location}: {message}")
    report.skipped.update(diags.skipped_elements)
    return score


def _find_harmony_file(path: Path, config: ExtractorConfig) -> Optional[Path]:
    directory = config.harmony_dir if config.harmony_dir is not None else path.parent
    candidate = directory / f"{_stem(path)}{HARMONY_SUFFIX}"
    return candidate if candidate.is_file() else None


def _score_column(name: str) -> str:
    if name in IDENTITY_COLUMNS or SCOPED_NAME.match(name):
        return name
    return f"Score_{name}"


def extract_unit(score: Score, order: Sequence[str], registry, row: Optional[dict] = None,
                 names: Optional[dict] = None) -> dict:
    """Run feature modules over one score or window; returns ``row`` (a new
    dict by default) with the unit's cells added. ``names`` memoizes each
    column name per (scope prefix, key), "" for score values, so that units
    sharing it build each name once."""
    row = {} if row is None else row
    names = {} if names is None else names
    score_values: dict = {}
    part_values: dict[str, dict] = {p.part_id: {} for p in score.parts}
    part_scopes = score.scopes[: len(score.parts)]
    for name in order:
        descriptor = registry[name]
        if descriptor.part_fn is not None:
            for prefix, (part,) in part_scopes:
                own = part_values[part.part_id]
                # part keys shadow score keys; a write lands in the empty front map
                values = descriptor.part_fn(part, score, ChainMap({}, own, score_values)) or {}
                columns = names.setdefault(prefix, {})
                for key, value in values.items():
                    if value is None:
                        continue
                    own[key] = value
                    column = columns.get(key)
                    if column is None:
                        column = columns[key] = prefix + key
                    row[column] = value
        if descriptor.score_fn is not None:
            values = descriptor.score_fn(score, part_values, score_values) or {}
            columns = names.setdefault("", {})
            for key, value in values.items():
                if value is None:
                    continue
                score_values[key] = value
                column = columns.get(key)
                if column is None:
                    column = columns[key] = _score_column(key)
                row[column] = value
    return row


def _score_units(score: Score, config: ExtractorConfig):
    if config.window_size is None:
        yield score, None
        return
    for start, length in plan_windows(score.num_measures, config.window_size, config.window_overlap):
        yield slice_window(score, start, length), (start, start + length - 1)


def _process_path(path: Path, config, order, registry, names: dict,
                  report: RunReport, rows: list[dict]) -> None:
    """Append one file's rows to ``rows`` and its entries to ``report``; a
    file whose feature modules fail adds no rows. ``names`` is the column-name
    memo (see ``extract_unit``)."""
    try:
        score = load_or_parse(path, config, report)
    except Exception as exc:  # parse or hook failures stay per-file
        report.add_failure(path, "parse", exc)
        return

    harmony_path = _find_harmony_file(path, config)
    if harmony_path is not None:
        diags = ParseDiagnostics()
        try:
            annotations = parse_harmony_file(harmony_path.read_text("utf-8"), diags)
            score = attach_annotations(score, annotations)
        except (HarmonyError, OSError) as exc:
            # keep the score, lose the annotations: harmony is a sidecar
            report.add_failure(harmony_path, "harmony", exc)
        for location, message in diags.warnings:
            report.add_warning(harmony_path, f"{location}: {message}")

    first = len(rows)
    try:
        for unit, window in _score_units(score, config):
            row: dict = {"FileName": score.source_id}
            if window is not None:
                row["WindowStart"], row["WindowEnd"] = window
            rows.append(extract_unit(unit, order, registry, row, names))
    except Exception as exc:  # a feature crash must not kill the whole run
        report.add_failure(path, "features", exc)
        del rows[first:]


def extract(
    config: ExtractorConfig,
    paths: Sequence,
    report: Optional[RunReport] = None,
) -> FeatureTable:
    """Extract one row per score (or per window) across all input paths.

    Failures are collected into the report and the run continues. The files
    run one at a time on the calling thread. Rows are in (input order, window
    start) order and report entries in input order.
    """
    config.validate()
    report = report if report is not None else RunReport()
    registry = feature_modules()
    try:
        order = resolve_feature_order(registry, config.requested_modules())
    except RegistryError as exc:
        raise ConfigError(str(exc)) from exc

    # One memo of column names per call: it holds no more names than the table.
    names: dict = {}
    rows: list[dict] = []
    for path in paths:
        _process_path(Path(path), config, order, registry, names, report, rows)
    return FeatureTable.from_rows(rows)
