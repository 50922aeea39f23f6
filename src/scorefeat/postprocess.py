"""Stage two of the pipeline: merge, drop, and missing-value cleanup.

Steps run in a fixed order: merge groups, drop columns, replace missing
cells with zero, then drop any column that is still entirely missing.
Identity columns (FileName, WindowStart, WindowEnd) are never dropped.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .table import Cell, FeatureTable, IDENTITY_COLUMNS

if TYPE_CHECKING:
    from .engine import RunReport

log = logging.getLogger(__name__)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    mean = _mean(values)
    return _mean([(v - mean) ** 2 for v in values]) ** 0.5


# Statistic name -> its function over the non-missing member values.
_STATISTICS = {"mean": _mean, "std": _std, "min": min, "max": max, "sum": sum}
MERGE_STATS = tuple(_STATISTICS)


class ProcessError(ValueError):
    """Invalid processor configuration or unusable column content."""


@dataclass
class MergeGroup:
    """Columns matching ``pattern`` collapse into ``<target>_<Stat>`` columns."""

    pattern: str
    target: str
    stats: tuple[str, ...] = ("mean",)

    def __post_init__(self):
        if not self.stats:
            raise ProcessError(f"merge group {self.target!r} has no statistics")
        bad = [s for s in self.stats if s not in MERGE_STATS]
        if bad:
            raise ProcessError(f"unknown merge statistics: {', '.join(bad)}")


@dataclass
class ProcessorConfig:
    replace_missing_with_zero: list[str] = field(default_factory=list)
    drop_columns: list[str] = field(default_factory=list)
    merge_groups: list[MergeGroup] = field(default_factory=list)
    keep_raw_after_merge: bool = False


def merge_statistics(values: Sequence[float], stats: Sequence[str]) -> dict[str, Optional[float]]:
    """Requested statistics over the non-missing member values.

    std is the population standard deviation (groups are complete
    populations of parts, not samples). Empty input yields missing values.
    """
    values = [v for v in values if v is not None]
    for stat in stats:
        if stat not in _STATISTICS:
            raise ProcessError(f"unknown statistic {stat!r}")
    return {stat: _STATISTICS[stat](values) if values else None for stat in stats}


def _match_columns(pattern: str, columns: Iterable[str], what: str,
                   report: Optional[RunReport]) -> list[str]:
    try:
        rx = re.compile(pattern)
    except re.error as exc:
        raise ProcessError(f"bad {what} pattern {pattern!r}: {exc}") from exc
    matched = [c for c in columns if rx.fullmatch(c)]
    if not matched:
        message = f"{what} pattern {pattern!r} matched no columns"
        log.warning("%s", message)
        if report is not None:
            report.add_warning(None, message)
    return matched


def process(table: FeatureTable, config: ProcessorConfig,
            report: Optional[RunReport] = None) -> FeatureTable:
    """Clean and reshape a feature table; row count and identity survive.

    Each step acts on whole columns; the input table is left unchanged. A
    pattern that matches no column, and the all-missing columns dropped, are
    logged and, given a ``report``, also kept there as warnings about the
    run, with no path.
    """
    columns = table.columns
    merged: list[tuple[str, Sequence[Cell]]] = []
    to_drop: set[str] = set()

    for group in config.merge_groups:
        members = [c for c in _match_columns(group.pattern, columns, "merge", report)
                   if c not in IDENTITY_COLUMNS]
        if not members:
            continue
        for name in members:
            if any(v is not None and not isinstance(v, (int, float)) for v in columns[name]):
                raise ProcessError(f"merge group {group.target!r} captures "
                                   f"non-numeric column {name!r}")
        per_row = [merge_statistics(values, group.stats)
                   for values in zip(*(columns[name] for name in members))]
        merged += [(f"{group.target}_{s.capitalize()}", [stats[s] for stats in per_row])
                   for s in group.stats]
        if not config.keep_raw_after_merge:
            to_drop.update(members)

    for pattern in config.drop_columns:
        to_drop.update(_match_columns(pattern, columns, "drop", report))
    to_drop.difference_update(IDENTITY_COLUMNS)
    out = {name: cells for name, cells in columns.items() if name not in to_drop}
    for name, cells in merged:
        if name in out:
            raise ProcessError(f"duplicate column names: {name!r}")
        out[name] = cells

    for pattern in config.replace_missing_with_zero:
        for name in _match_columns(pattern, out, "replace", report):
            if name not in IDENTITY_COLUMNS:
                out[name] = [0 if v is None else v for v in out[name]]

    missing = [name for name, cells in out.items()
               if name not in IDENTITY_COLUMNS and all(v is None for v in cells)]
    if missing:
        message = f"dropped all-missing columns: {', '.join(missing)}"
        log.info("%s", message)
        if report is not None:
            report.add_warning(None, message)
        for name in missing:
            del out[name]
    return FeatureTable(out, table.num_rows)
