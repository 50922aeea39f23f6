"""Stage two of the pipeline: merge, drop, and missing-value cleanup.

Steps run in a fixed order: merge groups, drop columns, replace missing
cells with zero, then drop any column that is still entirely missing.
Identity columns (FileName, WindowStart, WindowEnd) are never dropped.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .table import Cell, FeatureTable, IDENTITY_COLUMNS

log = logging.getLogger(__name__)

MERGE_STATS = ("mean", "std", "min", "max", "sum")


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
    out: dict[str, Optional[float]] = {}
    values = [v for v in values if v is not None]
    for stat in stats:
        if not values:
            out[stat] = None
        elif stat == "mean":
            out[stat] = sum(values) / len(values)
        elif stat == "std":
            mean = sum(values) / len(values)
            out[stat] = (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
        elif stat == "min":
            out[stat] = min(values)
        elif stat == "max":
            out[stat] = max(values)
        elif stat == "sum":
            out[stat] = sum(values)
        else:
            raise ProcessError(f"unknown statistic {stat!r}")
    return out


def _match_columns(pattern: str, columns: Sequence[str], what: str) -> list[str]:
    try:
        rx = re.compile(pattern)
    except re.error as exc:
        raise ProcessError(f"bad {what} pattern {pattern!r}: {exc}") from exc
    matched = [c for c in columns if rx.fullmatch(c)]
    if not matched:
        log.warning("%s pattern %r matched no columns", what, pattern)
    return matched


def process(table: FeatureTable, config: ProcessorConfig) -> FeatureTable:
    """Clean and reshape a feature table; row count and identity survive."""
    columns = list(table.columns)
    rows = [list(r) for r in table.rows]
    col_index = {c: i for i, c in enumerate(columns)}

    merged_columns: list[str] = []
    merged_cells: list[list[Cell]] = [[] for _ in rows]
    to_drop: set[str] = set()

    for group in config.merge_groups:
        members = _match_columns(group.pattern, columns, "merge")
        members = [c for c in members if c not in IDENTITY_COLUMNS]
        if not members:
            continue
        for name in members:
            bad = next(
                (
                    row[col_index[name]]
                    for row in rows
                    if row[col_index[name]] is not None
                    and not isinstance(row[col_index[name]], (int, float))
                ),
                None,
            )
            if bad is not None:
                raise ProcessError(
                    f"merge group {group.target!r} captures non-numeric column {name!r}"
                )
        for ri, row in enumerate(rows):
            values = [row[col_index[name]] for name in members]
            stats = merge_statistics(values, group.stats)
            merged_cells[ri].extend(stats[s] for s in group.stats)
        merged_columns.extend(f"{group.target}_{s.capitalize()}" for s in group.stats)
        if not config.keep_raw_after_merge:
            to_drop.update(members)

    for pattern in config.drop_columns:
        to_drop.update(_match_columns(pattern, columns, "drop"))
    to_drop.difference_update(IDENTITY_COLUMNS)

    keep = [c for c in columns if c not in to_drop]
    keep_idx = [col_index[c] for c in keep]
    out_columns = keep + merged_columns
    out_rows = [
        [row[i] for i in keep_idx] + merged_cells[ri] for ri, row in enumerate(rows)
    ]

    replace_idx: set[int] = set()
    for pattern in config.replace_missing_with_zero:
        for name in _match_columns(pattern, out_columns, "replace"):
            if name not in IDENTITY_COLUMNS:
                replace_idx.add(out_columns.index(name))
    for row in out_rows:
        for i in replace_idx:
            if row[i] is None:
                row[i] = 0

    all_missing = [
        i
        for i, name in enumerate(out_columns)
        if name not in IDENTITY_COLUMNS and all(row[i] is None for row in out_rows)
    ]
    if all_missing:
        dropped = ", ".join(out_columns[i] for i in all_missing)
        log.info("dropping all-missing columns: %s", dropped)
        missing = set(all_missing)
        keep_pos = [i for i in range(len(out_columns)) if i not in missing]
        out_columns = [out_columns[i] for i in keep_pos]
        out_rows = [[row[i] for i in keep_pos] for row in out_rows]

    return FeatureTable(columns=out_columns, rows=out_rows)
