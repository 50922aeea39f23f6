"""Shared non-fatal diagnostics container for the file parsers."""

from __future__ import annotations

from collections import Counter
from dataclasses import field

from .records import record


@record
class ParseDiagnostics:
    """Non-fatal findings from a parse: warnings plus skipped-element tallies.

    Warnings never abort a parse; fatal structural errors raise instead.
    """

    warnings: list[tuple[str, str]] = field(default_factory=list)
    skipped_elements: Counter = field(default_factory=Counter)

    def warn(self, location: str, message: str) -> None:
        self.warnings.append((location, message))

    def skip(self, element: str, count: int = 1) -> None:
        self.skipped_elements[element] += count
