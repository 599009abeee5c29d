"""Findings, rule metadata, and the one pragma parser.

Every rule family reports :class:`Violation` records (the
interprocedural families add the enclosing symbol as a
:class:`Finding`, which is what the baseline fingerprints).  Pragmas are
parsed here and nowhere else:

* ``# repro: allow[RPR123, RPR456]`` suppresses the listed rules on its
  own line — every such pragma on the line counts, not just the first;
* ``# repro: allow-file[RPR123]`` anywhere in a file suppresses the
  listed rules for the whole file;
* both accept ``*`` for every rule;
* ``# repro: cold`` on a ``def`` line takes a helper out of the
  hot-path region (RPR8xx).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Sequence, Tuple

__all__ = [
    "Violation",
    "Finding",
    "RuleInfo",
    "catalogue",
    "line_allowed_rules",
    "file_allowed_rules",
    "is_cold_line",
    "suppressed",
]

_LINE_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9*,\s]+)\]")
_FILE_PRAGMA = re.compile(r"#\s*repro:\s*allow-file\[([A-Za-z0-9*,\s]+)\]")
_COLD_PRAGMA = re.compile(r"#\s*repro:\s*cold\b")


@dataclass(frozen=True)
class Violation:
    """One finding, pinned to a ``file:line:col`` location."""

    rule: str
    message: str
    path: str
    line: int
    col: int

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


@dataclass(frozen=True)
class Finding(Violation):
    """A Violation plus the enclosing symbol (for stable baselining)."""

    symbol: str = ""

    def to_json(self) -> Dict[str, Any]:
        data = super().to_json()
        data["symbol"] = self.symbol
        return data


@dataclass(frozen=True)
class RuleInfo:
    """Catalogue metadata of one rule (docs, SARIF, ``--help`` text)."""

    rule_id: str
    title: str
    rationale: str


def catalogue(rules: Sequence[RuleInfo]) -> List[Tuple[str, str, str]]:
    """``(rule_id, title, rationale)`` rows — used by docs and tests."""
    return [(r.rule_id, r.title, r.rationale) for r in rules]


def _pragma_rules(pattern: "re.Pattern[str]", text: str) -> FrozenSet[str]:
    return frozenset(
        token.strip()
        for match in pattern.finditer(text)
        for token in match.group(1).split(",")
        if token.strip()
    )


def line_allowed_rules(line: str) -> FrozenSet[str]:
    """Rule IDs (or ``*``) suppressed by every ``allow[...]`` on ``line``."""
    if "repro:" not in line:
        return frozenset()
    return _pragma_rules(_LINE_PRAGMA, line)


def file_allowed_rules(source: str) -> FrozenSet[str]:
    """Rule IDs (or ``*``) suppressed file-wide by ``allow-file[...]``."""
    if "allow-file" not in source:
        return frozenset()
    found: FrozenSet[str] = frozenset()
    for line in source.splitlines():
        found |= _pragma_rules(_FILE_PRAGMA, line)
    return found


def is_cold_line(line: str) -> bool:
    """True for a ``def`` line carrying ``# repro: cold``."""
    return _COLD_PRAGMA.search(line) is not None


def suppressed(rule: str, line: str, file_allowed: FrozenSet[str]) -> bool:
    """True when a file- or line-level pragma silences ``rule`` on ``line``."""
    if "*" in file_allowed or rule in file_allowed:
        return True
    allowed = line_allowed_rules(line)
    return "*" in allowed or rule in allowed
