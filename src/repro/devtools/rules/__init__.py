"""Rule base types and the rule registry for the determinism linter.

A rule is a small AST visitor with a stable ID (``RPRxyz``; the hundreds
digit groups rules by family — 1xx RNG discipline, 2xx determinism,
3xx numeric safety, 4xx engine contract, 5xx profiling discipline).  The catalogue with rationale
and example violations lives in ``docs/linting.md``; the executable
definitions live in the sibling modules and register themselves in
``ALL_RULES`` below.

Suppression: a violation on a line containing the pragma
``# repro: allow[RPR123]`` (one or more comma-separated rule IDs) is
suppressed — use sparingly and justify in a comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

__all__ = [
    "Violation",
    "FileContext",
    "Rule",
    "ALL_RULES",
    "rules_by_id",
]


@dataclass(frozen=True)
class Violation:
    """One linter finding, pinned to a ``file:line:col`` location."""

    rule: str
    message: str
    path: str
    line: int
    col: int

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


@dataclass
class FileContext:
    """Everything a rule may know about the file under analysis."""

    #: Display path (repo-relative where possible).
    path: str
    #: Dotted module name (``repro.core.engines.base``) when the file
    #: lives under a ``repro`` package root; the bare stem otherwise
    #: (fixture snippets in tests).
    module: str
    source: str
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @property
    def in_repro(self) -> bool:
        return self.module == "repro" or self.module.startswith("repro.")

    def violation(self, rule: "Rule", node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=rule.rule_id,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


class Rule:
    """Base class: subclasses set the metadata and implement :meth:`check`."""

    rule_id: str = "RPR000"
    title: str = ""
    rationale: str = ""

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError  # pragma: no cover - interface

    # ------------------------------------------------------------------
    # Shared AST helpers
    # ------------------------------------------------------------------
    @staticmethod
    def dotted_name(node: ast.AST) -> str:
        """``a.b.c`` for a Name/Attribute chain; ``""`` for anything else."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return ""


def _build_registry() -> Tuple[Rule, ...]:
    # Imported here (not at module top) so the rule modules can import
    # the base types from this package without a cycle.
    from .contract import EngineContractRule, GraphMutationRule
    from .determinism import UnorderedSetIterationRule, WallClockRule
    from .numeric import FloatEqualityRule, SmallIntDtypeRule
    from .profiling import AdHocTimerRule
    from .rng import (
        ChannelRngDisciplineRule,
        GlobalNumpyRngRule,
        SeedlessSimulationApiRule,
        StdlibRandomRule,
        UnseededDefaultRngRule,
    )

    return (
        GlobalNumpyRngRule(),
        UnseededDefaultRngRule(),
        StdlibRandomRule(),
        SeedlessSimulationApiRule(),
        ChannelRngDisciplineRule(),
        WallClockRule(),
        UnorderedSetIterationRule(),
        FloatEqualityRule(),
        SmallIntDtypeRule(),
        EngineContractRule(),
        GraphMutationRule(),
        AdHocTimerRule(),
    )


ALL_RULES: Tuple[Rule, ...] = ()


def _registry() -> Tuple[Rule, ...]:
    global ALL_RULES
    if not ALL_RULES:
        ALL_RULES = _build_registry()
    return ALL_RULES


def rules_by_id() -> dict:
    """``{rule_id: rule}`` for every registered rule."""
    return {rule.rule_id: rule for rule in _registry()}
