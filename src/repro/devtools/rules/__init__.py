"""The per-line determinism rules (RPR1xx–RPR5xx) and their one-walk driver.

A rule has a stable ID (``RPRxyz``; the hundreds digit groups rules by
family — 1xx RNG discipline, 2xx determinism, 3xx numeric safety, 5xx
profiling discipline), declares the AST node types it inspects, and
yields violations from :meth:`Rule.visit`.  The driver walks each
parsed module exactly once and hands every node to the rules registered
for its type.  The catalogue with rationale and example violations
lives in ``docs/linting.md``; the executable definitions live in the
sibling modules.

Suppression uses the shared pragma parser
(:mod:`repro.devtools.pipeline.findings`): ``# repro: allow[RPR123]``
on the flagged line, ``# repro: allow-file[RPR123]`` anywhere in the
file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from ..pipeline.driver import filter_pragmas
from ..pipeline.findings import Violation
from ..pipeline.project import ModuleInfo, Project, build_project, module_name_for

__all__ = [
    "Violation",
    "FileContext",
    "Rule",
    "LintReport",
    "lint_project",
    "lint_paths",
    "lint_source",
    "rule_catalogue",
    "rules_by_id",
]


@dataclass
class FileContext:
    """Everything a rule may know about the file under analysis."""

    #: Display path (repo-relative where possible).
    path: str
    #: Dotted module name (``repro.core.engines.base``) when the file
    #: lives under a ``repro`` package root; otherwise relative to the
    #: analysis root, or the bare stem (fixture snippets in tests).
    module: str
    #: Node ids a rule excluded while visiting one of their ancestors
    #: (the walk is breadth-first, so ancestors are always seen first).
    exempt: Set[int] = field(default_factory=set)

    def violation(self, rule: "Rule", node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=rule.rule_id,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


class Rule:
    """Base class: subclasses set the metadata and implement :meth:`visit`."""

    rule_id: str = "RPR000"
    title: str = ""
    rationale: str = ""
    #: The node types :meth:`visit` is called for.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        """False to skip a whole file (module-scoped rules)."""
        return True

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError  # pragma: no cover - interface


def _build_registry() -> Tuple[Rule, ...]:
    # Imported here (not at module top) so the rule modules can import
    # the base types from this package without a cycle.
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
        AdHocTimerRule(),
    )


ALL_RULES: Tuple[Rule, ...] = ()


def _registry() -> Tuple[Rule, ...]:
    global ALL_RULES
    if not ALL_RULES:
        ALL_RULES = _build_registry()
    return ALL_RULES


def rules_by_id() -> Dict[str, Rule]:
    """``{rule_id: rule}`` for every registered rule."""
    return {rule.rule_id: rule for rule in _registry()}


def rule_catalogue() -> List[Tuple[str, str, str]]:
    """``(rule_id, title, rationale)`` rows — used by docs and tests."""
    return [(r.rule_id, r.title, r.rationale) for r in _registry()]


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Everything one per-line lint run produced."""

    violations: List[Violation] = field(default_factory=list)
    checked_files: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def format(self) -> str:
        lines = [v.format() for v in self.violations]
        lines += [f"parse error: {e}" for e in self.parse_errors]
        lines.append(
            f"{len(self.violations)} violation(s) in "
            f"{self.checked_files} file(s)"
        )
        return "\n".join(lines)


def _walk(
    tree: ast.Module, ctx: FileContext, rules: Iterable[Rule]
) -> Iterator[Violation]:
    """One breadth-first walk, each node dispatched to its rules."""
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rules:
        if rule.applies_to(ctx):
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
    for node in ast.walk(tree):
        for rule in dispatch.get(type(node), ()):
            yield from rule.visit(node, ctx)


def lint_project(
    project: Project, rules: Optional[Sequence[Rule]] = None
) -> LintReport:
    """Run the per-line rules over every file of an already-parsed project."""
    chosen = tuple(rules) if rules is not None else _registry()
    found: List[Violation] = []
    for info in project.files:
        ctx = FileContext(path=info.path, module=info.name)
        found.extend(_walk(info.tree, ctx, chosen))
    found = filter_pragmas(found, project)
    found.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return LintReport(
        violations=found,
        checked_files=len(project.files) + len(project.errors),
        parse_errors=list(project.errors),
    )


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Lint one source blob; raises ``SyntaxError`` on unparsable input."""
    project = Project()
    project.add(
        ModuleInfo(
            name=module if module is not None else module_name_for(Path(path)),
            path=path,
            tree=ast.parse(source, filename=path),
            source=source,
        )
    )
    return lint_project(project, rules).violations


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
) -> LintReport:
    """Lint every ``*.py`` file under ``paths`` (files or directories)."""
    return lint_project(build_project(paths, root=root), rules)
