"""The summary-based interprocedural driver behind RPR6xx and RPR8xx.

Each whole-program family — dataflow (:mod:`repro.devtools.dataflow`)
and hot-path hygiene (:mod:`repro.devtools.hotpath`) — subclasses
:class:`Analyzer` and supplies only its own lattice and sink logic.  The driver owns the
steps they share:

* the per-function **summary memo**, with functions still in progress
  answered by the family's empty summary (the recursion cut: a one-pass
  fixpoint that under-approximates and is never noisy);
* **call resolution** — local names and imports (chasing re-export
  hubs), ``self.``/``cls.`` methods up the class's base chain, and class
  construction through the nearest ``__init__``;
* **argument binding** — positional, keyword, ``*args`` and ``**kw``
  arguments matched to the callee's parameters;
* symbolic **parameter markers** (``p:0``, ``p:1`` …): a function is
  analyzed once with its parameters tagged by position, and a caller
  substitutes its argument tags for the markers in the summary;
* **emission** with per-location dedup, the pragma filter, and the
  ``analyze_project`` / ``analyze_paths`` / ``analyze_sources`` entry
  points every family exposes through its :class:`Family` record.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from .findings import Finding, RuleInfo, Violation, catalogue, suppressed
from .project import (
    FunctionInfo,
    ModuleInfo,
    Project,
    build_project,
    build_project_from_sources,
    _dotted,
)

__all__ = [
    "EMPTY",
    "Tags",
    "Analyzer",
    "Binding",
    "Family",
    "Report",
    "bind_arguments",
    "filter_pragmas",
    "marker",
    "markers",
    "substitute",
]

Tags = FrozenSet[str]
EMPTY: Tags = frozenset()

SummaryT = TypeVar("SummaryT")
ViolationT = TypeVar("ViolationT", bound=Violation)


def marker(index: int) -> str:
    """The symbolic tag standing for parameter ``index``."""
    return f"p:{index}"


def markers(tags: Iterable[str]) -> List[int]:
    """Parameter positions whose markers appear in ``tags``."""
    return [int(tag[2:]) for tag in tags if tag.startswith("p:")]


def substitute(tags: Tags, args: Mapping[int, Tags]) -> Tags:
    """Replace each ``p:i`` in a callee summary by argument ``i``'s tags."""
    out: Set[str] = set()
    for tag in tags:
        if tag.startswith("p:"):
            out |= args.get(int(tag[2:]), EMPTY)
        else:
            out.add(tag)
    return frozenset(out)


@dataclass(frozen=True)
class Binding:
    """One call-site argument and the callee parameter it binds to."""

    expr: ast.expr
    #: Parameter position; ``None`` for ``*args``/``**kw`` and for a
    #: keyword the callee does not declare.
    index: Optional[int] = None
    #: The parameter (or keyword) name, when known.
    name: Optional[str] = None
    #: ``*args`` splat: evaluated, never bound.
    starred: bool = False


def bind_arguments(call: ast.Call, params: Sequence[str]) -> List[Binding]:
    """Match ``call``'s arguments to ``params``, in evaluation order."""
    bindings: List[Binding] = []
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            bindings.append(Binding(arg, starred=True))
        else:
            name = params[index] if index < len(params) else None
            bindings.append(Binding(arg, index, name))
    for keyword in call.keywords:
        if keyword.arg is None:
            bindings.append(Binding(keyword.value))
        else:
            index_of = params.index(keyword.arg) if keyword.arg in params else None
            bindings.append(Binding(keyword.value, index_of, keyword.arg))
    return bindings


class Analyzer(Generic[SummaryT]):
    """One family's pass over a :class:`Project`.

    Subclasses implement :meth:`analyze` (the whole-project sweep),
    :meth:`compute_summary` (one function, with its parameters bound to
    markers) and :meth:`empty_summary` (the answer for recursion).
    """

    def __init__(self, project: Project) -> None:
        self.project = project
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, str, int, int, str]] = set()
        self._summaries: Dict[str, SummaryT] = {}
        self._in_progress: Set[str] = set()
        self.functions_analyzed = 0

    # ------------------------------------------------------------------
    # Family hooks
    # ------------------------------------------------------------------
    def analyze(self) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def compute_summary(self, fn: FunctionInfo) -> SummaryT:
        raise NotImplementedError  # pragma: no cover - interface

    def empty_summary(self) -> SummaryT:
        raise NotImplementedError  # pragma: no cover - interface

    # ------------------------------------------------------------------
    def run(self) -> List[Finding]:
        self.analyze()
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return self.findings

    def summary(self, fn: FunctionInfo) -> SummaryT:
        """``fn``'s memoized summary; in-progress callees get the empty one."""
        if fn.qualname in self._summaries:
            return self._summaries[fn.qualname]
        if fn.qualname in self._in_progress:
            return self.empty_summary()
        self._in_progress.add(fn.qualname)
        try:
            result = self.compute_summary(fn)
            self.functions_analyzed += 1
        finally:
            self._in_progress.discard(fn.qualname)
        self._summaries[fn.qualname] = result
        return result

    def resolve_call(
        self, module: ModuleInfo, call: ast.Call, caller: Optional[FunctionInfo]
    ) -> Optional[FunctionInfo]:
        """The project function ``call`` statically dispatches to, if any.

        Attribute dispatch through other receivers
        (``self.kernel.hear(...)``) is not resolved.
        """
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            if caller is None or caller.class_name is None:
                return None
            cls = self.project.classes.get(f"{caller.module}.{caller.class_name}")
            return self.project.method_on(cls, func.attr) if cls else None
        name = _dotted(func)
        if not name:
            return None
        qualified = self.project.resolve(module, name)
        fn = self.project.lookup_function(qualified)
        if fn is not None:
            return fn
        cls = self.project.lookup_class(qualified)
        return self.project.method_on(cls, "__init__") if cls else None

    def emit(
        self,
        rule: str,
        module: ModuleInfo,
        at: Union[ast.AST, Tuple[int, int]],
        message: str,
        symbol: str,
    ) -> None:
        """Record one finding at a node (or ``(line, col)``), deduplicated."""
        if isinstance(at, tuple):
            line, col = at
        else:
            line, col = getattr(at, "lineno", 1), getattr(at, "col_offset", 0)
        key = (rule, module.path, line, col, symbol)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                rule=rule, message=message, path=module.path,
                line=line, col=col, symbol=symbol,
            )
        )


def filter_pragmas(
    violations: Iterable[ViolationT], project: Project
) -> List[ViolationT]:
    """Drop findings silenced by a line or file pragma in their module."""
    by_path = {info.path: info for info in project.files}
    kept: List[ViolationT] = []
    for violation in violations:
        module = by_path.get(violation.path)
        if module is not None and suppressed(
            violation.rule, module.line(violation.line), module.file_allowed
        ):
            continue
        kept.append(violation)
    return kept


@dataclass
class Report:
    """The outcome of one family's whole-program run."""

    violations: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    modules_analyzed: int = 0
    functions_analyzed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors


@dataclass(frozen=True)
class Family:
    """One interprocedural rule family: its catalogue and its analyzer."""

    name: str
    rules: Tuple[RuleInfo, ...]
    analyzer: Callable[[Project], Analyzer[Any]]

    @property
    def tool(self) -> str:
        """The tool name ``repro check`` reports this family under."""
        return f"repro-{self.name}"

    def catalogue(self) -> List[Tuple[str, str, str]]:
        return catalogue(self.rules)

    def analyze_project(self, project: Project) -> Report:
        analyzer = self.analyzer(project)
        return Report(
            violations=filter_pragmas(analyzer.run(), project),
            errors=list(project.errors),
            modules_analyzed=len(project.modules),
            functions_analyzed=analyzer.functions_analyzed,
        )

    def analyze_paths(
        self, paths: Sequence[Union[str, Path]], root: Optional[Path] = None
    ) -> Report:
        """Parse and analyze files/directories on disk."""
        return self.analyze_project(build_project(paths, root=root))

    def analyze_sources(self, sources: Mapping[str, str]) -> Report:
        """Analyze in-memory ``{module: source}`` blobs (the test suite)."""
        return self.analyze_project(build_project_from_sources(sources))
