"""The shared static-analysis pipeline behind ``repro check``.

``repro check`` parses every file once into a :class:`Project`
(:mod:`.project`), walks each module once for the per-line RPR1xx–5xx
rules (:mod:`repro.devtools.rules`), and runs the RPR6xx–8xx families on
one interprocedural driver (:mod:`.driver`).  Findings, rule metadata
and the single pragma parser live in :mod:`.findings`; suppression
baselines and SARIF export in :mod:`.baseline` and :mod:`.sarif`.
"""

from .driver import Analyzer, Binding, Family, Report, bind_arguments, filter_pragmas
from .findings import Finding, RuleInfo, Violation, catalogue
from .project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    build_project,
    build_project_from_sources,
)

__all__ = [
    "Analyzer",
    "Binding",
    "ClassInfo",
    "Family",
    "Finding",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "Report",
    "RuleInfo",
    "Violation",
    "bind_arguments",
    "build_project",
    "build_project_from_sources",
    "catalogue",
    "filter_pragmas",
]
