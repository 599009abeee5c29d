"""``repro check`` — the one-command determinism & contract gate.

Runs, in order:

1. **ruff** (``ruff check src tests benchmarks``) — generic style lint.
2. **mypy** (``mypy --strict`` on :data:`STRICT_MYPY_TARGETS`).
3. One static-analysis pass over the target paths (default ``src``):
   every file is parsed once into a
   :class:`~repro.devtools.pipeline.project.Project`, then

   * **repro-lint** — the per-line RPR1xx–5xx rules in
     :mod:`repro.devtools.rules`, one walk per module;
   * **repro-dataflow** / **repro-hotpath** — the RPR6xx
     seed-provenance and dtype-flow and the RPR8xx hot-path families
     (:data:`FAMILIES`), each on the shared interprocedural driver,
     with ``--baseline`` suppression and per-family wall time in the
     JSON payload.
4. **engine-contract** — the runtime registry sweep from
   :mod:`repro.devtools.contract`.
5. **sanitizers** (only with ``--sanitize``) — the runtime traps in
   :mod:`repro.devtools.sanitize`: errstate + frozen engine and
   collector arrays over the engine fixtures, RNG draw audits,
   seed-tree audits, the pool worker-crash recovery probe, and the
   steady-state allocation audit
   (:mod:`repro.devtools.hotpath.audit`).

``--sarif out.sarif`` additionally writes every RPR finding as SARIF
2.1.0 for code-scanning upload.

ruff and mypy are *optional* dependencies (the ``lint`` extra pins
them); when a tool is not importable in the current environment it is
reported as ``skipped`` and does not fail the gate, so the command stays
useful on minimal installs while CI — which installs ``.[lint]`` — gets
the full gate.  Everything else is stdlib+numpy and always runs.

Exit status is 0 iff no tool *failed*.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..obs.profiling import PhaseProfiler
from . import dataflow, hotpath
from .pipeline.baseline import BaselineError, Fingerprint, apply_baseline, load_baseline
from .pipeline.driver import Family
from .pipeline.project import Project, build_project
from .rules import lint_project

__all__ = ["FAMILIES", "STRICT_MYPY_TARGETS", "ToolResult", "run_check", "main"]

#: The interprocedural rule families, in report order.
FAMILIES: Tuple[Family, ...] = (dataflow.FAMILY, hotpath.FAMILY)

#: The mypy --strict surface (acceptance criterion of the lint gate).
STRICT_MYPY_TARGETS = (
    "src/repro/core/engines",
    "src/repro/graphs",
    "src/repro/analysis",
    "src/repro/obs",
    "src/repro/devtools/sanitize.py",
    "src/repro/devtools/pipeline",
    "src/repro/devtools/hotpath",
)

#: Paths swept by ruff when available.
RUFF_TARGETS = ("src", "tests", "benchmarks")


@dataclass
class ToolResult:
    """Outcome of one tool in the gate."""

    name: str
    status: str  # "passed" | "failed" | "skipped"
    detail: str = ""
    violations: List[Dict[str, Any]] = field(default_factory=list)
    #: Tool-specific extras (timings, counters) surfaced in the JSON payload.
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    def to_json(self) -> Dict[str, Any]:
        payload = {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "violations": self.violations,
        }
        if self.data:
            payload["data"] = self.data
        return payload


def _have_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):
        return False


def _run_tool(name: str, command: Sequence[str]) -> ToolResult:
    """Run an external linter as ``python -m <tool> ...``."""
    proc = subprocess.run(
        [sys.executable, "-m", *command],
        capture_output=True,
        text=True,
    )
    output = (proc.stdout + proc.stderr).strip()
    if proc.returncode == 0:
        return ToolResult(name=name, status="passed", detail=output)
    return ToolResult(name=name, status="failed", detail=output)


def _check_ruff() -> ToolResult:
    if not _have_module("ruff"):
        return ToolResult(
            name="ruff",
            status="skipped",
            detail="ruff not installed (pip install .[lint])",
        )
    return _run_tool("ruff", ["ruff", "check", *RUFF_TARGETS])


def _check_mypy() -> ToolResult:
    if not _have_module("mypy"):
        return ToolResult(
            name="mypy",
            status="skipped",
            detail="mypy not installed (pip install .[lint])",
        )
    return _run_tool("mypy", ["mypy", "--strict", *STRICT_MYPY_TARGETS])


def _check_repro_lint(project: Project) -> ToolResult:
    report = lint_project(project)
    return ToolResult(
        name="repro-lint",
        status="passed" if report.ok else "failed",
        detail=f"{len(report.violations)} violation(s) in "
        f"{report.checked_files} file(s)",
        violations=[v.to_json() for v in report.violations],
    )


def _check_family(
    family: Family, project: Project, baseline: Optional[Set[Fingerprint]]
) -> ToolResult:
    """One interprocedural family, with profiled wall time."""
    profiler = PhaseProfiler()
    with profiler.phase(family.tool):
        report = family.analyze_project(project)
    violations = report.violations
    if baseline is not None:
        violations = apply_baseline(violations, baseline)
    suppressed = len(report.violations) - len(violations)
    elapsed = profiler.phases[family.tool]["wall_s"]
    data: Dict[str, Any] = {
        "elapsed_s": round(elapsed, 4),
        "modules": report.modules_analyzed,
        "functions": report.functions_analyzed,
        "suppressed_by_baseline": suppressed,
    }
    detail = (
        f"{len(violations)} finding(s) across {report.modules_analyzed} "
        f"module(s) in {elapsed:.2f}s"
    )
    if report.errors:
        detail += f"; {len(report.errors)} parse error(s)"
        data["parse_errors"] = report.errors
    if suppressed:
        detail += f" ({suppressed} baselined)"
    return ToolResult(
        name=family.tool,
        status="failed" if violations or report.errors else "passed",
        detail=detail,
        violations=[v.to_json() for v in violations],
        data=data,
    )


def _check_sanitize() -> ToolResult:
    """The runtime sanitizer suite (``--sanitize``)."""
    from .sanitize import run_sanitizers

    results = run_sanitizers()
    failures = [r for r in results if not r.ok]
    detail = "; ".join(r.format() for r in results)
    return ToolResult(
        name="sanitizers",
        status="failed" if failures else "passed",
        detail=detail,
        data={"checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ]},
    )


def _check_contract() -> ToolResult:
    from .contract import verify_registry

    problems = {
        name: issues for name, issues in verify_registry().items() if issues
    }
    if not problems:
        return ToolResult(
            name="engine-contract",
            status="passed",
            detail="all registered backends conform",
        )
    flat = [
        {"rule": "CONTRACT", "message": issue, "path": name, "line": 0, "col": 0}
        for name, issues in sorted(problems.items())
        for issue in issues
    ]
    return ToolResult(
        name="engine-contract",
        status="failed",
        detail=f"{len(flat)} contract problem(s)",
        violations=flat,
    )


def run_check(
    paths: Optional[Sequence[str]] = None,
    skip_external: bool = False,
    skip_contract: bool = False,
    sanitize: bool = False,
    baseline: Optional[str] = None,
) -> List[ToolResult]:
    """Run the full gate; returns one :class:`ToolResult` per tool."""
    results: List[ToolResult] = []
    if not skip_external:
        results.append(_check_ruff())
        results.append(_check_mypy())
    project = build_project(list(paths) if paths else ["src"])
    results.append(_check_repro_lint(project))
    fingerprints: Optional[Set[Fingerprint]] = None
    baseline_error = ""
    if baseline is not None:
        try:
            fingerprints = load_baseline(baseline)
        except BaselineError as exc:
            baseline_error = str(exc)
    for family in FAMILIES:
        if baseline_error:
            results.append(
                ToolResult(name=family.tool, status="failed", detail=baseline_error)
            )
        else:
            results.append(_check_family(family, project, fingerprints))
    if not skip_contract:
        results.append(_check_contract())
    if sanitize:
        results.append(_check_sanitize())
    return results


def format_text(results: Sequence[ToolResult]) -> str:
    lines: List[str] = []
    for result in results:
        marker = {"passed": "ok", "failed": "FAIL", "skipped": "skip"}[
            result.status
        ]
        lines.append(f"[{marker:>4}] {result.name}: {result.detail or result.status}")
        for violation in result.violations:
            lines.append(
                f"       {violation['path']}:{violation['line']}:"
                f"{violation['col']} {violation['rule']} {violation['message']}"
            )
        if result.failed and result.detail and not result.violations:
            for line in result.detail.splitlines()[:40]:
                lines.append(f"       {line}")
    failed = sum(1 for r in results if r.failed)
    lines.append(
        f"check: {len(results)} tool(s), {failed} failed"
        if failed
        else f"check: {len(results)} tool(s), all green"
    )
    return "\n".join(lines)


def to_json(results: Sequence[ToolResult]) -> Dict[str, Any]:
    return {
        "ok": not any(r.failed for r in results),
        "tools": [r.to_json() for r in results],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="determinism & contract gate (ruff + mypy + one "
        "static-analysis pass: repro-lint, repro-dataflow, repro-hotpath; "
        "engine-contract [+ sanitizers])",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="paths for the custom linter (default: src)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--no-external",
        action="store_true",
        help="skip ruff/mypy even when installed",
    )
    parser.add_argument(
        "--no-contract",
        action="store_true",
        help="skip the runtime engine-contract sweep",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="also run the runtime sanitizers (errstate traps, frozen "
        "engine and collector arrays, RNG draw/seed-tree audits, pool "
        "crash recovery, steady-state allocation audit)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="JSON baseline of accepted dataflow/hotpath findings to suppress",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        help="write all RPR findings as SARIF 2.1.0 to FILE",
    )
    args = parser.parse_args(argv)

    results = run_check(
        paths=args.paths or None,
        skip_external=args.no_external,
        skip_contract=args.no_contract,
        sanitize=args.sanitize,
        baseline=args.baseline,
    )
    if args.sarif:
        from .pipeline.sarif import write_sarif

        findings = [
            violation
            for result in results
            for violation in result.violations
            if str(violation.get("rule", "")).startswith("RPR")
        ]
        write_sarif(args.sarif, findings)
    if args.format == "json":
        print(json.dumps(to_json(results), indent=2))
    else:
        print(format_text(results))
    return 0 if not any(r.failed for r in results) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
