"""One set of infrastructure tests for every interprocedural rule family.

Pragmas, baselines, SARIF export, catalogue/docs sync, the real-tree and
wall-time checks, and the ``repro check`` subprocess flows are the same
plumbing for RPR6xx and RPR8xx, so each check is written once
here.  A family's test module binds them to its :class:`Case` under its
own test names, e.g.::

    test_file_pragma_is_rule_specific = cases.file_pragma_is_rule_specific(CASE)

Each factory returns a plain pytest test function (fixtures such as
``tmp_path`` and the module's ``corpus_report`` are requested through
its signature).
"""

import functools
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import pytest

from repro.devtools import dataflow, hotpath
from repro.devtools.pipeline.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.devtools.pipeline.driver import Family
from repro.devtools.pipeline.sarif import to_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = REPO_ROOT / "tests" / "dataflow_fixtures"


@dataclass(frozen=True)
class Case:
    """A family plus one seeded single-finding module for it."""

    family: Family
    rule_ids: Tuple[str, ...]
    #: Source of a module with exactly one finding, of ``seeded_rule``,
    #: from this family and nothing from any other tool.
    seeded_source: str
    seeded_rule: str

    def seeded_line(self) -> int:
        [finding] = self.family.analyze_sources({"m": self.seeded_source}).violations
        assert finding.rule == self.seeded_rule
        return finding.line


DATAFLOW = Case(
    family=dataflow.FAMILY,
    rule_ids=(
        "RPR601", "RPR602", "RPR611", "RPR612", "RPR621", "RPR631", "RPR641",
    ),
    seeded_source=(
        "from repro.devtools.seeding import resolve_rng\n"
        "def run(seed):\n"
        "    return resolve_rng(seed), resolve_rng(seed)\n"
    ),
    seeded_rule="RPR602",
)

HOTPATH = Case(
    family=hotpath.FAMILY,
    rule_ids=("RPR801", "RPR802", "RPR803", "RPR804", "RPR805"),
    seeded_source=(
        "import numpy as np\n"
        "class LeakyEngine:\n"
        "    def step(self):\n"
        "        tmp = np.zeros(8)\n"
        "        tmp += 1\n"
        "        return None\n"
    ),
    seeded_rule="RPR801",
)

CASES = (DATAFLOW, HOTPATH)


def _rules(report):
    return [v.rule for v in report.violations]


def line_pragma_suppresses(case):
    def test():
        lines = case.seeded_source.splitlines()
        index = case.seeded_line() - 1
        lines[index] += f"  # repro: allow[{case.seeded_rule}]"
        source = "\n".join(lines) + "\n"
        assert case.family.analyze_sources({"m": source}).violations == []
    return test


def file_pragma_suppresses_the_whole_file(case):
    def test():
        source = f"# repro: allow-file[{case.seeded_rule}]\n" + case.seeded_source
        assert case.family.analyze_sources({"m": source}).violations == []
        # Without the pragma the same source is flagged.
        assert case.family.analyze_sources({"m": case.seeded_source}).violations
    return test


def file_pragma_is_rule_specific(case):
    def test():
        other = next(r for r in case.rule_ids if r != case.seeded_rule)
        source = f"# repro: allow-file[{other}]\n" + case.seeded_source
        report = case.family.analyze_sources({"m": source})
        assert _rules(report) == [case.seeded_rule]
    return test


def baseline_round_trip(case):
    def test(tmp_path, corpus_report):
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, corpus_report.violations)
        fingerprints = load_baseline(baseline_path)
        assert apply_baseline(corpus_report.violations, fingerprints) == []
        # A fresh finding in a different module survives the baseline.
        fresh = case.family.analyze_sources({"other": case.seeded_source}).violations
        assert fresh and apply_baseline(fresh, fingerprints) == fresh
    return test


def baseline_rejects_malformed_files():
    def test(tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 2, "suppressions": []}')
        with pytest.raises(BaselineError):
            load_baseline(bad)
        bad.write_text("not json")
        with pytest.raises(BaselineError):
            load_baseline(bad)
    return test


def sarif_includes_the_catalogue(case):
    def test(corpus_report):
        log = to_sarif([v.to_json() for v in corpus_report.violations])
        assert log["version"] == "2.1.0"
        [run] = log["runs"]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert set(case.rule_ids) <= rule_ids
        assert "RPR101" in rule_ids  # the per-line catalogue rides along
        assert len(run["results"]) == len(corpus_report.violations)
        for result in run["results"]:
            assert result["ruleIndex"] >= 0  # every finding is catalogued
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1 and region["startColumn"] >= 1
    return test


def catalogue_is_complete(case):
    def test():
        rows = case.family.catalogue()
        ids = [rule_id for rule_id, _, _ in rows]
        assert ids == sorted(ids)
        assert tuple(ids) == case.rule_ids
        for rule_id, title, rationale in rows:
            assert title and rationale, rule_id
    return test


def docs_cover_every_rule(case, linting=(), performance=()):
    """Every rule ID and title in docs/linting.md, plus extra phrases
    required in docs/linting.md and docs/performance.md."""
    def test():
        docs = (REPO_ROOT / "docs" / "linting.md").read_text(encoding="utf-8")
        for rule_id, title, _ in case.family.catalogue():
            assert rule_id in docs, f"{rule_id} missing from docs/linting.md"
            assert title in docs, f"title of {rule_id} missing from docs/linting.md"
        for phrase in linting:
            assert phrase in docs, phrase
        perf = (REPO_ROOT / "docs" / "performance.md").read_text(encoding="utf-8")
        for phrase in performance:
            assert phrase in perf, phrase
    return test


def real_source_tree_is_clean(case):
    """``src/repro`` analyzes clean, within the 10 s wall budget."""
    def test():
        start = time.perf_counter()
        report = case.family.analyze_paths([str(SRC / "repro")], root=REPO_ROOT)
        assert time.perf_counter() - start < 10.0
        assert report.errors == []
        assert report.violations == [], "\n".join(
            v.format() for v in report.violations
        )
    return test


def _check(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro", "check", *args,
         "--no-external", "--no-contract", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@functools.lru_cache(maxsize=None)
def repro_check_gate():
    """The full ``repro check`` gate over ``src`` as JSON, run once per test run.

    Every static family plus the runtime engine-contract sweep (and
    ruff/mypy when installed): a superset of a ``--no-contract`` run, so
    each test about the repository's own check reads this one
    subprocess.  Asserts the gate exits 0.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout)


def check_json_reports_timing(case):
    def test():
        payload = repro_check_gate()
        assert payload["ok"] is True
        [tool] = [t for t in payload["tools"] if t["name"] == case.family.tool]
        assert tool["status"] == "passed"
        assert tool["data"]["elapsed_s"] < 10.0
        assert tool["data"]["modules"] > 50
    return test


def check_flags_baselines_and_exports(case):
    """Seed one finding, export it as SARIF, baseline it, go green."""
    def test(tmp_path):
        bad = tmp_path / "pkg"
        bad.mkdir()
        (bad / "seeded.py").write_text(case.seeded_source, encoding="utf-8")
        sarif_path = tmp_path / "out.sarif"

        proc = _check(str(bad), "--sarif", str(sarif_path))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        [tool] = [t for t in payload["tools"] if t["name"] == case.family.tool]
        [violation] = tool["violations"]
        assert violation["rule"] == case.seeded_rule
        sarif = json.loads(sarif_path.read_text(encoding="utf-8"))
        assert [r["ruleId"] for r in sarif["runs"][0]["results"]] == [case.seeded_rule]

        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps({
                "version": 1,
                "suppressions": [{
                    "rule": violation["rule"],
                    "path": violation["path"],
                    "symbol": violation["symbol"],
                }],
            }),
            encoding="utf-8",
        )
        proc = _check(str(bad), "--baseline", str(baseline_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        [tool] = [t for t in payload["tools"] if t["name"] == case.family.tool]
        assert tool["violations"] == []
        assert tool["data"]["suppressed_by_baseline"] == 1
    return test
