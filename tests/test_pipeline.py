"""The shared static-analysis pipeline behind ``repro check``.

Pins what the families share rather than any one rule: every file is
parsed exactly once per ``repro check`` run, one pragma parser serves
every family — honoring *every* ``# repro: allow[...]`` on a line, not
just the first — and every path the ruff and ``mypy --strict`` gates
name exists, so a stale entry fails here and not only where those tools
are installed.
"""

import ast

import pytest

import analysis_cases as cases
from repro.devtools.check import RUFF_TARGETS, STRICT_MYPY_TARGETS, run_check
from repro.devtools.rules import lint_source


def test_repro_check_parses_each_file_once(monkeypatch):
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(str(filename))
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.chdir(cases.REPO_ROOT)
    monkeypatch.setattr(ast, "parse", counting_parse)
    results = run_check(["src"], skip_external=True)
    assert all(r.status == "passed" for r in results), [r.to_json() for r in results]
    files = sorted(
        str(path.relative_to(cases.REPO_ROOT))
        for path in (cases.REPO_ROOT / "src").rglob("*.py")
    )
    assert sorted(parsed) == files


@pytest.mark.parametrize("path", STRICT_MYPY_TARGETS + RUFF_TARGETS)
def test_every_gate_path_exists(path):
    assert (cases.REPO_ROOT / path).exists(), path


@pytest.mark.parametrize("case", cases.CASES, ids=lambda case: case.family.name)
def test_every_pragma_on_a_line_counts(case):
    lines = case.seeded_source.splitlines()
    index = case.seeded_line() - 1
    lines[index] += f"  # repro: allow[RPR101]  # repro: allow[{case.seeded_rule}]"
    source = "\n".join(lines) + "\n"
    assert case.family.analyze_sources({"m": source}).violations == []


def test_every_pragma_on_a_line_counts_for_the_per_line_rules():
    source = "import random  # repro: allow[RPR602]  # repro: allow[RPR103]\n"
    assert lint_source(source, path="snippet.py") == []
