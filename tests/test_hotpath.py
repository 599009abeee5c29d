"""The hot-path hygiene analyzer & allocation auditor: every RPR8xx rule.

Covers: the fixture corpus (one flagging and one clean file per rule,
with the RPR801 helper chain split across a module boundary and a two-hop
interprocedural flag case), hot-region scoping (setup escapes, driver
loop bodies, ``# repro: cold``), escape analysis, the runtime
steady-state allocation audit (tiny combo unconditionally, the full grid
under ``REPRO_SANITIZE=1``), and — through the shared
:mod:`analysis_cases` checks — pragma handling at both granularities,
baseline round-trips, SARIF output, the ``repro check`` integration,
catalogue/docs sync, and the wall-time budget on the real tree.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

import analysis_cases as cases
from repro.devtools.hotpath import analyze_paths, analyze_sources
from repro.devtools.hotpath.audit import (
    DEFAULT_THRESHOLD_BYTES,
    allocation_summary,
    run_allocation_audit,
)

REPO_ROOT = cases.REPO_ROOT


CASE = cases.HOTPATH
ALL_RULE_IDS = CASE.rule_ids

_SANITIZE = bool(os.environ.get("REPRO_SANITIZE"))


@pytest.fixture(scope="module")
def corpus_report():
    return analyze_paths([str(cases.FIXTURES)], root=REPO_ROOT)


def rules_in(report, path_fragment):
    return sorted(
        v.rule for v in report.violations if path_fragment in v.path
    )


# ----------------------------------------------------------------------
# The fixture corpus: each rule fires on its flag file, never on clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_catches_its_seeded_fixture(corpus_report, rule_id):
    stem = f"df{rule_id[3:]}_flag"
    flagged = rules_in(corpus_report, stem)
    assert flagged and set(flagged) == {rule_id}


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_passes_its_clean_fixture(corpus_report, rule_id):
    stem = f"df{rule_id[3:]}_clean"
    assert rules_in(corpus_report, stem) == []


def test_corpus_parses_cleanly(corpus_report):
    assert corpus_report.errors == []
    assert rules_in(corpus_report, "df801_lib") == []


def test_rpr801_charges_the_two_hop_helper_at_the_hot_call_site(corpus_report):
    """step → _staging → df801_lib.fresh_levels: flagged where discarded."""
    [violation] = [
        v for v in corpus_report.violations
        if "df801_flag" in v.path and "only returns fresh arrays" in v.message
    ]
    assert violation.symbol.endswith("ToyEngine.step")
    assert "_staging" in violation.message


def test_rpr804_flags_both_the_constructor_and_np_where(corpus_report):
    flagged = [
        v for v in corpus_report.violations if "df804_flag" in v.path
    ]
    assert len(flagged) == 2
    assert any("numpy" in v.message or "np.where" in v.message
               for v in flagged)


# ----------------------------------------------------------------------
# Hot-region scoping on in-memory sources
# ----------------------------------------------------------------------
def test_escaped_allocations_are_the_callers_problem():
    """Returning or attribute-storing a fresh array transfers ownership."""
    report = analyze_sources({
        "m": (
            "import numpy as np\n"
            "class ToyEngine:\n"
            "    def step(self):\n"
            "        beeps = np.zeros(8, dtype=bool)\n"
            "        return beeps\n"
            "    def stash(self):\n"
            "        self.last = np.zeros(8, dtype=np.int64)[0:4]\n"
        )
    })
    assert report.violations == []


def test_out_kwarg_draws_are_the_blessed_pattern():
    flagged = analyze_sources({
        "m": (
            "class ToyEngine:\n"
            "    def step(self):\n"
            "        draws = self.rng.random(8)\n"
            "        return bool(draws[0] < 0.5)\n"
        )
    })
    assert [v.rule for v in flagged.violations] == ["RPR801"]
    quiet = analyze_sources({
        "m": (
            "class ToyEngine:\n"
            "    def step(self):\n"
            "        self.rng.random(out=self._draws)\n"
            "        return bool(self._draws[0] < 0.5)\n"
        )
    })
    assert quiet.violations == []


def test_driver_prologue_is_exempt_but_its_loop_body_is_not():
    report = analyze_sources({
        "m": (
            "import numpy as np\n"
            "class ToyEngine:\n"
            "    def run(self, rounds):\n"
            "        warm = np.zeros(8)\n"
            "        warm += 1\n"
            "        for _ in range(rounds):\n"
            "            tmp = np.zeros(8)\n"
            "            tmp += 1\n"
            "        return None\n"
        )
    })
    assert [(v.rule, v.line) for v in report.violations] == [("RPR801", 7)]


def test_setup_methods_are_never_part_of_the_hot_region():
    report = analyze_sources({
        "m": (
            "import numpy as np\n"
            "class ToyEngine:\n"
            "    def step(self):\n"
            "        self.rebind(8)\n"
            "        return None\n"
            "    def rebind(self, n):\n"
            "        scratch = np.zeros(n)\n"
            "        scratch += 1\n"
            "        return None\n"
        )
    })
    assert report.violations == []


def test_cold_pragma_excludes_a_helper_from_the_hot_region():
    source = (
        "import numpy as np\n"
        "class ToyEngine:\n"
        "    def step(self):\n"
        "        return self._debug_view()\n"
        "    def _debug_view(self):{marker}\n"
        "        scratch = np.zeros(8)\n"
        "        scratch += 1\n"
        "        return None\n"
    )
    hot = analyze_sources({"m": source.format(marker="")})
    assert [v.rule for v in hot.violations] == ["RPR801"]
    cold = analyze_sources({"m": source.format(marker="  # repro: cold")})
    assert cold.violations == []


def test_non_engine_classes_are_not_hot_roots():
    report = analyze_sources({
        "m": (
            "import numpy as np\n"
            "class ReferenceNode:\n"
            "    def step(self):\n"
            "        scratch = np.zeros(8)\n"
            "        scratch += 1\n"
            "        return None\n"
        )
    })
    assert report.violations == []


def test_engine_base_subclasses_are_hot_through_inheritance():
    report = analyze_sources({
        "base": (
            "class EngineBase:\n"
            "    def until_stable(self):\n"
            "        return None\n"
        ),
        "m": (
            "import numpy as np\n"
            "from base import EngineBase\n"
            "class Replica(EngineBase):\n"
            "    def step(self):\n"
            "        scratch = np.zeros(8)\n"
            "        scratch += 1\n"
            "        return None\n"
        ),
    })
    assert [v.rule for v in report.violations] == ["RPR801"]


def test_rpr805_flags_the_profile_decorator():
    report = analyze_sources({
        "m": (
            "def profile(fn):\n"
            "    return fn\n"
            "class ToyEngine:\n"
            "    @profile\n"
            "    def step(self):\n"
            "        return None\n"
        )
    })
    assert [v.rule for v in report.violations] == ["RPR805"]


# ----------------------------------------------------------------------
# Shared infrastructure checks (tests/analysis_cases.py)
# ----------------------------------------------------------------------
test_line_pragma_suppresses_a_hotpath_finding = cases.line_pragma_suppresses(CASE)
test_file_pragma_is_rule_specific = cases.file_pragma_is_rule_specific(CASE)
test_baseline_round_trip_suppresses_known_findings = cases.baseline_round_trip(CASE)
test_sarif_includes_the_hotpath_catalogue = cases.sarif_includes_the_catalogue(CASE)
test_hotpath_catalogue_is_complete = cases.catalogue_is_complete(CASE)
test_docs_cover_every_hotpath_rule = cases.docs_cover_every_rule(
    CASE, linting=("allocation audit",), performance=("hot-path contract", "RPR801")
)
test_real_source_tree_is_hotpath_clean = cases.real_source_tree_is_clean(CASE)
test_check_json_payload_reports_hotpath_timing = cases.check_json_reports_timing(CASE)
test_check_flags_baselines_and_exports_a_seeded_allocation = (
    cases.check_flags_baselines_and_exports(CASE)
)


# ----------------------------------------------------------------------
# The runtime allocation audit
# ----------------------------------------------------------------------
def test_allocation_audit_tiny_combo_is_steady():
    """Unconditional smoke: one combo must sit under its threshold."""
    results = run_allocation_audit(
        warmup=6, rounds=12, combos=["single"]
    )
    assert results, "combo filter matched nothing"
    for result in results:
        assert result.threshold == DEFAULT_THRESHOLD_BYTES
        assert result.ok, result.format()


def test_allocation_audit_catches_a_seeded_leak(monkeypatch):
    """A deliberately leaky per-round step must blow the threshold."""
    from repro.devtools.hotpath import audit as audit_module

    import numpy as np

    stash = []

    def leaky_step():
        stash.append(np.zeros(4096, dtype=np.float64))

    measured = audit_module._measure_retained(leaky_step, warmup=2, rounds=8)
    assert measured > DEFAULT_THRESHOLD_BYTES


@pytest.mark.skipif(
    not _SANITIZE, reason="full audit grid runs under REPRO_SANITIZE=1"
)
def test_allocation_audit_full_grid_is_steady():
    summary = allocation_summary()
    assert summary["ok"] is True
    assert len(summary["bytes_per_round"]) == 12
    for combo, measured in summary["bytes_per_round"].items():
        assert measured <= summary["threshold_bytes"][combo], combo


# ----------------------------------------------------------------------
# The bench-harness envelope
# ----------------------------------------------------------------------
def test_bench_envelope_embeds_the_allocation_audit(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "_bench_harness", REPO_ROOT / "benchmarks" / "_harness.py"
    )
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))
    path = harness.save_bench_rows(
        "hotpath_audit_test", [{"n": 8, "rounds": 3}]
    )
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    allocation = payload["envelope"]["parameters"]["allocation"]
    assert allocation["ok"] is True
    assert len(allocation["bytes_per_round"]) == 12
    assert {
        "two_channel×unreliable+drift",
        "batched×noisy+drift",
        "single+collector",
        "two_channel+collector",
    } <= set(allocation["bytes_per_round"])
    opt_out = harness.save_bench_rows(
        "hotpath_audit_test2", [{"n": 8}], audit_allocations=False
    )
    payload = json.loads(Path(opt_out).read_text(encoding="utf-8"))
    assert "allocation" not in payload["envelope"]["parameters"]
