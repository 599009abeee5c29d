"""The concurrency & process-lifecycle analyzer: every RPR7xx rule.

Covers: the fixture corpus (one flagging and one clean file per rule,
with a ≥2-hop interprocedural flag case per rule), the must-analysis
edge cases
(escapes, context managers, try/finally, raise paths), and — through
the shared :mod:`analysis_cases` checks — pragma handling at both
granularities, baseline round-trips, SARIF output, the ``repro check``
integration, catalogue/docs sync, and the wall-time budget on the real
tree.
"""

import pytest

import analysis_cases as cases
from repro.devtools.concurrency import analyze_paths, analyze_sources


CASE = cases.CONCURRENCY
ALL_RULE_IDS = CASE.rule_ids


@pytest.fixture(scope="module")
def corpus_report():
    return analyze_paths([str(cases.FIXTURES)], root=cases.REPO_ROOT)


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


def test_rpr703_names_the_captured_state_through_a_hop(corpus_report):
    [violation] = [
        v for v in corpus_report.violations
        if "df703_flag" in v.path and "sample_noise" in v.message
    ]
    assert "_RNG" in violation.message and "draw" in violation.message


def test_rpr704_flags_the_helper_submit_after_shutdown(corpus_report):
    [violation] = [
        v for v in corpus_report.violations
        if v.symbol.endswith(".reuse_after_shutdown")
    ]
    assert "helper submits" in violation.message


def test_rpr705_flags_the_helper_hop(corpus_report):
    [violation] = [
        v for v in corpus_report.violations if v.symbol.endswith(".churn")
        and "df705_flag" in v.path
    ]
    assert "via callee" in violation.message


# ----------------------------------------------------------------------
# Interprocedural behavior on in-memory sources
# ----------------------------------------------------------------------
def test_rpr703_initializer_capture_is_flagged():
    report = analyze_sources({
        "m": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "import numpy as np\n"
            "_RNG = np.random.default_rng(7)\n"
            "def warm():\n"
            "    return _RNG.random()\n"
            "def run(task, item):\n"
            "    with ProcessPoolExecutor(2, initializer=warm) as pool:\n"
            "        return pool.submit(task, item)\n"
        )
    })
    assert [v.rule for v in report.violations] == ["RPR703"]


def test_rpr703_direct_cache_mutation_vs_helper_seeding():
    """Only mutation in the submitted callable's own body counts.

    Calling a helper that mutates a module cache (the blessed
    ``structure_for`` worker idiom) stays quiet.
    """
    flagged = analyze_sources({
        "m": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_CACHE = {}\n"
            "def poison(key):\n"
            "    _CACHE[key] = 1\n"
            "    return key\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor(2) as pool:\n"
            "        return [pool.submit(poison, i) for i in items]\n"
        )
    })
    assert [v.rule for v in flagged.violations] == ["RPR703"]
    quiet = analyze_sources({
        "m": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_CACHE = {}\n"
            "def seed(key):\n"
            "    _CACHE[key] = 1\n"
            "    return key\n"
            "def worker(key):\n"
            "    return seed(key)\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor(2) as pool:\n"
            "        return [pool.submit(worker, i) for i in items]\n"
        )
    })
    assert quiet.violations == []


def test_rpr704_guarded_owner_with_finally_close_is_clean():
    """The owned-pool idiom: conditional create, finally close."""
    report = analyze_sources({
        "m": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(jobs):\n"
            "    owned = None\n"
            "    if jobs > 1:\n"
            "        owned = ProcessPoolExecutor(jobs)\n"
            "    try:\n"
            "        return 1\n"
            "    finally:\n"
            "        if owned is not None:\n"
            "            owned.close()\n"
        )
    })
    assert report.violations == []


def test_rpr704_return_before_finally_sees_the_finally_effects():
    report = analyze_sources({
        "m": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run():\n"
            "    pool = ProcessPoolExecutor(2)\n"
            "    try:\n"
            "        return 1\n"
            "    finally:\n"
            "        pool.shutdown()\n"
        )
    })
    assert report.violations == []


def test_rpr704_early_return_without_finally_is_flagged():
    report = analyze_sources({
        "m": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(flag):\n"
            "    pool = ProcessPoolExecutor(2)\n"
            "    if flag:\n"
            "        return None\n"
            "    pool.shutdown()\n"
        )
    })
    assert [v.rule for v in report.violations] == ["RPR704"]


def test_rpr704_submit_inside_with_block_is_legal():
    report = analyze_sources({
        "m": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(task, items):\n"
            "    with ProcessPoolExecutor(2) as pool:\n"
            "        return [pool.submit(task, i) for i in items]\n"
        )
    })
    assert report.violations == []


def test_rpr705_exempts_the_service_home_modules():
    source = (
        "def apply_op(service):\n"
        "    service.topology.add_node()\n"
        "    return service\n"
    )
    home = analyze_sources({"repro.serve.service": source})
    assert home.violations == []
    elsewhere = analyze_sources({"repro.apps.tool": source})
    assert [v.rule for v in elsewhere.violations] == ["RPR705"]


# ----------------------------------------------------------------------
# Shared infrastructure checks (tests/analysis_cases.py)
# ----------------------------------------------------------------------
test_line_pragma_suppresses_a_concurrency_finding = cases.line_pragma_suppresses(CASE)
test_file_pragma_suppresses_the_whole_file = cases.file_pragma_suppresses_the_whole_file(CASE)
test_file_pragma_is_rule_specific = cases.file_pragma_is_rule_specific(CASE)
test_baseline_round_trip_suppresses_known_findings = cases.baseline_round_trip(CASE)
test_sarif_includes_the_concurrency_catalogue = cases.sarif_includes_the_catalogue(CASE)
test_concurrency_catalogue_is_complete = cases.catalogue_is_complete(CASE)
test_real_source_tree_is_concurrency_clean = cases.real_source_tree_is_clean(CASE)
test_analyzer_wall_time_budget = cases.wall_time_budget(CASE)
test_check_json_payload_reports_concurrency_timing = cases.check_json_reports_timing(CASE)
test_check_flags_baselines_and_exports_a_seeded_leak = (
    cases.check_flags_baselines_and_exports(CASE)
)
test_docs_cover_every_concurrency_rule = cases.docs_cover_every_rule(
    CASE, performance=("concurrency & lifecycle contract", "RPR704")
)
