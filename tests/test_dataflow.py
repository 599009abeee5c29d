"""The whole-program dataflow analyzer: every RPR6xx rule, both directions.

Covers: the fixture corpus (one flagging and one clean file per rule,
with the RPR611 case split across a module boundary), interprocedural
depth, and — through the shared :mod:`analysis_cases` checks — pragma
handling at both granularities, baseline round-trips, SARIF output, the
``repro check`` integration, catalogue/docs sync, and the wall-time
budget on the real tree.
"""

import pytest

import analysis_cases as cases
from repro.devtools.dataflow import analyze_paths, analyze_sources


CASE = cases.DATAFLOW
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
    assert rules_in(corpus_report, stem) == [rule_id]


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_passes_its_clean_fixture(corpus_report, rule_id):
    stem = f"df{rule_id[3:]}_clean"
    assert rules_in(corpus_report, stem) == []


def test_corpus_parses_cleanly(corpus_report):
    assert corpus_report.errors == []


def test_rpr611_crosses_the_module_boundary(corpus_report):
    """The reintroduced PR-1 bug: producer and matvec in different files."""
    [violation] = [
        v for v in corpus_report.violations if "df611_flag" in v.path
    ]
    # Flagged at the call site in run(), citing the helper it flows through.
    assert violation.symbol.endswith(".run")
    assert "neighbor_counts" in violation.message


def test_rpr601_flags_two_hops_from_the_raw_generator(corpus_report):
    [violation] = [
        v for v in corpus_report.violations if "df601_flag" in v.path
    ]
    assert violation.symbol.endswith(".top")


# ----------------------------------------------------------------------
# Interprocedural behavior on in-memory sources
# ----------------------------------------------------------------------
def test_rpr601_direct_raw_generator_into_entry_point():
    report = analyze_sources({
        "m": (
            "import numpy as np\n"
            "def simulate(graph, seed=None):\n"
            "    return seed\n"
            "def run(graph):\n"
            "    rng = np.random.default_rng(0)\n"
            "    return simulate(graph, seed=rng)\n"
        )
    })
    assert [v.rule for v in report.violations] == ["RPR601"]


def test_rpr601_blessed_generator_is_fine():
    report = analyze_sources({
        "m": (
            "from repro.devtools.seeding import resolve_rng\n"
            "def simulate(graph, seed=None):\n"
            "    return seed\n"
            "def run(graph, seed):\n"
            "    return simulate(graph, seed=resolve_rng(seed))\n"
        )
    })
    assert report.violations == []


def test_rpr602_loop_consumption_of_outer_seed():
    report = analyze_sources({
        "m": (
            "from repro.devtools.seeding import resolve_rng\n"
            "def run(seed, n):\n"
            "    out = []\n"
            "    for _ in range(n):\n"
            "        out.append(resolve_rng(seed))\n"
            "    return out\n"
        )
    })
    assert [v.rule for v in report.violations] == ["RPR602"]
    assert "loop" in report.violations[0].message


def test_rpr602_not_fooled_by_terminated_branches():
    """A consume in a returning branch must not merge into the fall-through."""
    report = analyze_sources({
        "m": (
            "from repro.devtools.seeding import resolve_rng\n"
            "def run(seed, fast):\n"
            "    if fast:\n"
            "        return resolve_rng(seed)\n"
            "    return resolve_rng(seed)\n"
        )
    })
    assert report.violations == []


def test_rpr602_reassignment_resets_the_count():
    report = analyze_sources({
        "m": (
            "from repro.devtools.seeding import resolve_rng\n"
            "def run(seed):\n"
            "    a = resolve_rng(seed)\n"
            "    seed = 123\n"
            "    b = resolve_rng(seed)\n"
            "    return a, b\n"
        )
    })
    assert report.violations == []


def test_rpr611_dtype_survives_three_hops():
    report = analyze_sources({
        "a": (
            "import numpy as np\n"
            "def make(n):\n"
            "    return np.zeros(n, dtype=np.int8)\n"
        ),
        "b": (
            "from a import make\n"
            "def wrap(n):\n"
            "    return make(n)\n"
        ),
        "c": (
            "from b import wrap\n"
            "def count(adj, n):\n"
            "    return adj.dot(wrap(n))\n"
        ),
    })
    assert [(v.rule, v.path) for v in report.violations] == [("RPR611", "c.py")]


def test_rpr612_out_kwarg_counts_as_a_store():
    report = analyze_sources({
        "m": (
            "import numpy as np\n"
            "def run(x, y):\n"
            "    buf = np.empty(4, dtype=np.int16)\n"
            "    np.add(x, y, out=buf)\n"
            "    return buf\n"
        )
    })
    assert "RPR612" in [v.rule for v in report.violations]


def test_rpr621_augmented_assignment_is_a_mutation():
    report = analyze_sources({
        "m": (
            "def bump(engine):\n"
            "    engine.ell_max += 1\n"
            "    return engine\n"
        )
    })
    assert [v.rule for v in report.violations] == ["RPR621"]


def test_rpr631_flags_sparse_constructor_outside_kernels():
    report = analyze_sources({
        "m": (
            "import scipy.sparse as sp\n"
            "def adjacency(rows, cols, data, n):\n"
            "    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))\n"
        )
    })
    assert [v.rule for v in report.violations] == ["RPR631"]


def test_rpr631_exempts_the_structure_home_modules():
    source = (
        "import scipy.sparse as sp\n"
        "from repro.graphs.io import to_sparse_adjacency\n"
        "def build(graph, n):\n"
        "    direct = to_sparse_adjacency(graph)\n"
        "    return direct, sp.csr_matrix((n, n))\n"
    )
    for module in ("repro.core.kernels.structure", "repro.graphs.io"):
        report = analyze_sources({module: source})
        assert report.violations == [], module
    # The same source anywhere else is flagged at both call sites.
    flagged = analyze_sources({"repro.analysis.helpers": source})
    assert [v.rule for v in flagged.violations] == ["RPR631", "RPR631"]


# ----------------------------------------------------------------------
# Shared infrastructure checks (tests/analysis_cases.py)
# ----------------------------------------------------------------------
test_line_pragma_suppresses_a_dataflow_finding = cases.line_pragma_suppresses(CASE)
test_file_pragma_suppresses_the_whole_file = cases.file_pragma_suppresses_the_whole_file(CASE)
test_file_pragma_is_rule_specific = cases.file_pragma_is_rule_specific(CASE)
test_baseline_round_trip_suppresses_known_findings = cases.baseline_round_trip(CASE)
test_baseline_rejects_malformed_files = cases.baseline_rejects_malformed_files()
test_sarif_structure = cases.sarif_includes_the_catalogue(CASE)
test_dataflow_catalogue_is_complete = cases.catalogue_is_complete(CASE)
test_docs_cover_every_dataflow_rule = cases.docs_cover_every_rule(
    CASE, linting=("--sanitize", "allow-file")
)
test_real_source_tree_is_dataflow_clean = cases.real_source_tree_is_clean(CASE)
test_check_json_payload_reports_dataflow_timing = cases.check_json_reports_timing(CASE)
test_check_baseline_and_sarif_flags = cases.check_flags_baselines_and_exports(CASE)
