"""The determinism & contract linter: every rule, both directions.

For each rule: a snippet it MUST flag and a clean snippet it MUST pass.
Plus: pragma suppression, the real ``src/`` tree staying clean, and the
``repro check`` exit-code contract (0 on the repo, non-zero with rule
IDs and file:line locations on a seeded-violation fixture).
"""

import json
import subprocess
import sys
from pathlib import Path

from analysis_cases import repro_check_gate
from repro.devtools.rules import (
    LintReport,
    lint_paths,
    lint_source,
    rule_catalogue,
    rules_by_id,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def rules(rule_id):
    return [rules_by_id()[rule_id]]


def flagged(source, rule_id, module="repro.core.engines.fake"):
    return [
        v
        for v in lint_source(source, path="snippet.py", module=module,
                             rules=rules(rule_id))
        if v.rule == rule_id
    ]


# ----------------------------------------------------------------------
# RPR1xx — RNG discipline
# ----------------------------------------------------------------------
def test_rpr101_flags_legacy_global_rng():
    bad = "import numpy as np\nx = np.random.shuffle(items)\n"
    assert flagged(bad, "RPR101")


def test_rpr101_passes_generator_era_api():
    good = (
        "import numpy as np\n"
        "rng = np.random.default_rng(7)\n"
        "ss = np.random.SeedSequence(3)\n"
        "g = np.random.Generator(np.random.PCG64(1))\n"
    )
    assert not flagged(good, "RPR101")


def test_rpr102_flags_unseeded_default_rng():
    for bad in (
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nrng = np.random.default_rng(None)\n",
        "from numpy.random import default_rng\nrng = default_rng(seed=None)\n",
    ):
        assert flagged(bad, "RPR102"), bad


def test_rpr102_passes_seeded_and_forwarded_calls():
    good = (
        "import numpy as np\n"
        "rng1 = np.random.default_rng(0)\n"
        "def f(seed):\n"
        "    return np.random.default_rng(seed)\n"
    )
    assert not flagged(good, "RPR102")


def test_rpr103_flags_stdlib_random():
    assert flagged("import random\n", "RPR103")
    assert flagged("from random import shuffle\n", "RPR103")


def test_rpr103_passes_numpy_random():
    assert not flagged("import numpy.random\nfrom numpy import random\n", "RPR103")


def test_rpr104_flags_seedless_simulate_api():
    bad = "def simulate_everything(graph, policy):\n    return None\n"
    assert flagged(bad, "RPR104")


def test_rpr104_passes_seed_accepting_apis():
    good = (
        "def simulate_single(graph, policy, seed=None):\n    return None\n"
        "def simulate_batched(graph, policy, seed_sequences=None):\n"
        "    return None\n"
        "def helper(x):\n    return x\n"
    )
    assert not flagged(good, "RPR104")


def test_rpr105_flags_rng_construction_in_stress_models():
    for bad in (
        "from repro.devtools.seeding import resolve_rng\n"
        "rng = resolve_rng(0)\n",
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        "from repro.devtools.seeding import derive_seed_sequence\n"
        "root = derive_seed_sequence(rng)\n",
        "children = seq.spawn(2)\n",
    ):
        for module in ("repro.beeping.channels", "repro.beeping.schedulers"):
            assert flagged(bad, "RPR105", module=module), (module, bad)


def test_rpr105_ignores_other_modules_and_stream_consumption():
    # The same constructions are fine anywhere else (the engines *own*
    # the seed tree)...
    bad = "from repro.devtools.seeding import resolve_rng\nrng = resolve_rng(0)\n"
    assert not flagged(bad, "RPR105", module="repro.core.engines.base")
    # ...and consuming a passed-in stream inside the models is the
    # sanctioned pattern.
    good = "def _perturb(self, heard, rng):\n    return rng.random(heard.shape)\n"
    assert not flagged(good, "RPR105", module="repro.beeping.channels")


def test_rpr105_real_stress_modules_are_clean():
    for name in ("channels", "schedulers"):
        path = SRC / "repro" / "beeping" / f"{name}.py"
        source = path.read_text(encoding="utf-8")
        assert not flagged(source, "RPR105", module=f"repro.beeping.{name}")


# ----------------------------------------------------------------------
# RPR2xx — determinism
# ----------------------------------------------------------------------
def test_rpr201_flags_wall_clock_and_entropy():
    for bad in (
        "import time\nt = time.time()\n",
        "import os\nb = os.urandom(8)\n",
        "import datetime\nd = datetime.datetime.now()\n",
        "import uuid\nu = uuid.uuid4()\n",
    ):
        assert flagged(bad, "RPR201"), bad


def test_rpr201_passes_deterministic_code():
    good = "import time\nname = time.strftime\n"  # referenced, not called
    assert not flagged(good, "RPR201")


def test_rpr202_flags_set_iteration():
    for bad in (
        "for x in {3, 1, 2}:\n    pass\n",
        "for x in set(items):\n    pass\n",
        "ys = [f(x) for x in {a, b}]\n",
    ):
        assert flagged(bad, "RPR202"), bad


def test_rpr202_passes_sorted_iteration():
    good = (
        "for x in sorted({3, 1, 2}):\n    pass\n"
        "for x in sorted(set(items)):\n    pass\n"
        "for x in [1, 2, 3]:\n    pass\n"
    )
    assert not flagged(good, "RPR202")


# ----------------------------------------------------------------------
# RPR3xx — numeric safety
# ----------------------------------------------------------------------
def test_rpr301_flags_float_equality():
    assert flagged("ok = p == 0.5\n", "RPR301")
    assert flagged("ok = 0.25 != q\n", "RPR301")


def test_rpr301_passes_sentinels_and_tolerant_compares():
    good = (
        "a = p == 0.0\n"
        "b = p == 1.0\n"
        "c = abs(p - 0.5) < 1e-9\n"
        "d = x == 3\n"
    )
    assert not flagged(good, "RPR301")


def test_rpr302_flags_small_int_dtypes():
    for bad in (
        "import numpy as np\nx = beeps.astype(np.int8)\n",
        "import numpy as np\nx = np.zeros(5, dtype=np.int16)\n",
        'x = a.astype("int8")\n',
        'import numpy as np\nx = np.array(data, dtype="uint8")\n',
    ):
        assert flagged(bad, "RPR302"), bad


def test_rpr302_passes_wide_dtypes():
    good = (
        "import numpy as np\n"
        "x = beeps.astype(np.int32)\n"
        "y = np.zeros(5, dtype=np.int64)\n"
        'z = a.astype("float64")\n'
    )
    assert not flagged(good, "RPR302")


def test_rpr302_exempts_view_into_wide_accumulator():
    # Reinterpreting a bool mask as int8 cannot wrap when the reduction
    # pins a wide accumulator dtype (the _row_counts idiom).
    good = (
        "import numpy as np\n"
        'x = np.einsum("ij->i", mask.view(np.int8), dtype=np.int32)\n'
    )
    assert not flagged(good, "RPR302")
    # ... but the same view without a wide accumulator still flags.
    for bad in (
        "import numpy as np\nx = mask.view(np.int8).sum(axis=1)\n",
        "import numpy as np\n"
        'x = np.einsum("ij->i", mask.view(np.int8), dtype=np.int16)\n',
    ):
        assert flagged(bad, "RPR302"), bad


# ----------------------------------------------------------------------
# RPR5xx — profiling discipline
# ----------------------------------------------------------------------
def test_rpr501_flags_ad_hoc_timers():
    for bad in (
        "import time\nt0 = time.perf_counter()\n",
        "import time\nt0 = time.process_time()\n",
        "import time\nt0 = time.monotonic_ns()\n",
    ):
        assert flagged(bad, "RPR501"), bad


def test_rpr501_passes_profiler_usage_and_references():
    good = (
        "from repro.obs import PhaseProfiler\n"
        "profiler = PhaseProfiler()\n"
        "with profiler.phase('sweep'):\n"
        "    run()\n"
        "clock = time.perf_counter  # referenced, not called\n"
    )
    assert not flagged(good, "RPR501")


def test_rpr501_exempts_the_profiling_module():
    timer_call = "import time\nt0 = time.perf_counter()\n"
    assert not flagged(timer_call, "RPR501", module="repro.obs.profiling")
    # RPR201 shares the exemption for the timer subset...
    assert not flagged(timer_call, "RPR201", module="repro.obs.profiling")
    # ...but non-timer entropy stays forbidden even there.
    entropy = "import os\nb = os.urandom(8)\n"
    assert flagged(entropy, "RPR201", module="repro.obs.profiling")


# ----------------------------------------------------------------------
# Driver behavior
# ----------------------------------------------------------------------
def test_pragma_suppression():
    bad = "import numpy as np\nx = np.random.shuffle(i)  # repro: allow[RPR101]\n"
    assert not flagged(bad, "RPR101")
    wildcard = "import random  # repro: allow[*]\n"
    assert not flagged(wildcard, "RPR103")
    wrong_rule = "import random  # repro: allow[RPR999]\n"
    assert flagged(wrong_rule, "RPR103")


def test_file_pragma_suppresses_anywhere_in_the_file():
    bad = (
        "# repro: allow-file[RPR101]\n"
        "import numpy as np\n"
        "x = np.random.shuffle(items)\n"
        "y = np.random.shuffle(others)\n"
    )
    assert not flagged(bad, "RPR101")
    # The pragma works from any line, not just the header.
    trailer = (
        "import numpy as np\n"
        "x = np.random.shuffle(items)\n"
        "# repro: allow-file[RPR101]\n"
    )
    assert not flagged(trailer, "RPR101")


def test_file_pragma_round_trips_every_catalogued_rule():
    """``allow-file[ID]`` must parse and suppress for each rule in the
    catalogue (and only that rule)."""
    bad = "import numpy as np\nx = np.random.shuffle(items)\n"
    for rule_id, _, _ in rule_catalogue():
        pragma = f"# repro: allow-file[{rule_id}]\n"
        suppressed = not flagged(pragma + bad, "RPR101")
        assert suppressed == (rule_id == "RPR101"), rule_id


def test_file_pragma_wildcard_and_wrong_rule():
    bad = "# repro: allow-file[RPR999]\nimport random\n"
    assert flagged(bad, "RPR103")
    wildcard = "# repro: allow-file[*]\nimport random\n"
    assert not flagged(wildcard, "RPR103")


def test_lint_paths_reports_and_sorts(tmp_path):
    (tmp_path / "a.py").write_text(
        "import random\nimport numpy as np\nr = np.random.default_rng()\n"
    )
    (tmp_path / "b.py").write_text("x = 1\n")
    report = lint_paths([str(tmp_path)])
    assert isinstance(report, LintReport)
    assert report.checked_files == 2
    assert not report.ok
    ids = [v.rule for v in report.violations]
    assert "RPR102" in ids and "RPR103" in ids
    # Human format carries file:line locations.
    assert "a.py:1" in report.format()


def test_parse_errors_are_reported_not_raised(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    report = lint_paths([str(tmp_path)])
    assert report.parse_errors and not report.ok


def test_docs_cover_every_lint_rule():
    # Older entries phrase their headings with markdown backticks, so
    # only the stable rule IDs are matched verbatim; the RPR105 entry
    # (added with this check) also pins its title text.
    docs = (REPO_ROOT / "docs" / "linting.md").read_text(encoding="utf-8")
    for rule_id, title, _ in rule_catalogue():
        assert f"### {rule_id} — " in docs, f"{rule_id} missing from docs/linting.md"
    assert "stress model builds its own RNG" in docs


def test_rule_catalogue_is_complete():
    rows = rule_catalogue()
    ids = [rule_id for rule_id, _, _ in rows]
    assert ids == sorted(ids)
    assert set(ids) == {
        "RPR101", "RPR102", "RPR103", "RPR104", "RPR105",
        "RPR201", "RPR202", "RPR301", "RPR302", "RPR501",
    }
    for rule_id, title, rationale in rows:
        assert title and rationale, rule_id


# ----------------------------------------------------------------------
# The real tree and the CLI gate
# ----------------------------------------------------------------------
def test_real_source_tree_is_lint_clean():
    report = lint_paths([str(SRC)], root=REPO_ROOT)
    assert report.ok, "\n" + report.format()


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=str(cwd),
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


def test_repro_check_exits_zero_on_repo():
    payload = repro_check_gate()  # asserts exit code 0
    assert payload["ok"] is True
    names = {tool["name"] for tool in payload["tools"]}
    assert "repro-lint" in names


def test_repro_check_exits_nonzero_on_seeded_violation(tmp_path):
    bad = tmp_path / "seeded.py"
    bad.write_text(
        "import numpy as np\n"
        "def simulate_bad(graph):\n"
        "    return np.random.default_rng()\n"
    )
    proc = _run_cli(
        ["check", "--format", "json", "--no-contract", str(tmp_path)],
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["ok"] is False
    lint_tool = next(t for t in payload["tools"] if t["name"] == "repro-lint")
    rule_ids = {v["rule"] for v in lint_tool["violations"]}
    assert {"RPR102", "RPR104"} <= rule_ids
    # Every violation carries a file and a line.
    for violation in lint_tool["violations"]:
        assert violation["path"].endswith("seeded.py")
        assert violation["line"] >= 1


def test_repro_check_full_gate_is_green():
    """The acceptance criterion: `python -m repro check` exits 0 on the
    repository, including the runtime engine-contract sweep."""
    payload = repro_check_gate()  # asserts exit code 0
    assert "engine-contract" in {tool["name"] for tool in payload["tools"]}
