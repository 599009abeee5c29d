"""The runtime sanitizers: traps must trap, audits must pass on the tree.

Proves (a) an injected in-place mutation of an engine-shared array, or
of a collector's view, raises under the freeze, (b) an injected scalar integer overflow raises
under the errstate guard, (c) the RNG draw / seed-tree audits accept
the current engines and would reject off-contract draws, and (d) the
``repro check --sanitize`` gate is green end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.engines.single import SingleChannelEngine
from repro.core.knowledge import max_degree_policy
from repro.devtools.sanitize import (
    check_engine_numerics,
    engine_shared_arrays,
    errstate_guard,
    frozen_arrays,
    run_sanitizers,
)
from repro.graphs.graph import Graph

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_engine(seed=11):
    graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    return SingleChannelEngine(graph, max_degree_policy(graph), seed)


# ----------------------------------------------------------------------
# The traps trap
# ----------------------------------------------------------------------
def test_frozen_arrays_trap_injected_graph_mutation():
    engine = make_engine()
    shared = engine_shared_arrays(engine)
    assert len(shared) >= 4  # csr triplet + ell_max at minimum
    with frozen_arrays(shared):
        with pytest.raises(ValueError, match="read-only"):
            engine.adjacency.data[0] = 99
        with pytest.raises(ValueError, match="read-only"):
            engine.ell_max[0] = 1
    # Flags are restored afterwards.
    assert all(a.flags.writeable for a in shared)
    engine.ell_max[0] = engine.ell_max[0]  # writable again


def test_engine_numerics_traps_a_write_through_the_collector_view(monkeypatch):
    """A collector that writes ``view.floor`` mid-run fails the check."""
    from repro.obs import RunCollector

    original = RunCollector.observe_masks

    def scribble(self, *args, **kwargs):
        self.view.floor[0] = self.view.floor[0]
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RunCollector, "observe_masks", scribble)
    result = check_engine_numerics()
    assert not result.ok
    assert "read-only" in result.detail


def test_frozen_arrays_restore_on_error():
    engine = make_engine()
    shared = engine_shared_arrays(engine)
    with pytest.raises(RuntimeError):
        with frozen_arrays(shared):
            raise RuntimeError("boom")
    assert all(a.flags.writeable for a in shared)


def test_errstate_traps_injected_int_overflow():
    with errstate_guard():
        with pytest.raises(FloatingPointError):
            np.int8(127) + np.int8(1)


def test_errstate_traps_injected_invalid_op():
    with errstate_guard():
        with pytest.raises(FloatingPointError):
            np.float64(0.0) / np.float64(0.0)


def test_engine_runs_clean_under_both_traps():
    engine = make_engine()
    engine.randomize_levels()
    with errstate_guard(), frozen_arrays(engine_shared_arrays(engine)):
        result = engine.until_stable(10_000)
    assert result.stabilized


# ----------------------------------------------------------------------
# The audits audit
# ----------------------------------------------------------------------
def test_rng_twin_replay_detects_off_contract_draws():
    """An engine that drew extra randomness diverges from the twin."""
    from repro.devtools.seeding import resolve_rng

    engine = make_engine(seed=5)
    rounds = 16
    for _ in range(rounds):
        engine.step()
    engine.rng.random()  # the injected off-contract draw
    twin = resolve_rng(5)
    for _ in range(rounds):
        twin.random(engine.n)
    assert engine.rng.bit_generator.state != twin.bit_generator.state


def test_run_sanitizers_all_green():
    results = run_sanitizers()
    assert [r.name for r in results] == [
        "engine-numerics",
        "rng-draw-audit",
        "batched-seed-tree",
        "sweep-seed-tree",
        "pool-crash-recovery",
        "hotpath-allocation-audit",
    ]
    failures = [r.format() for r in results if not r.ok]
    assert not failures, "\n".join(failures)


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def test_check_sanitize_gate_is_green():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--sanitize",
         "--no-external", "--no-contract", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    [sanitizers] = [t for t in payload["tools"] if t["name"] == "sanitizers"]
    assert sanitizers["status"] == "passed"
    checks = {c["name"]: c["ok"] for c in sanitizers["data"]["checks"]}
    assert checks == {
        "engine-numerics": True,
        "rng-draw-audit": True,
        "batched-seed-tree": True,
        "sweep-seed-tree": True,
        "pool-crash-recovery": True,
        "hotpath-allocation-audit": True,
    }
