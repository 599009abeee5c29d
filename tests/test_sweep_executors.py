"""Sweep executors: byte-identical results on every execution strategy.

Pins two contracts of :mod:`repro.analysis.sweep`:

* the documented seed-derivation scheme (``root.spawn`` per config, then
  per repetition) — golden values so it cannot drift silently, and
* executor equivalence — ``serial`` / ``process`` / ``batched`` and any
  ``jobs`` count produce cell-for-cell identical samples.
"""

import multiprocessing

import numpy as np
import pytest

from repro.analysis.measurements import StabilizationRounds
from repro.analysis.sweep import (
    EXECUTORS,
    SweepWorkerError,
    run_sweep,
    spawn_sweep_seeds,
    supports_batch,
)
from repro.obs import MetricsOptions

CONFIGS = [{"family": "er", "n": 24}, {"family": "cycle", "n": 20}]
MEASURE = StabilizationRounds(variant="max_degree")


def _first_uniform(config, rng):
    """Minimal measurement: the first uniform draw, scaled to an int."""
    return float(np.floor(rng.random() * 1e6))


# ----------------------------------------------------------------------
# Seed derivation (satellite: the once-unused SeedSequence root)
# ----------------------------------------------------------------------
def test_seed_tree_shape_and_spawn_keys():
    seeds = spawn_sweep_seeds(7, 2, 3)
    assert len(seeds) == 2 and all(len(row) == 3 for row in seeds)
    keys = [[child.spawn_key for child in row] for row in seeds]
    assert keys == [[(0, 0), (0, 1), (0, 2)], [(1, 0), (1, 1), (1, 2)]]
    assert all(c.entropy == 7 for row in seeds for c in row)


def test_seed_tree_golden_values():
    """First 32-bit draw of every grandchild generator, pinned."""
    seeds = spawn_sweep_seeds(7, 2, 3)
    draws = [
        [int(np.random.default_rng(c).integers(2**32)) for c in row]
        for row in seeds
    ]
    assert draws == [
        [3643784255, 2687721581, 3453924699],
        [2986931408, 3069037426, 2567386825],
    ]


def test_run_sweep_golden_samples():
    """End-to-end golden values through the serial executor."""
    result = run_sweep(
        [{"k": 0}, {"k": 1}], _first_uniform, repetitions=3, master_seed=7
    )
    assert [list(c.samples) for c in result.cells] == [
        [392107.0, 872908.0, 309797.0],
        [589807.0, 481523.0, 478895.0],
    ]


def test_run_sweep_golden_stabilization_samples():
    """The real measurement on a fixed graph — pins engine + seed tree."""
    result = run_sweep(
        [{"family": "er", "n": 32}], MEASURE, repetitions=4, master_seed=42,
        executor="serial",
    )
    assert list(result.cells[0].samples) == [35.0, 43.0, 37.0, 39.0]


def test_distinct_master_seeds_differ():
    a = run_sweep(CONFIGS, _first_uniform, repetitions=3, master_seed=0)
    b = run_sweep(CONFIGS, _first_uniform, repetitions=3, master_seed=1)
    assert [c.samples for c in a.cells] != [c.samples for c in b.cells]


# ----------------------------------------------------------------------
# Executor equivalence
# ----------------------------------------------------------------------
def _samples(result):
    return [list(cell.samples) for cell in result.cells]


def test_batched_equals_serial():
    serial = run_sweep(
        CONFIGS, MEASURE, repetitions=5, master_seed=3, executor="serial"
    )
    batched = run_sweep(
        CONFIGS, MEASURE, repetitions=5, master_seed=3, executor="batched"
    )
    assert _samples(serial) == _samples(batched)


def test_process_jobs4_equals_serial_jobs1():
    serial = run_sweep(
        CONFIGS, MEASURE, repetitions=6, master_seed=9, jobs=1,
        executor="serial",
    )
    parallel = run_sweep(
        CONFIGS, MEASURE, repetitions=6, master_seed=9, jobs=4,
        executor="process",
    )
    assert _samples(serial) == _samples(parallel)


def test_batched_parallel_equals_batched_serial():
    one = run_sweep(
        CONFIGS, MEASURE, repetitions=4, master_seed=5, jobs=1,
        executor="batched",
    )
    many = run_sweep(
        CONFIGS, MEASURE, repetitions=4, master_seed=5, jobs=3,
        executor="batched",
    )
    assert _samples(one) == _samples(many)


def test_auto_resolution_prefers_batched():
    auto = run_sweep(CONFIGS, MEASURE, repetitions=3, master_seed=2)
    explicit = run_sweep(
        CONFIGS, MEASURE, repetitions=3, master_seed=2, executor="batched"
    )
    assert _samples(auto) == _samples(explicit)


# ----------------------------------------------------------------------
# Knob validation
# ----------------------------------------------------------------------
def test_supports_batch():
    assert supports_batch(MEASURE)
    assert not supports_batch(_first_uniform)


def test_batched_requires_measure_batch():
    with pytest.raises(ValueError, match="measure_batch"):
        run_sweep(
            CONFIGS, _first_uniform, repetitions=2, executor="batched"
        )


def test_unknown_executor_rejected():
    with pytest.raises(ValueError, match="unknown executor"):
        run_sweep(CONFIGS, _first_uniform, repetitions=2, executor="gpu")
    assert set(EXECUTORS) == {"auto", "serial", "process", "batched"}


def test_invalid_jobs_and_repetitions():
    with pytest.raises(ValueError):
        run_sweep(CONFIGS, _first_uniform, repetitions=0)
    with pytest.raises(ValueError):
        run_sweep(CONFIGS, _first_uniform, repetitions=2, jobs=0)


# ----------------------------------------------------------------------
# Unpicklable measurements fail loudly at submit
# ----------------------------------------------------------------------
def test_unpicklable_measurement_fails_at_submit_and_shuts_the_pool_down(
    monkeypatch,
):
    """A lambda handed to the process executor raises PicklingError
    instead of hanging, and the owned pool is shut down afterwards."""
    import pickle

    import repro.analysis.sweep as sweep_module

    pools = []

    class RecordingPool(sweep_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", RecordingPool)
    # Pickling a local object raises AttributeError before Python 3.14
    # and PicklingError from 3.14 on.
    with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
        run_sweep(
            [{"n": 4}], lambda config, rng: 0.0,
            repetitions=4, jobs=2, executor="process",
        )
    [pool] = pools
    with pytest.raises(RuntimeError, match="shutdown"):
        pool.submit(int)


# ----------------------------------------------------------------------
# Pool lifecycle: every parallel path merges by index and leaves no worker
# ----------------------------------------------------------------------
def _worker_pids():
    return {child.pid for child in multiprocessing.active_children()}


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "metrics"])
@pytest.mark.parametrize("executor", ["process", "batched"])
def test_parallel_sweep_merges_in_order_and_leaves_no_worker(executor, observed):
    """jobs=2 through each of the four pool blocks equals the serial run."""

    def sweep(jobs, chosen):
        return run_sweep(
            CONFIGS, MEASURE, repetitions=3, master_seed=11, jobs=jobs,
            executor=chosen, metrics=MetricsOptions() if observed else None,
        )

    serial = sweep(1, "serial")
    before = _worker_pids()
    parallel = sweep(2, executor)
    assert _samples(parallel) == _samples(serial)
    if observed:
        assert parallel.metrics.records == serial.metrics.records
    assert _worker_pids() - before == set()


# ----------------------------------------------------------------------
# Worker-crash recovery
# ----------------------------------------------------------------------
def _crash_on_flag(config, rng):
    """Module-level (picklable) measurement that kills its own worker."""
    import os

    if config.get("crash"):
        os._exit(13)
    return float(rng.random())


def test_worker_crash_surfaces_named_error_and_cleans_up():
    """os._exit in a worker → SweepWorkerError, and no worker survives."""
    before = _worker_pids()
    with pytest.raises(SweepWorkerError, match="died mid-task"):
        run_sweep(
            [{"crash": 1}],
            _crash_on_flag,
            repetitions=2,
            master_seed=7,
            jobs=2,
            executor="process",
        )
    # run_sweep shut its pool down before the error left the call.
    assert _worker_pids() - before == set()
