"""Seeded experiment sweeps: the orchestration layer of the harness.

A sweep runs a measurement function over a grid of configurations ×
seeds, collects per-cell samples, and summarizes them.  All benchmark
modules are thin wrappers over this.

Seed-derivation scheme (stable, documented contract)
----------------------------------------------------
One master seed reproduces the whole sweep, executor-independently::

    root        = np.random.SeedSequence(master_seed)
    config_seqs = root.spawn(len(configs))          # one child per config
    children_i  = config_seqs[i].spawn(repetitions) # one grandchild per rep

Sample ``j`` of configuration ``i`` is
``measure(configs[i], rng_from_sequence(children_i[j]))`` (the blessed
``SeedSequence → Generator`` point in :mod:`repro.devtools.seeding`,
equivalent to ``default_rng(children_i[j])``).  Every
executor hands the *same* grandchild sequences to the measurement, so
results are byte-identical across ``serial`` / ``process`` / ``batched``
executors and any ``jobs`` count — asserted by
``tests/test_sweep_executors.py``, which also pins golden sample values
so the derivation cannot drift silently.

Executors
---------
``serial``
    One process, one repetition at a time (default when ``jobs == 1``
    and the measurement has no batch support).
``process``
    A ``concurrent.futures.ProcessPoolExecutor`` over (config,
    seed-chunk) cells; ``measure`` must be picklable (a module-level
    function or instance of a module-level class — see
    :mod:`repro.analysis.measurements`).
``batched``
    Hands each configuration's whole repetition block to
    ``measure.measure_batch(config, seed_sequences)`` — e.g. the
    multi-replica :class:`~repro.core.engines.batched.BatchedEngine`,
    whose per-replica bit-identity makes this path byte-identical to
    serial.  With ``jobs > 1`` the per-config batch calls are themselves
    distributed over a process pool.
``auto``
    ``batched`` if the measurement supports it, else ``process`` when
    ``jobs > 1``, else ``serial``.

Every parallel path runs on one ``ProcessPoolExecutor`` that the
``run_sweep`` call creates and shuts down; each worker builds the
graphs and structures of the configurations it is handed.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..devtools.seeding import rng_from_sequence
from ..obs.harness import (
    MetricsOptions,
    SweepMetrics,
    SweepRecorder,
    collect_sweep_metrics,
)
from .stats import Summary, summarize
from .tables import format_table

__all__ = [
    "SweepCell",
    "SweepResult",
    "SweepWorkerError",
    "run_sweep",
    "spawn_sweep_seeds",
    "supports_batch",
    "supports_observation",
    "EXECUTORS",
]


class SweepWorkerError(RuntimeError):
    """A pool worker died mid-sweep (crash, OOM kill, ``os._exit``).

    Raised in the parent in place of the bare
    ``concurrent.futures.process.BrokenProcessPool`` so the error names
    the sweep layer and the cleanup guarantee: the ``run_sweep`` call
    still shuts its pool down, so no worker outlives it (every pool is a
    ``with`` block; ``tests/test_sweep_executors.py`` and the
    ``--sanitize`` crash probe check it at runtime).
    """

#: A measurement: (config, rng) → float (e.g. stabilization rounds).
#: Batch-capable measurements additionally expose
#: ``measure_batch(config, seed_sequences) -> Sequence[float]`` with the
#: contract that it equals the per-child serial results.
Measurement = Callable[[Mapping[str, Any], np.random.Generator], float]

EXECUTORS = ("auto", "serial", "process", "batched")


@dataclass(frozen=True)
class SweepCell:
    """One configuration's samples and their summary."""

    config: Mapping[str, Any]
    samples: Tuple[float, ...]
    summary: Summary


@dataclass
class SweepResult:
    """All cells of a sweep, with table/series helpers."""

    cells: List[SweepCell] = field(default_factory=list)
    #: Merged observability output (only when ``run_sweep`` was given a
    #: :class:`repro.obs.MetricsOptions`); samples are unaffected either
    #: way — collectors are zero-perturbation.
    metrics: Optional[SweepMetrics] = None

    def series(self, x_key: str) -> Tuple[List[float], List[float]]:
        """(x values, mean responses) ordered by x — fitting input."""
        pairs = sorted(
            (float(cell.config[x_key]), cell.summary.mean) for cell in self.cells
        )
        return [p[0] for p in pairs], [p[1] for p in pairs]

    def all_samples(self, x_key: str) -> Tuple[List[float], List[float]]:
        """(x, sample) pairs over *all* repetitions — fitting with spread."""
        xs: List[float] = []
        ys: List[float] = []
        for cell in self.cells:
            for sample in cell.samples:
                xs.append(float(cell.config[x_key]))
                ys.append(sample)
        return xs, ys

    def to_table(
        self,
        columns: Sequence[str],
        title: Optional[str] = None,
        precision: int = 1,
    ) -> str:
        """ASCII table: one row per cell, config columns + summary."""
        headers = list(columns) + ["mean", "ci95", "min", "max", "reps"]
        rows: List[List[Any]] = []
        for cell in self.cells:
            s = cell.summary
            half = (s.ci_high - s.ci_low) / 2.0
            rows.append(
                [cell.config.get(c, "") for c in columns]
                + [
                    f"{s.mean:.{precision}f}",
                    f"±{half:.{precision}f}",
                    f"{s.minimum:.{precision}f}",
                    f"{s.maximum:.{precision}f}",
                    s.count,
                ]
            )
        return format_table(headers, rows, title=title)


def spawn_sweep_seeds(
    master_seed: int, num_configs: int, repetitions: int
) -> List[List[np.random.SeedSequence]]:
    """The documented seed tree: ``[config][repetition] -> SeedSequence``."""
    root = np.random.SeedSequence(master_seed)
    return [child.spawn(repetitions) for child in root.spawn(num_configs)]


def supports_batch(measure: Measurement) -> bool:
    """True iff ``measure`` exposes a ``measure_batch`` block interface."""
    return callable(getattr(measure, "measure_batch", None))


def supports_observation(measure: Measurement) -> bool:
    """True iff ``measure`` exposes the observed (metrics) interface."""
    return callable(getattr(measure, "measure_observed", None))


# ----------------------------------------------------------------------
# Worker functions (module-level so ProcessPoolExecutor can pickle them)
# ----------------------------------------------------------------------
def _measure_chunk(
    measure: Measurement,
    config: Mapping[str, Any],
    children: Sequence[np.random.SeedSequence],
) -> List[float]:
    """Serial repetitions for one (config, seed-chunk) cell."""
    return [float(measure(config, rng_from_sequence(c))) for c in children]


def _measure_batch_block(
    measure: Any,
    config: Mapping[str, Any],
    children: Sequence[np.random.SeedSequence],
) -> List[float]:
    """One whole repetition block through the measurement's batch path."""
    samples = [float(x) for x in measure.measure_batch(config, children)]
    if len(samples) != len(children):
        raise RuntimeError(
            f"measure_batch returned {len(samples)} samples for "
            f"{len(children)} seeds"
        )
    return samples


def _observed_chunk(
    measure: Any,
    config: Mapping[str, Any],
    children: Sequence[np.random.SeedSequence],
    spec: MetricsOptions,
    rep_offset: int,
) -> Tuple[List[float], Mapping[str, Any]]:
    """Observed serial repetitions: (samples, picklable metrics payload).

    ``rep_offset`` is the chunk's position in the configuration's global
    repetition order, so the ``rep`` label on every record is the same no
    matter how the process executor chunked the work.
    """
    recorder = SweepRecorder(every=spec.every, level_hist=spec.level_hist)
    with recorder.profiler.phase("measure"):
        samples = [
            float(
                measure.measure_observed(
                    config,
                    rng_from_sequence(child),
                    recorder,
                    rep=rep_offset + i,
                )
            )
            for i, child in enumerate(children)
        ]
    recorder.profiler.add_rounds(int(sum(samples)))
    return samples, recorder.payload()


def _observed_batch_block(
    measure: Any,
    config: Mapping[str, Any],
    children: Sequence[np.random.SeedSequence],
    spec: MetricsOptions,
) -> Tuple[List[float], Mapping[str, Any]]:
    """Observed repetition block: (samples, picklable metrics payload)."""
    recorder = SweepRecorder(every=spec.every, level_hist=spec.level_hist)
    with recorder.profiler.phase("measure"):
        samples = [
            float(x)
            for x in measure.measure_batch_observed(config, children, recorder)
        ]
    if len(samples) != len(children):
        raise RuntimeError(
            f"measure_batch_observed returned {len(samples)} samples for "
            f"{len(children)} seeds"
        )
    recorder.profiler.add_rounds(int(sum(samples)))
    return samples, recorder.payload()


def _resolve_executor(executor: str, measure: Measurement, jobs: int) -> str:
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; choose one of {EXECUTORS}")
    if executor != "auto":
        if executor == "batched" and not supports_batch(measure):
            raise ValueError(
                "executor='batched' requires a measurement with measure_batch()"
            )
        return executor
    if supports_batch(measure):
        return "batched"
    return "process" if jobs > 1 else "serial"


def run_sweep(
    configs: Sequence[Mapping[str, Any]],
    measure: Measurement,
    repetitions: int,
    master_seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    executor: str = "auto",
    metrics: Optional[MetricsOptions] = None,
) -> SweepResult:
    """Run ``measure`` ``repetitions`` times per configuration.

    Parameters
    ----------
    configs:
        The configuration grid (each a mapping; shown in result tables).
    measure:
        ``(config, rng) → float``; must consume randomness only from the
        provided generator.  May additionally offer
        ``measure_batch(config, seed_sequences)`` to unlock the batched
        executor.
    repetitions:
        Samples per configuration.
    master_seed:
        Root of the seed tree (see the module docstring for the exact
        derivation); identical seeds give identical results on every
        executor.
    progress:
        Optional callback receiving one line per completed cell.
    jobs:
        Worker-process count for the parallel paths.  ``jobs=1`` keeps
        everything in-process.
    executor:
        ``"auto"`` (default), ``"serial"``, ``"process"`` or
        ``"batched"`` — see the module docstring.
    metrics:
        Optional :class:`repro.obs.MetricsOptions` enabling per-round
        metric collection (requires a measurement exposing
        ``measure_observed``; the batched executor additionally needs
        ``measure_batch_observed``).  Samples are byte-identical with or
        without metrics — collectors are zero-perturbation reads.
        Workers aggregate locally; payloads are merged here in config ×
        repetition order, so record order is executor-independent.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    configs = list(configs)
    seeds = spawn_sweep_seeds(master_seed, len(configs), repetitions)
    chosen = _resolve_executor(executor, measure, jobs)
    if metrics is not None:
        if not supports_observation(measure):
            raise ValueError(
                "metrics collection requires a measurement exposing "
                "measure_observed() (see repro.analysis.measurements)"
            )
        if chosen == "batched" and not callable(
            getattr(measure, "measure_batch_observed", None)
        ):
            raise ValueError(
                "the batched executor with metrics requires "
                "measure_batch_observed()"
            )

    payloads: List[Mapping[str, Any]] = []
    if metrics is None:
        if chosen == "serial" or jobs == 1:
            per_config = _run_cells_serial(configs, measure, seeds, chosen)
        elif chosen == "batched":
            per_config = _run_cells_batched_parallel(configs, measure, seeds, jobs)
        else:  # process cells over workers
            per_config = _run_cells_process(configs, measure, seeds, jobs)
    else:
        if chosen == "serial" or jobs == 1:
            per_config, payloads = _run_cells_serial_observed(
                configs, measure, seeds, chosen, metrics
            )
        elif chosen == "batched":
            per_config, payloads = _run_cells_batched_parallel_observed(
                configs, measure, seeds, jobs, metrics
            )
        else:
            per_config, payloads = _run_cells_process_observed(
                configs, measure, seeds, jobs, metrics
            )

    result = SweepResult()
    if metrics is not None:
        result.metrics = collect_sweep_metrics(payloads, metrics)
    for config_index, (config, samples) in enumerate(zip(configs, per_config)):
        cell = SweepCell(
            config=dict(config), samples=tuple(samples), summary=summarize(samples)
        )
        result.cells.append(cell)
        if progress is not None:
            progress(
                f"[{config_index + 1}/{len(configs)}] {dict(config)} -> "
                f"mean={cell.summary.mean:.1f}"
            )
    return result


def _run_cells_serial(
    configs: Sequence[Mapping[str, Any]],
    measure: Measurement,
    seeds: List[List[np.random.SeedSequence]],
    chosen: str,
) -> List[List[float]]:
    if chosen == "batched":
        return [
            _measure_batch_block(measure, config, children)
            for config, children in zip(configs, seeds)
        ]
    return [
        _measure_chunk(measure, config, children)
        for config, children in zip(configs, seeds)
    ]


def _result(future: "Future[Any]") -> Any:
    """Gather one worker result, naming worker death for the caller."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        return future.result()
    except BrokenProcessPool as exc:
        raise SweepWorkerError(
            "a sweep worker process died mid-task; the pool is broken "
            "(its remaining tasks are lost) and run_sweep shuts it down "
            "before this error leaves the call"
        ) from exc


def _run_cells_process(
    configs: Sequence[Mapping[str, Any]],
    measure: Measurement,
    seeds: List[List[np.random.SeedSequence]],
    jobs: int,
) -> List[List[float]]:
    """(config, seed-chunk) cells over a process pool, order-preserving."""
    repetitions = len(seeds[0]) if seeds else 0
    chunk = max(1, math.ceil(repetitions / jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures: List[List["Future[List[float]]"]] = []
        for config, children in zip(configs, seeds):
            futures.append(
                [
                    pool.submit(_measure_chunk, measure, config, children[lo : lo + chunk])
                    for lo in range(0, repetitions, chunk)
                ]
            )
        return [
            [x for f in config_futures for x in _result(f)]
            for config_futures in futures
        ]


def _run_cells_batched_parallel(
    configs: Sequence[Mapping[str, Any]],
    measure: Measurement,
    seeds: List[List[np.random.SeedSequence]],
    jobs: int,
) -> List[List[float]]:
    """Whole repetition blocks through measure_batch, one task per config."""
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_measure_batch_block, measure, config, children)
            for config, children in zip(configs, seeds)
        ]
        return [_result(f) for f in futures]


# ----------------------------------------------------------------------
# Observed executor paths: same work distribution as above, but every
# worker task returns (samples, metrics payload) pairs.  Payload lists
# are assembled in config × repetition order regardless of executor.
# ----------------------------------------------------------------------
def _run_cells_serial_observed(
    configs: Sequence[Mapping[str, Any]],
    measure: Measurement,
    seeds: List[List[np.random.SeedSequence]],
    chosen: str,
    spec: MetricsOptions,
) -> Tuple[List[List[float]], List[Mapping[str, Any]]]:
    per_config: List[List[float]] = []
    payloads: List[Mapping[str, Any]] = []
    for config, children in zip(configs, seeds):
        if chosen == "batched":
            samples, payload = _observed_batch_block(measure, config, children, spec)
        else:
            samples, payload = _observed_chunk(measure, config, children, spec, 0)
        per_config.append(samples)
        payloads.append(payload)
    return per_config, payloads


def _run_cells_process_observed(
    configs: Sequence[Mapping[str, Any]],
    measure: Measurement,
    seeds: List[List[np.random.SeedSequence]],
    jobs: int,
    spec: MetricsOptions,
) -> Tuple[List[List[float]], List[Mapping[str, Any]]]:
    repetitions = len(seeds[0]) if seeds else 0
    chunk = max(1, math.ceil(repetitions / jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures: List[
            List["Future[Tuple[List[float], Mapping[str, Any]]]"]
        ] = []
        for config, children in zip(configs, seeds):
            futures.append(
                [
                    pool.submit(
                        _observed_chunk,
                        measure,
                        config,
                        children[lo : lo + chunk],
                        spec,
                        lo,
                    )
                    for lo in range(0, repetitions, chunk)
                ]
            )
        per_config: List[List[float]] = []
        payloads: List[Mapping[str, Any]] = []
        for config_futures in futures:
            samples: List[float] = []
            for future in config_futures:
                chunk_samples, payload = _result(future)
                samples.extend(chunk_samples)
                payloads.append(payload)
            per_config.append(samples)
        return per_config, payloads


def _run_cells_batched_parallel_observed(
    configs: Sequence[Mapping[str, Any]],
    measure: Measurement,
    seeds: List[List[np.random.SeedSequence]],
    jobs: int,
    spec: MetricsOptions,
) -> Tuple[List[List[float]], List[Mapping[str, Any]]]:
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_observed_batch_block, measure, config, children, spec)
            for config, children in zip(configs, seeds)
        ]
        results = [_result(f) for f in futures]
    return [r[0] for r in results], [r[1] for r in results]
