"""Run one workload: cold set-ups, timed passes, checks, metrics.

A *pass* runs the workload's whole input once through the public entry
points: for a sweep, one ``run_sweep`` call per cell (what ``repro
sweep`` runs); for the service, the op stream applied op by op with
``MISService.apply(parse_op(line))`` by one closed-loop client (what
``repro serve --ops`` runs) on a freshly constructed service.  Passes
repeat on the same inputs until ``--seconds`` of timed work is done, so
every pass must produce the outputs of the first, which the oracle checks
in full.

Untraced runs time each pass in chunks and scale every chunk, and every
set-up, to the reference host speed (:mod:`.hostspeed`).  Throughput is
the work of all passes over their scaled wall; latencies are percentiles
of the scaled samples of all passes; ``setup_s`` is the median set-up.

Traced runs time one untraced pass, then repeat (set-up + pass) under
the :mod:`.trace` layer wrappers; they report the per-layer metrics and
the tracing overhead, and count a traced pass whose outputs differ from
the untraced one as a failure.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from . import oracle
from .hostspeed import CHUNK_S, HostSpeed
from .trace import PROBE_PART, NullTracer, Tracer, install_layers, layer_metrics
from .workloads import (
    FAMILY,
    ServeInputs,
    ServeSpec,
    SweepInputs,
    SweepSpec,
    build_inputs,
)

__all__ = ["END_TO_END_UNITS", "RunResult", "make_runner", "run_workload"]

#: Cold set-ups are timed before the first pass, at least
#: ``SETUP_SAMPLES`` of them and until they took ``SETUP_SHARE`` of the
#: run's ``seconds``; ``setup_s`` is the median over these and the
#: set-ups before later passes.
SETUP_SAMPLES = 3
SETUP_SHARE = 0.07

#: Units of the end-to-end metrics, in report order.
END_TO_END_UNITS: Dict[str, str] = {
    "throughput_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

MUTATIONS = ("ADD_NODE", "DEL_NODE", "ADD_EDGE", "DEL_EDGE")

clock = time.perf_counter
Tracing = Union[Tracer, NullTracer]
#: ``(output index, problem)``: what the oracle found wrong, and where.
Problems = List[Tuple[int, str]]


@dataclass
class Pass:
    """What one timed pass produced."""

    #: Wall of the timed chunks, as measured.
    wall: float
    #: The same wall scaled to the reference host speed.
    scaled_wall: float
    #: Outputs compared across passes and hashed into ``outputs_sha256``;
    #: one entry per sweep cell or per op.
    outputs: List[Any]
    #: Units of work done: vertex·rounds (sweeps) or ops (serve).
    work: float
    rounds: int
    #: Scaled latency samples in microseconds: one per cell (sweeps) or
    #: per op of the workload's request class (serve).
    latencies_us: List[float]
    problems: List[str] = field(default_factory=list)


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, Tuple[float, str]]
    info: Dict[str, Any]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def contract(self) -> Dict[str, Any]:
        """The one-line JSON result (see ``bench/README.md``)."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class SweepRunner:
    """Stabilization sweeps from an arbitrary start, batched executor.

    Each cell is a chunk and one latency sample: its scaled wall over
    the replica-rounds it simulated.
    """

    fresh_state_per_pass = False

    def __init__(self, spec: SweepSpec, inputs: SweepInputs):
        self.spec = spec
        self.inputs = inputs

    def setup(self, prime: bool) -> float:
        """Generate every cell's graph and warm its derived structure.

        The warm-up builds a ``BatchedEngine`` and evaluates one hear, so
        the adjacency form the ``auto`` kernel uses is built before any
        timing.  ``prime`` generates through ``graph_for_config``, whose
        cache the sweep reads; other set-ups generate the same graphs
        with ``by_name``, so each of them pays for generation too.
        """
        from repro.analysis import graph_for_config
        from repro.core import kernels
        from repro.core.engines import BatchedEngine
        from repro.core.runner import policy_for_variant
        from repro.graphs import generators

        kernels.clear_structure_cache()
        start = clock()
        for call in self.inputs.calls:
            group = call.group
            graph = (
                graph_for_config(call.config())
                if prime
                else generators.by_name(FAMILY, group.n, seed=call.graph_seed)
            )
            BatchedEngine(
                graph,
                policy_for_variant(graph, group.variant),
                replicas=group.replicas,
                algorithm="two_channel" if group.variant == "two_channel" else "single",
            ).stable_mask()
        return clock() - start

    def run_pass(self, tracer: Tracing, scaling: HostSpeed) -> Pass:
        from repro import analysis
        from repro.obs import MetricsOptions

        outputs: List[Any] = []
        problems: List[str] = []
        walls: List[float] = []
        scaled: List[float] = []
        for call in self.inputs.calls:
            group = call.group
            measure = analysis.StabilizationRounds(
                variant=group.variant, channel=group.channel, scheduler=group.scheduler
            )
            start = clock()
            try:
                result = analysis.run_sweep(
                    [call.config()],
                    measure,
                    repetitions=group.replicas,
                    master_seed=call.master_seed,
                    jobs=1,
                    executor="batched",
                    metrics=MetricsOptions() if group.metrics else None,
                )
                samples = list(result.cells[0].samples)
            except RuntimeError as exc:  # a replica did not stabilize
                problems.append(f"{call.config()}: {exc}")
                samples = []
            walls.append(clock() - start)
            scaled.append(walls[-1] * scaling.factor())
            outputs.append(samples)
        rounds = [sum(samples) for samples in outputs]
        return Pass(
            wall=sum(walls),
            scaled_wall=sum(scaled),
            outputs=outputs,
            work=sum(r * call.group.n for r, call in zip(rounds, self.inputs.calls)),
            rounds=int(sum(rounds)),
            latencies_us=[1e6 * s / max(r, 1) for s, r in zip(scaled, rounds)],
            problems=problems,
        )

    def units(self) -> List[int]:
        """Attempted operations per output: one per replica run."""
        return [call.group.replicas for call in self.inputs.calls]

    def check(self, first: Pass) -> Problems:
        """Check every cell; a cell that failed counts all its replicas."""
        return [
            (index, problem)
            for index, (call, samples) in enumerate(zip(self.inputs.calls, first.outputs))
            for problem in oracle.check_sweep_call(call, samples)
        ]


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class ServeRunner:
    """One client replaying the op stream against a fresh ``MISService``.

    Latency is per op of the workload's request class (mutations, or
    QUERY_MIS), parse plus apply, timed by the client.  Ops are timed in
    chunks of about ``CHUNK_S``; each op's latency is scaled with its
    chunk.
    """

    fresh_state_per_pass = True

    def __init__(self, spec: ServeSpec, inputs: ServeInputs):
        self.spec = spec
        self.inputs = inputs
        self.service: Any = None

    def setup(self, prime: bool) -> float:
        """Generate the graph and construct the service (cold caches)."""
        from repro.core import kernels
        from repro.graphs import generators
        from repro.serve import MISService

        self.service = None
        kernels.clear_structure_cache()
        start = clock()
        graph = generators.by_name(FAMILY, self.spec.n, seed=self.inputs.graph_seed)
        self.service = MISService(
            graph, degree_cap=self.inputs.degree_cap, seed=self.inputs.engine_seed
        )
        return clock() - start

    def run_pass(self, tracer: Tracing, scaling: HostSpeed) -> Pass:
        from repro import serve

        # Bound here, after the tracer (if any) is installed.
        parse = serve.parse_op
        apply = self.service.apply
        span = tracer.span
        results: List[Any] = []
        latencies: List[float] = []
        problems: List[str] = []
        walls = [0.0, 0.0]  # as measured, scaled
        chunk: List[float] = []

        def close_chunk(start: float, end: float) -> None:
            factor = scaling.factor()
            walls[0] += end - start
            walls[1] += (end - start) * factor
            latencies.extend(latency * factor for latency in chunk)
            chunk.clear()

        start = clock()
        for line in self.inputs.lines:
            with span("bench.op"):
                begin = clock()
                try:
                    result = apply(parse(line))
                except serve.ServeError as exc:
                    problems.append(f"op {len(results)} {line}: {exc}")
                    break
                end = clock()
            results.append(result)
            chunk.append(end - begin)
            if end - start >= CHUNK_S:
                close_chunk(start, end)
                start = clock()
        if chunk:
            close_chunk(start, clock())
        request = self.spec.request
        outputs = [r.outcome() for r in results]
        return Pass(
            wall=walls[0],
            scaled_wall=walls[1],
            outputs=outputs,
            work=float(len(results)),
            rounds=sum(o.get("rounds", 0) for o in outputs),
            latencies_us=[
                1e6 * latency
                for latency, r in zip(latencies, results)
                if r.op.kind == request or (request == "mutation" and r.op.kind in MUTATIONS)
            ],
            problems=problems,
        )

    def units(self) -> List[int]:
        """Attempted operations per output: one per op of the stream."""
        return [1] * len(self.inputs.lines)

    def check(self, first: Pass) -> Problems:
        """Check ``first``, the pass the current service just served."""
        return oracle.check_serve_outcomes(
            self.inputs, first.outputs, self.service.mis()
        )


Runner = Union[SweepRunner, ServeRunner]


def make_runner(spec: Union[SweepSpec, ServeSpec], seed: int) -> Runner:
    inputs = build_inputs(spec, seed)
    if isinstance(spec, SweepSpec):
        return SweepRunner(spec, inputs)  # type: ignore[arg-type]
    return ServeRunner(spec, inputs)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Driving a run
# ----------------------------------------------------------------------
class _Tally:
    """Attempted and failed operations, counted in the units of ``units()``.

    An output the first pass got wrong fails in every pass, and so does
    a later output that differs from the first pass's.
    """

    def __init__(self, runner: Runner):
        self.units = runner.units()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._wrong: Set[int] = set()
        self._first: List[Any] = []

    def first(self, first: Pass, found: Problems) -> None:
        self._first = first.outputs
        self._wrong = {index for index, _ in found}
        self.problems += first.problems + [problem for _, problem in found]
        self._count(self._wrong)

    def later(self, other: Pass, label: str) -> None:
        # Slices, because a pass cut short by a ServeError has fewer outputs.
        differ = {
            index
            for index in range(len(self.units))
            if other.outputs[index:index + 1] != self._first[index:index + 1]
        }
        if differ:
            self.problems.append(f"{label}: {len(differ)} outputs differ from the first pass")
        self.problems += other.problems
        self._count(self._wrong | differ)
        other.outputs = []  # compared; keep the run's memory flat

    def _count(self, failing: Set[int]) -> None:
        self.attempted += sum(self.units)
        self.failed += sum(self.units[index] for index in failing)


def _first_pass(runner: Runner, scaling: HostSpeed) -> Tuple[Pass, _Tally]:
    first = runner.run_pass(NullTracer(), scaling)
    tally = _Tally(runner)
    tally.first(first, runner.check(first))
    return first, tally


def _info(first: Pass) -> Dict[str, Any]:
    return {
        "rounds_total": first.rounds,
        "outputs_sha256": oracle.digest(first.outputs),
    }


def run_workload(
    spec: Union[SweepSpec, ServeSpec],
    seed: int,
    seconds: float,
    trace: bool = False,
    trace_dir: Optional[str] = None,
) -> RunResult:
    """Run ``spec`` for ``seconds`` of timed passes on inputs from ``seed``."""
    runner = make_runner(spec, seed)
    if trace:
        return _run_traced(runner, seed, seconds, trace_dir)
    # Set-up is graph generation and construction in Python on every
    # workload, so it is scaled with the interpreter probe.
    setup_host = HostSpeed("interpreter")
    setups: List[float] = []
    spent = 0.0
    prime = False
    while not prime:
        # The last set-up primes the caches the timed sweep reads.
        prime = len(setups) >= SETUP_SAMPLES - 1 and spent >= SETUP_SHARE * seconds
        raw = runner.setup(prime=prime)
        spent += raw
        setups.append(raw * setup_host.factor())
    host = HostSpeed(spec.probe)
    first, tally = _first_pass(runner, host)
    passes = [first]
    while sum(p.wall for p in passes) < seconds:
        if runner.fresh_state_per_pass:
            setups.append(runner.setup(prime=False) * setup_host.factor())
        later = runner.run_pass(NullTracer(), host)
        tally.later(later, f"pass {len(passes)}")
        passes.append(later)
    # Empty only when the first op already failed; the run reports that.
    latencies = [latency for p in passes for latency in p.latencies_us] or [0.0]
    values = {
        "throughput_per_s": sum(p.work for p in passes) / sum(p.scaled_wall for p in passes),
        "latency_p50_us": float(np.percentile(latencies, 50.0)),
        "latency_tail_us": float(np.percentile(latencies, spec.tail_pct)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = _info(first)
    info.update(
        passes=len(passes),
        timed_s=sum(p.wall for p in passes),
        raw_throughput_per_s=sum(p.work for p in passes) / sum(p.wall for p in passes),
        host_slowdown=host.slowdown(),
        latency_samples=len(latencies),
        pass_throughputs=[float(f"{p.work / p.scaled_wall:.4g}") for p in passes],
        setups=len(setups),
    )
    return RunResult(
        spec.name, seed, False,
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        metrics={name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()},
        info=info,
    )


def _run_traced(
    runner: Runner, seed: int, seconds: float, trace_dir: Optional[str]
) -> RunResult:
    runner.setup(prime=True)
    host = HostSpeed(runner.spec.probe)
    reference, tally = _first_pass(runner, host)
    traced: List[Pass] = []
    with Tracer() as tracer:
        install_layers(tracer)
        # Probing the host is the benchmark's time, not the program's.
        tracer.patch_method(HostSpeed, "_timed_probe", PROBE_PART)
        while reference.wall + sum(p.wall for p in traced) < seconds or not traced:
            with tracer.span("bench.iteration"):
                with tracer.span("bench.setup"):
                    runner.setup(prime=False)
                with tracer.span("bench.pass"):
                    later = runner.run_pass(tracer, host)
            tally.later(later, f"traced pass {len(traced)}")
            traced.append(later)
    overhead = 100.0 * (
        statistics.median(p.scaled_wall for p in traced) / reference.scaled_wall - 1.0
    )
    info = _info(reference)
    info.update(traced_iterations=len(traced), trace_overhead_pct=overhead)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"trace-{runner.spec.name}-seed{seed}.json")
        tracer.dump(path, {"workload": runner.spec.name, "seed": seed, **info})
        info["trace_file"] = os.path.relpath(path)
    return RunResult(
        runner.spec.name, seed, True,
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        metrics=layer_metrics(tracer, len(traced), overhead),
        info=info,
    )
