"""The long-lived MIS service: apply ops, invalidate incrementally, re-stabilize.

:class:`MISService` is the tentpole of the serving stack.  It owns

* a :class:`~repro.graphs.mutable.MutableTopology` (the mutation
  surface, with the committed degree cap), which only :meth:`apply`
  mutates — callers get the read-only
  :class:`~repro.graphs.mutable.TopologyView` as ``topology``,
* a resumable engine bound to the topology's derived structure, and
* the committed uniform ℓmax policy (valid for the whole service
  lifetime because the cap bounds Δ).

Each mutation op flows through one path: apply to the topology (which
validates and produces a :class:`~repro.graphs.mutable.TopologyDelta`),
patch the derived structure via
:func:`~repro.core.kernels.update_structure` (or rebuild when the cost
model says so), :meth:`~repro.core.engines.EngineBase.rebind` the engine
so it carries its levels across the change, and run
:meth:`~repro.core.engines.EngineBase.until_stable` until the legality
predicate holds again.  Self-stabilization is what makes the carry
sound: any configuration is a valid starting point, so the rounds spent
re-stabilizing scale with the damage, not with ``n``.

Reads never touch engine state.  A legal configuration is a fixed point
of the algorithm, so the MIS the final legality pass of a
re-stabilization built is the answer until the next mutation: the
service keeps it, and QUERY_MIS drops tombstoned ids and sorts it once
per topology version, then returns that same tuple — no hear-kernel
call and no id-space scan per read.  Metrics are pure observation — a
service with a registry attached serves byte-identical outcomes to one
without (asserted by ``tests/test_serve.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple,
)

import numpy as np

from ..core.engines import SingleChannelEngine, TwoChannelEngine
from ..core.kernels import (
    GraphStructure,
    should_rebuild,
    structure_for,
    update_structure,
)
from ..core.knowledge import EllMaxPolicy, explicit_policy, max_degree_policy
from ..core.runner import default_round_budget
from ..devtools.seeding import SeedLike
from ..graphs.graph import Graph
from ..graphs.mis import is_maximal_independent_set
from ..graphs.mutable import MutableTopology, TopologyDelta, TopologyError, TopologyView
from ..obs import MetricsRegistry, MetricSink, wall_clock
from .ops import Op

__all__ = ["ALGORITHMS", "MISService", "OpResult", "ServeError", "ServeReport"]

ALGORITHMS: Tuple[str, ...] = ("single", "two_channel")

#: Latency percentiles every summary reports.
_PCTS = (50.0, 95.0, 99.0)


class ServeError(RuntimeError):
    """The service could not re-stabilize within its round budget.

    The budget (:func:`repro.core.runner.default_round_budget`) leaves an
    order of magnitude of head-room, so exhausting it indicates a bug,
    not bad luck — the service refuses to keep serving a stale MIS.
    """


@dataclass(frozen=True)
class OpResult:
    """Outcome of one applied op.

    ``latency_s`` is wall-clock measurement, excluded from
    :meth:`outcome` so determinism checks compare served *outcomes*, not
    timings.
    """

    op: Op
    status: str  # "ok" | "rejected"
    error: Optional[str] = None
    node: Optional[int] = None  # ADD_NODE: the assigned vertex id
    neighbors: Optional[Tuple[int, ...]] = None  # READ_NBRS
    mis: Optional[Tuple[int, ...]] = None  # QUERY_MIS (live members, sorted)
    rounds: Optional[int] = None  # mutations: rounds to re-stabilize
    rebuilt: Optional[bool] = None  # mutations: rebuild (vs patch) path?
    latency_s: float = 0.0

    def outcome(self) -> Dict[str, Any]:
        """JSON-safe outcome record, timing excluded (determinism key)."""
        record: Dict[str, Any] = {"op": self.op.to_json(), "status": self.status}
        for name in ("error", "node", "rounds", "rebuilt"):
            value = getattr(self, name)
            if value is not None:
                record[name] = value
        if self.neighbors is not None:
            record["neighbors"] = list(self.neighbors)
        if self.mis is not None:
            record["mis"] = list(self.mis)
        return record


def _percentiles(values: List[float]) -> Dict[str, float]:
    arr = np.asarray(values, dtype=np.float64)
    out = {f"p{int(q)}": float(np.percentile(arr, q)) for q in _PCTS}
    out["mean"] = float(arr.mean())
    out["max"] = float(arr.max())
    return out


@dataclass
class ServeReport:
    """All per-op results of a served stream plus summary statistics."""

    results: List[OpResult] = field(default_factory=list)

    def outcomes(self) -> List[Dict[str, Any]]:
        """The determinism key: every outcome record, timing excluded."""
        return [r.outcome() for r in self.results]

    def summary(self) -> Dict[str, Any]:
        """Latency percentiles and restabilization stats, overall + per op."""
        ok = [r for r in self.results if r.status == "ok"]
        summary: Dict[str, Any] = {
            "ops": len(self.results),
            "rejected": sum(r.status == "rejected" for r in self.results),
        }
        if ok:
            summary["latency_s"] = _percentiles([r.latency_s for r in ok])
        rounds = [float(r.rounds) for r in ok if r.rounds is not None]
        if rounds:
            stats = _percentiles(rounds)
            stats["total"] = float(sum(rounds))
            summary["rounds_to_restabilize"] = stats
        rebuilds = [r for r in ok if r.rebuilt is not None]
        if rebuilds:
            summary["rebuilds"] = sum(bool(r.rebuilt) for r in rebuilds)
        by_op: Dict[str, Any] = {}
        for kind in sorted({r.op.kind for r in self.results}):
            rows = [r for r in ok if r.op.kind == kind]
            if not rows:
                continue
            entry: Dict[str, Any] = {
                "count": len(rows),
                "latency_s": _percentiles([r.latency_s for r in rows]),
            }
            kind_rounds = [float(r.rounds) for r in rows if r.rounds is not None]
            if kind_rounds:
                entry["rounds_to_restabilize"] = _percentiles(kind_rounds)
            by_op[kind] = entry
        summary["by_op"] = by_op
        return summary


class MISService:
    """Maintain a legal MIS over a mutating topology, op by op.

    Parameters
    ----------
    graph:
        Starting topology (must respect ``degree_cap``).
    degree_cap:
        The committed "loose upper bound on Δ" (defaults to the starting
        graph's max degree, floored at 1).  It fixes the uniform ℓmax
        the service commits to for its whole lifetime.
    algorithm:
        ``"single"`` (Algorithm 1) or ``"two_channel"`` (Algorithm 2).
    channel, scheduler:
        Stress models (:mod:`repro.beeping.channels` /
        :mod:`repro.beeping.schedulers`): serve under an unreliable
        channel or relaxed synchrony.  The defaults keep served
        outcomes byte-identical to the historical service.  Note an
        adversarial scheduler with an *explicit* wake-up schedule pins
        the vertex-id-space size — id-space-growing ADD_NODE ops then
        raise at rebind time; the kind-based forms re-bind cleanly.
    seed:
        Engine RNG seed (the op stream carries its own seed).
    registry, sink:
        Optional :mod:`repro.obs` hooks: the registry aggregates op
        counters and latency/round histograms, the sink receives one
        record per op (outcome plus timing).  Both are pure observers.
    rebuild_per_op:
        Benchmark baseline: rebuild the full derived structure from a
        fresh snapshot on every mutation instead of patching (the cold
        path ``BENCH_serve`` compares against).
    clock:
        Seconds-valued callable for per-op latency (defaults to the
        blessed :func:`repro.obs.wall_clock`; tests inject counters).
    """

    def __init__(
        self,
        graph: Graph,
        degree_cap: Optional[int] = None,
        algorithm: str = "single",
        channel: Optional[object] = None,
        scheduler: Optional[object] = None,
        seed: SeedLike = 0,
        registry: Optional[MetricsRegistry] = None,
        sink: Optional[MetricSink] = None,
        rebuild_per_op: bool = False,
        clock: Optional[Callable[[], float]] = None,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose one of {ALGORITHMS}"
            )
        if degree_cap is None:
            degree_cap = max(graph.max_degree(), 1)
        self._topology = MutableTopology(graph, degree_cap=degree_cap)
        self._view = TopologyView(self._topology)
        self.algorithm = algorithm
        self.rebuild_per_op = rebuild_per_op
        self.registry = registry
        self.sink = sink
        self._clock = clock if clock is not None else wall_clock()
        # The committed uniform policy: ℓmax from the cap, never from the
        # momentary Δ, so it stays valid under any cap-respecting churn.
        policy = max_degree_policy(graph, delta_upper=degree_cap)
        self._ell = policy.max_ell_max
        self._policy = policy
        self._budget = default_round_budget(graph, policy)
        engine_cls = (
            TwoChannelEngine if algorithm == "two_channel" else SingleChannelEngine
        )
        self._engine = engine_cls(
            graph, policy, seed=seed, channel=channel, scheduler=scheduler,
        )
        # (topology version, full MIS) the last re-stabilization left, and
        # the live-restricted answer memoized for one version.
        self._served: Tuple[int, FrozenSet[int]] = (-1, frozenset())
        self._answer: Tuple[int, Tuple[int, ...]] = (-1, ())
        self._stabilize()  # serve a legal MIS from the very first op

    # ------------------------------------------------------------------
    # Re-stabilization and the served MIS
    # ------------------------------------------------------------------
    def _stabilize(self) -> int:
        """Run rounds until legality; returns the rounds executed.

        Keeps the MIS the final legality pass built as the served full
        MIS: a legal configuration is a fixed point, so it stays the
        answer until the next mutation.  On failure the levels the run
        stopped at are served instead, never the pre-mutation answer.
        """
        engine = self._engine
        outcome = engine.until_stable(self._budget)
        full = outcome.mis if outcome.stabilized else engine.mis_vertices()
        self._served = (self._topology.version, full)
        if not outcome.stabilized:
            raise ServeError(
                f"failed to re-stabilize within {self._budget} rounds "
                f"(n={self._topology.num_vertices}, this indicates a bug)"
            )
        return int(outcome.rounds)

    @property
    def topology(self) -> TopologyView:
        """Read-only view of the topology; ops go through :meth:`apply`."""
        return self._view

    @property
    def structure(self) -> GraphStructure:
        return self._engine.structure

    def mis(self) -> Tuple[int, ...]:
        """The served MIS: current members restricted to live vertices.

        Built once per topology version from the MIS the last
        re-stabilization computed, then returned as the same tuple.
        """
        version, full = self._served
        if self._answer[0] != version:
            members = full - self._topology.tombstones()
            self._answer = (version, tuple(sorted(members)))
        return self._answer[1]

    def verify_legal(self) -> bool:
        """Cross-check the served MIS against the graph-theoretic oracle.

        O(n + m) — a test/debug hook, not part of the serving path.  The
        served full MIS (tombstones included — a tombstoned id is an
        isolated vertex, trivially in any maximal independent set) must
        be maximal independent on the snapshot.
        """
        return is_maximal_independent_set(
            self._topology.snapshot(), self._served[1]
        )

    # ------------------------------------------------------------------
    # The op path
    # ------------------------------------------------------------------
    def _apply_mutation(self, op: Op) -> OpResult:
        topo = self._topology
        node: Optional[int] = None
        if op.kind == "ADD_NODE":
            node, delta = topo.add_node()
        elif op.kind == "DEL_NODE":
            assert op.v is not None
            delta = topo.remove_node(op.v)
        elif op.kind == "ADD_EDGE":
            assert op.u is not None and op.v is not None
            delta = topo.add_edge(op.u, op.v)
        else:  # DEL_EDGE
            assert op.u is not None and op.v is not None
            delta = topo.remove_edge(op.u, op.v)
        structure, rebuilt = self._invalidate(delta)
        policy: Optional[EllMaxPolicy] = None
        if structure.n != self._engine.n:
            # Id-space growth: extend the committed uniform ℓmax.
            policy = explicit_policy((self._ell,) * structure.n)
            self._policy = policy
            self._budget = default_round_budget(
                Graph(structure.n, ()), policy
            )
        self._engine.rebind(structure, policy=policy)
        rounds = self._stabilize()
        return OpResult(
            op=op, status="ok", node=node, rounds=rounds, rebuilt=rebuilt
        )

    def _invalidate(self, delta: TopologyDelta) -> Tuple[GraphStructure, bool]:
        """The patched (or rebuilt) structure for ``delta``; (s, rebuilt?)."""
        if self.rebuild_per_op:
            # Cold baseline: full snapshot + from-scratch build, cache
            # deliberately bypassed so the comparison is honest.
            return GraphStructure(self._topology.snapshot()), True
        if delta.grows:
            # Growth rebuilds every form anyway; route through the shared
            # cache so the (rare) grown structure is reusable.
            return structure_for(self._topology.snapshot()), True
        rebuilt = should_rebuild(self._engine.structure, delta)
        return update_structure(self._engine.structure, delta), rebuilt

    def apply(self, op: Op) -> OpResult:
        """Apply one op; always returns an :class:`OpResult` (never raises
        for *rejected* ops — only for service-level failures)."""
        start = self._clock()
        try:
            if op.kind == "READ_NBRS":
                assert op.v is not None
                result = OpResult(
                    op=op, status="ok",
                    neighbors=self._topology.neighbors(op.v),
                )
            elif op.kind == "QUERY_MIS":
                result = OpResult(op=op, status="ok", mis=self.mis())
            else:
                result = self._apply_mutation(op)
        except TopologyError as exc:
            result = OpResult(op=op, status="rejected", error=str(exc))
        latency = self._clock() - start
        result = replace(result, latency_s=latency)
        self._observe(result)
        return result

    def run(self, ops: Iterable[Op]) -> ServeReport:
        """Apply a whole stream; returns the per-op report."""
        report = ServeReport()
        for op in ops:
            report.results.append(self.apply(op))
        return report

    # ------------------------------------------------------------------
    # Observation (pure: outcomes are byte-identical with or without)
    # ------------------------------------------------------------------
    def _observe(self, result: OpResult) -> None:
        registry = self.registry
        if registry is not None:
            registry.counter(
                "serve_ops_total", op=result.op.kind, status=result.status
            ).inc()
            if result.status == "ok":
                registry.histogram(
                    "serve_op_latency_seconds", op=result.op.kind
                ).observe(result.latency_s)
                if result.rounds is not None:
                    registry.histogram(
                        "serve_restabilize_rounds", op=result.op.kind
                    ).observe(float(result.rounds))
                if result.rebuilt:
                    registry.counter("serve_rebuilds_total").inc()
        if self.sink is not None:
            record = result.outcome()
            record["latency_s"] = result.latency_s
            self.sink.emit(record)
