"""Benchmark workloads and the seeded inputs they run on.

Every input the program receives — graph seeds, sweep master seeds, the
service's engine seed and its NDJSON op stream — is derived here from
``np.random.SeedSequence(seed)``, so one ``--seed`` reproduces a run byte
for byte in any process.  (``benchmarks/_harness.seed_for`` hashes with
Python's per-process randomized ``hash`` and ``repro.serve.generate_ops``
is program code whose mix weights a change could edit; neither is used.)

Op streams are generated against :class:`ShadowTopology`, a plain-Python
model of the service's topology that enforces the same degree cap and the
same lowest-id-first tombstone reuse, so every generated op is valid when
applied in order.  The oracle replays the same model to check answers.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "WORKLOAD_NAMES",
    "SPECS",
    "SweepGroup",
    "SweepSpec",
    "ServeSpec",
    "SweepCall",
    "SweepInputs",
    "ServeInputs",
    "ShadowTopology",
    "build_inputs",
]

#: Family every workload graph is drawn from: Erdős–Rényi, mean degree 8.
FAMILY = "er"


@dataclass(frozen=True)
class SweepGroup:
    """``graphs`` cells of ``replicas`` runs each, one ``run_sweep`` call per cell."""

    variant: str
    n: int
    replicas: int
    graphs: int = 1
    channel: str = "perfect"
    scheduler: str = "synchronous"
    metrics: bool = False


@dataclass(frozen=True)
class SweepSpec:
    """Sweep cells; each cell's wall per replica-round is a latency sample.

    A run holds 2 (``sweep-large``) to 8 (``sweep-stress``) distinct
    cells, too few for a percentile with ten cells beyond it.  The
    costliest cell, the one whose slowest replica ran longest alone,
    varied by 18 % between seeds where the 75th percentile varied by 8 %,
    so that is the tail.
    """

    name: str
    groups: Tuple[SweepGroup, ...]
    tail_pct: float = 75.0
    #: The :mod:`.hostspeed` probe whose slowdown follows this workload's.
    probe: str = "interpreter"


@dataclass(frozen=True)
class ServeSpec:
    """A closed-loop, single-client op stream against one ``MISService``."""

    name: str
    n: int
    ops: int
    #: ``(op kind, weight)`` pairs; the order is also the fallback order
    #: used when a scheduled kind cannot be realized at that moment.
    mix: Tuple[Tuple[str, float], ...]
    #: Latency class the ``latency_*`` metrics report on.
    request: str
    #: Percentile of that class reported as ``latency_tail_us``.
    tail_pct: float
    #: The :mod:`.hostspeed` probe whose slowdown follows this workload's.
    probe: str = "interpreter"


Spec = Union[SweepSpec, ServeSpec]

WORKLOAD_NAMES: Tuple[str, ...] = (
    "sweep-large",
    "sweep-stress",
    "serve-churn",
    "serve-read",
)

SPECS: Dict[str, Spec] = {
    # Memory-bound rounds at n = 2^16 (Alg 1) and 2^15 (Alg 2): the
    # sizes where log n moves.  Sixteen replicas per cell keep a pass
    # near 4 s, so one run holds three or four.  Memory-bound, so the
    # memory probe tracks the host's speed for it.
    "sweep-large": SweepSpec(
        "sweep-large",
        (
            SweepGroup("max_degree", 65536, 16),
            SweepGroup("two_channel", 32768, 16),
        ),
        probe="memory",
    ),
    # The robustness-study path: noisy channel, drifting clocks and
    # per-round collectors on small graphs, where Python dispatch per
    # replica dominates.
    "sweep-stress": SweepSpec(
        "sweep-stress",
        (
            SweepGroup(
                "max_degree", 1024, 16, graphs=8,
                channel="noisy:0.02", scheduler="drift:0.1", metrics=True,
            ),
        ),
    ),
    # The write path: no QUERY_MIS, so work added to every mutation
    # shows here.  The tail is p98 (54 of a pass's ~2700 mutations
    # beyond it): p95 and p90 fall where the ~120 slow ADD_EDGE
    # re-stabilizations meet the DEL_NODE cluster, and jumped by 30 %
    # between seeds.
    "serve-churn": ServeSpec(
        "serve-churn", 4096, 3000,
        (
            ("ADD_EDGE", 0.40), ("DEL_EDGE", 0.40), ("ADD_NODE", 0.05),
            ("DEL_NODE", 0.05), ("READ_NBRS", 0.10),
        ),
        request="mutation", tail_pct=98.0,
    ),
    # The read path: QUERY_MIS dominates the time.  A pass holds 50
    # queries and a run pools 3-4 passes.  The tail is p80 (30-40 beyond
    # it): p90, with 15-20 beyond, varied by 14 % between seeds.
    "serve-read": ServeSpec(
        "serve-read", 4096, 500,
        (
            ("READ_NBRS", 0.75), ("QUERY_MIS", 0.10), ("ADD_EDGE", 0.075),
            ("DEL_EDGE", 0.075),
        ),
        request="QUERY_MIS", tail_pct=80.0,
    ),
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCall:
    """The arguments of one ``run_sweep`` call: one cell of a group."""

    group: SweepGroup
    graph_seed: int
    master_seed: int

    def config(self) -> Dict[str, object]:
        return {"family": FAMILY, "n": self.group.n, "graph_seed": self.graph_seed}


@dataclass(frozen=True)
class SweepInputs:
    calls: Tuple[SweepCall, ...]


@dataclass(frozen=True)
class ServeInputs:
    graph_seed: int
    engine_seed: int
    degree_cap: int
    #: The starting topology, as generated: vertex count and edge list.
    n: int
    edges: Tuple[Tuple[int, int], ...]
    #: The NDJSON op stream, one op per line.
    lines: Tuple[str, ...]


def _workload_sequence(name: str, seed: int) -> np.random.SeedSequence:
    """Child ``k`` of ``SeedSequence(seed)``, ``k`` the workload's index.

    A workload's inputs depend only on ``(name, seed)``, never on which
    other workloads run alongside it.
    """
    index = WORKLOAD_NAMES.index(name)
    return np.random.SeedSequence(seed).spawn(index + 1)[index]


def _ints(sequence: np.random.SeedSequence, count: int) -> List[int]:
    return [int(x) for x in sequence.generate_state(count)]


def build_sweep_inputs(spec: SweepSpec, seed: int) -> SweepInputs:
    cells = sum(g.graphs for g in spec.groups)
    graph_seq, master_seq = _workload_sequence(spec.name, seed).spawn(2)
    seeds = iter(zip(_ints(graph_seq, cells), _ints(master_seq, cells)))
    return SweepInputs(tuple(
        SweepCall(group, *next(seeds)) for group in spec.groups for _ in range(group.graphs)
    ))


def build_serve_inputs(spec: ServeSpec, seed: int) -> ServeInputs:
    from repro.graphs import generators

    graph_seq, engine_seq, ops_seq = _workload_sequence(spec.name, seed).spawn(3)
    graph_seed = _ints(graph_seq, 1)[0]
    graph = generators.by_name(FAMILY, spec.n, seed=graph_seed)
    # Head-room above the starting Δ so ADD_EDGE stays realizable, as
    # ``repro serve`` does by default.
    cap = max(graph.max_degree() + 2, 1)
    edges = tuple(graph.edges)
    shadow = ShadowTopology(graph.num_vertices, edges, cap)
    lines = _generate_ops(spec, shadow, np.random.default_rng(ops_seq))
    return ServeInputs(
        graph_seed=graph_seed,
        engine_seed=_ints(engine_seq, 1)[0],
        degree_cap=cap,
        n=graph.num_vertices,
        edges=edges,
        lines=tuple(lines),
    )


def build_inputs(spec: Spec, seed: int) -> Union[SweepInputs, ServeInputs]:
    if isinstance(spec, SweepSpec):
        return build_sweep_inputs(spec, seed)
    return build_serve_inputs(spec, seed)


# ----------------------------------------------------------------------
# The shadow topology
# ----------------------------------------------------------------------
class ShadowTopology:
    """A plain-Python model of the service's mutable topology.

    Same semantics as the service documents (docs/serving.md): a global
    degree cap, node removal strips edges and tombstones the id, and
    ADD_NODE reuses the lowest tombstoned id before growing the id
    space.  The methods raise ``ValueError`` on an invalid op.
    """

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]], cap: int):
        self.cap = cap
        self.adj: List[set] = [set() for _ in range(n)]
        self.live: List[bool] = [True] * n
        self.free: List[int] = []
        self.edge_list: List[Tuple[int, int]] = []
        self._edge_index: Dict[Tuple[int, int], int] = {}
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def num_live(self) -> int:
        return len(self.adj) - len(self.free)

    def is_live(self, v: int) -> bool:
        return 0 <= v < len(self.adj) and self.live[v]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        self._require_live(v)
        return tuple(sorted(self.adj[v]))

    def live_vertices(self) -> List[int]:
        return [v for v, alive in enumerate(self.live) if alive]

    def can_add_edge(self, u: int, v: int) -> bool:
        return (
            u != v
            and self.is_live(u)
            and self.is_live(v)
            and v not in self.adj[u]
            and len(self.adj[u]) < self.cap
            and len(self.adj[v]) < self.cap
        )

    def add_edge(self, u: int, v: int) -> None:
        if not self.can_add_edge(u, v):
            raise ValueError(f"invalid ADD_EDGE {u} {v}")
        self.adj[u].add(v)
        self.adj[v].add(u)
        edge = (min(u, v), max(u, v))
        self._edge_index[edge] = len(self.edge_list)
        self.edge_list.append(edge)

    def remove_edge(self, u: int, v: int) -> None:
        if not (self.is_live(u) and self.is_live(v) and v in self.adj[u]):
            raise ValueError(f"invalid DEL_EDGE {u} {v}")
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        edge = (min(u, v), max(u, v))
        i = self._edge_index.pop(edge)
        last = self.edge_list.pop()
        if last != edge:
            self.edge_list[i] = last
            self._edge_index[last] = i

    def add_node(self) -> int:
        if self.free:
            v = heapq.heappop(self.free)
            self.live[v] = True
            return v
        self.adj.append(set())
        self.live.append(True)
        return len(self.adj) - 1

    def remove_node(self, v: int) -> None:
        self._require_live(v)
        for w in sorted(self.adj[v]):
            self.remove_edge(v, w)
        self.live[v] = False
        heapq.heappush(self.free, v)

    def apply(self, record: Dict[str, object]) -> Optional[int]:
        """Apply one parsed op record; returns the id ADD_NODE assigns."""
        kind = record["op"]
        if kind == "ADD_NODE":
            return self.add_node()
        if kind == "DEL_NODE":
            self.remove_node(int(record["v"]))  # type: ignore[arg-type]
        elif kind == "ADD_EDGE":
            self.add_edge(int(record["u"]), int(record["v"]))  # type: ignore[arg-type]
        elif kind == "DEL_EDGE":
            self.remove_edge(int(record["u"]), int(record["v"]))  # type: ignore[arg-type]
        return None

    def _require_live(self, v: int) -> None:
        if not self.is_live(v):
            raise ValueError(f"vertex {v} is not live")


# ----------------------------------------------------------------------
# Op streams
# ----------------------------------------------------------------------
#: Rejection-sampling tries before a kind counts as unrealizable.
_TRIES = 64


def _random_live(shadow: ShadowTopology, rng: np.random.Generator) -> Optional[int]:
    if shadow.num_live == 0:
        return None
    for _ in range(_TRIES):
        v = int(rng.integers(0, shadow.n))
        if shadow.live[v]:
            return v
    return shadow.live_vertices()[0]


def _realize(
    kind: str, shadow: ShadowTopology, rng: np.random.Generator
) -> Optional[Dict[str, object]]:
    """A valid op record of ``kind`` right now, or ``None``."""
    if kind in ("ADD_NODE", "QUERY_MIS"):
        return {"op": kind}
    if kind == "READ_NBRS":
        v = _random_live(shadow, rng)
        return None if v is None else {"op": kind, "v": v}
    if kind == "DEL_NODE":
        # Keep two live vertices so edge ops stay realizable.
        v = _random_live(shadow, rng) if shadow.num_live > 2 else None
        return None if v is None else {"op": kind, "v": v}
    if kind == "DEL_EDGE":
        if not shadow.edge_list:
            return None
        u, v = shadow.edge_list[int(rng.integers(0, len(shadow.edge_list)))]
        return {"op": kind, "u": u, "v": v}
    if kind == "ADD_EDGE":
        for _ in range(_TRIES):
            u = int(rng.integers(0, shadow.n))
            v = int(rng.integers(0, shadow.n))
            if shadow.can_add_edge(u, v):
                return {"op": kind, "u": u, "v": v}
        return None
    raise ValueError(f"unknown op kind {kind!r}")


def kind_schedule(spec: ServeSpec) -> List[str]:
    """The op kinds of the stream, in order, independent of the seed.

    Each kind appears exactly ``weight * ops`` times (largest remainders
    rounded up), shuffled by a generator seeded with the workload's name.
    The seed then only picks the graph and the operands, so the mix — and
    with it how often ADD_NODE must grow the id space — is the same for
    every seed.
    """
    kinds = [k for k, _ in spec.mix]
    weights = np.asarray([w for _, w in spec.mix], dtype=np.float64)
    exact = weights / weights.sum() * spec.ops
    counts = np.floor(exact).astype(int)
    for i in np.argsort(counts - exact, kind="stable")[: spec.ops - counts.sum()]:
        counts[i] += 1
    schedule = [kind for kind, count in zip(kinds, counts) for _ in range(count)]
    order = np.random.default_rng(list(spec.name.encode())).permutation(len(schedule))
    return [schedule[i] for i in order]


def _generate_ops(
    spec: ServeSpec, shadow: ShadowTopology, rng: np.random.Generator
) -> List[str]:
    kinds = [k for k, _ in spec.mix]
    lines: List[str] = []
    for scheduled in kind_schedule(spec):
        # A kind not realizable right now (rare: no edge left, all
        # vertices at the cap) falls through to the next in mix order.
        record = None
        for kind in (scheduled, *(k for k in kinds if k != scheduled)):
            record = _realize(kind, shadow, rng)
            if record is not None:
                break
        if record is None:
            raise RuntimeError(f"{spec.name}: no op kind is realizable")
        shadow.apply(record)
        lines.append(json.dumps(record, sort_keys=True))
    return lines
