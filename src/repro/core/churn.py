"""Topology churn: self-stabilization against *graph* changes.

The paper's fault model corrupts RAM, but the classical self-
stabilization literature (Dolev [7]) also covers *topology* changes:
links appear and disappear (motes move, cells divide).  Algorithm 1
handles these for free, by the same argument as RAM faults — after a
churn event the old levels are just an arbitrary configuration of the
*new* graph, so stabilization restarts with the usual O(log n) clock.

One subtlety makes this precise rather than hand-wavy: the ℓmax
knowledge must remain *valid* across the churn (it is knowledge about
the topology!).  The helpers here therefore model churn under a global
degree *cap*: the Δ upper bound is chosen once for the whole churn
process (``max_degree_policy(..., delta_upper=cap)``), which is exactly
the "loose upper bound on Δ" the theorems tolerate.  Per-vertex policies
(Theorem 2.2) would be invalidated by degree increases — that trade-off
is the point of measuring this.

Experiment E16 (``benchmarks/bench_churn.py``) compares re-stabilization
after rewiring x% of edges against a cold start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

import numpy as np

from ..devtools.seeding import SeedLike, resolve_rng
from ..graphs.graph import Graph
from .knowledge import EllMaxPolicy
from .engines import VectorizedResult, simulate_single

__all__ = ["ChurnEvent", "rewire_edges", "carry_levels", "restabilize_after_churn"]


@dataclass(frozen=True)
class ChurnEvent:
    """A topology change: the new graph plus the edge delta."""

    graph: Graph
    removed: FrozenSet[Tuple[int, int]]
    added: FrozenSet[Tuple[int, int]]

    @property
    def churned_edges(self) -> int:
        return len(self.removed) + len(self.added)


def rewire_edges(
    graph: Graph,
    fraction: float,
    seed: SeedLike = None,
    max_degree_cap: Optional[int] = None,
) -> ChurnEvent:
    """Rewire ``fraction`` of the edges to fresh uniformly random pairs.

    Each selected edge is removed and replaced by a uniformly random
    non-edge (avoiding self loops and duplicates).  When
    ``max_degree_cap`` is given, replacements that would push an
    endpoint above the cap are re-drawn — this keeps a pre-committed Δ
    upper bound valid, which is what lets the ℓmax knowledge survive the
    churn.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = resolve_rng(seed)
    n = graph.num_vertices
    edges = set(graph.edges)
    if n < 2 or not edges:
        return ChurnEvent(graph=graph, removed=frozenset(), added=frozenset())

    degree = list(graph.degrees())
    count = int(round(fraction * len(edges)))
    victims_idx = rng.choice(len(graph.edges), size=count, replace=False)
    victims = [graph.edges[int(i)] for i in victims_idx]

    removed = set()
    added = set()
    for u, v in victims:
        edges.discard((u, v))
        degree[u] -= 1
        degree[v] -= 1
        removed.add((u, v))
        # Draw a replacement edge.
        for _ in range(50 * n):
            a, b = int(rng.integers(n)), int(rng.integers(n))
            if a == b:
                continue
            e = (a, b) if a < b else (b, a)
            if e in edges:
                continue
            if max_degree_cap is not None and (
                degree[a] + 1 > max_degree_cap or degree[b] + 1 > max_degree_cap
            ):
                continue
            edges.add(e)
            degree[a] += 1
            degree[b] += 1
            added.add(e)
            break
        # On (vanishingly unlikely) failure the edge is simply dropped.
    return ChurnEvent(
        graph=Graph(n, edges), removed=frozenset(removed), added=frozenset(added)
    )


def carry_levels(levels: np.ndarray, policy: EllMaxPolicy) -> np.ndarray:
    """Clamp carried-over levels into the (new) policy's ranges.

    With a uniform degree-capped policy the ranges are unchanged and
    this is the identity; it exists so vertex-wise policies can be
    carried too (their out-of-range levels read back as saturated —
    consistent with the RAM-corruption semantics).
    """
    ell = np.asarray(policy.ell_max, dtype=np.int64)
    return np.clip(np.asarray(levels, dtype=np.int64), -ell, ell)


def restabilize_after_churn(
    event: ChurnEvent,
    policy: EllMaxPolicy,
    levels: np.ndarray,
    seed: SeedLike = None,
    max_rounds: int = 200_000,
) -> VectorizedResult:
    """Run Algorithm 1 on the churned graph starting from the old levels."""
    return simulate_single(
        event.graph,
        policy,
        seed=seed,
        initial_levels=carry_levels(levels, policy),
        max_rounds=max_rounds,
    )
