"""Mutable topology overlay: the substrate of the long-lived MIS service.

:class:`~repro.graphs.graph.Graph` is immutable by design — every
offline experiment freezes its topology up front.  The serving workload
(``repro serve``, :mod:`repro.serve`) instead maintains an MIS over a
graph that *keeps changing*: links appear and disappear, motes join and
die.  :class:`MutableTopology` is the mutation surface for that regime:

* the four topology ops — :meth:`add_node`, :meth:`remove_node`,
  :meth:`add_edge`, :meth:`remove_edge` — each apply one change and
  return a compact :class:`TopologyDelta` describing exactly which
  vertices were touched (the *dirty set*) and which canonical edges
  were added/removed;
* a **degree cap** (ℓmax-validity enforcement): the churn model of
  :mod:`repro.core.churn` only keeps the committed ``ℓmax`` knowledge
  valid because a global Δ upper bound is enforced across the whole
  churn process.  Mutations that would push any endpoint above the cap
  raise :class:`TopologyError` and leave the topology untouched, so a
  service can commit a uniform policy once and keep it forever;
* **stable vertex ids**: removing a node *detaches* it (strips its
  incident edges and tombstones the id) instead of relabeling the id
  space — engine state is an array indexed by vertex id, and a relabel
  would invalidate every carried level.  Freed ids are recycled by the
  next :meth:`add_node` (lowest id first, deterministically); the id
  space only grows when no freed slot exists.

Deltas compose with :func:`repro.core.kernels.update_structure`, which
patches the shared derived-adjacency forms for just the dirty vertices
instead of rebuilding them, and with the resumable engines
(:meth:`repro.core.engines.EngineBase.rebind`), which carry their levels
across the change and re-stabilize in place.  Only this module may
manipulate topology state directly — dataflow rule RPR641 flags
mutations of topology internals anywhere else.

``tests/test_serve.py`` asserts that every op's :meth:`snapshot` equals
a from-scratch :class:`Graph` over the same edge set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .graph import Graph, _normalize_edge

__all__ = [
    "TopologyError",
    "TopologyDelta",
    "MutableTopology",
    "TopologyView",
    "diff_graphs",
]


class TopologyError(ValueError):
    """A rejected topology mutation (cap violation, bad endpoint, …).

    Raised *before* any state changes: a failed op leaves the topology
    exactly as it was, so a service can treat the exception as an op
    rejection and keep going.
    """


@dataclass(frozen=True)
class TopologyDelta:
    """One applied topology change, in the form the kernels consume.

    Attributes
    ----------
    old_n, new_n:
        Vertex-id-space size before/after (``new_n > old_n`` only when
        :meth:`MutableTopology.add_node` had to append a fresh id).
    added, removed:
        Canonical ``(u, v)`` edges (``u < v``) added/removed, sorted.
    dirty:
        Sorted vertex ids whose adjacency row changed.  Appended ids are
        dirty (their row springs into existence); recycled ids with no
        incident edges are not.
    neighbors:
        For every dirty vertex, its *new* sorted neighbor tuple —
        exactly the CSR row the patched structure must hold.
    """

    old_n: int
    new_n: int
    added: Tuple[Tuple[int, int], ...] = ()
    removed: Tuple[Tuple[int, int], ...] = ()
    dirty: Tuple[int, ...] = ()
    neighbors: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def churned_edges(self) -> int:
        """Total number of edge insertions plus removals."""
        return len(self.added) + len(self.removed)

    @property
    def grows(self) -> bool:
        """True iff the vertex-id space grew."""
        return self.new_n != self.old_n


class MutableTopology:
    """A mutable, simple, undirected graph with delta-producing ops.

    Parameters
    ----------
    graph:
        Starting topology (its edge set is copied; the Graph itself is
        never touched).
    degree_cap:
        Optional global degree bound.  When set, :meth:`add_edge` (and
        :meth:`add_node` with neighbors) reject mutations that would
        push any endpoint's degree above the cap — the "loose upper
        bound on Δ" that keeps a committed uniform ℓmax policy valid
        for the whole life of the service.  The starting graph itself
        must respect the cap.
    """

    def __init__(self, graph: Graph, degree_cap: Optional[int] = None):
        if degree_cap is not None and graph.max_degree() > degree_cap:
            raise TopologyError(
                f"starting graph has max degree {graph.max_degree()} "
                f"> cap {degree_cap}"
            )
        self.degree_cap = degree_cap
        self._n = graph.num_vertices
        self._adj: List[Set[int]] = [set(graph.neighbors(v)) for v in graph]
        self._live: List[bool] = [True] * self._n
        self._free: List[int] = []  # heap of tombstoned ids
        self._num_edges = graph.num_edges
        self._version = 0

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Size of the vertex-id space (live + tombstoned)."""
        return self._n

    @property
    def num_live(self) -> int:
        """Number of live (non-tombstoned) vertices."""
        return self._n - len(self._free)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped by every applied op)."""
        return self._version

    def is_live(self, v: int) -> bool:
        return 0 <= v < self._n and self._live[v]

    def degree(self, v: int) -> int:
        self._require_live(v, "vertex")
        return len(self._adj[v])

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbor tuple of a live vertex."""
        self._require_live(v, "vertex")
        return tuple(sorted(self._adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        if not (self.is_live(u) and self.is_live(v)) or u == v:
            return False
        return v in self._adj[u]

    def live_vertices(self) -> Tuple[int, ...]:
        """Sorted ids of all live vertices."""
        return tuple(v for v in range(self._n) if self._live[v])

    def tombstones(self) -> FrozenSet[int]:
        """Ids freed by :meth:`remove_node` and not yet recycled.

        O(#tombstones) — usually empty — where :meth:`live_vertices`
        scans the whole id space.
        """
        return frozenset(self._free)

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """All edges as sorted canonical ``(u, v)`` pairs, ``u < v``."""
        return tuple(sorted(
            (u, v)
            for u in range(self._n)
            for v in self._adj[u]
            if u < v
        ))

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj), default=0)

    def snapshot(self) -> Graph:
        """A frozen :class:`Graph` of the current topology.

        Tombstoned ids are present as isolated vertices, so engine
        arrays built against the snapshot stay index-compatible with
        the mutable state.  This is the *rebuild* path — O(n + m) —
        that the incremental structure patching exists to avoid.
        """
        return Graph(self._n, self.edges())

    # ------------------------------------------------------------------
    # Mutation surface (each op returns the delta it caused)
    # ------------------------------------------------------------------
    def add_node(self) -> Tuple[int, TopologyDelta]:
        """Attach a fresh isolated vertex; returns ``(id, delta)``.

        Recycles the lowest tombstoned id when one exists (the id space
        — and hence every engine array — keeps its size); otherwise the
        id space grows by one.
        """
        old_n = self._n
        if self._free:
            vid = heapq.heappop(self._free)
            self._live[vid] = True
            delta = TopologyDelta(old_n=old_n, new_n=old_n)
        else:
            vid = self._n
            self._n += 1
            self._adj.append(set())
            self._live.append(True)
            delta = TopologyDelta(
                old_n=old_n, new_n=self._n,
                dirty=(vid,), neighbors={vid: ()},
            )
        self._version += 1
        return vid, delta

    def remove_node(self, v: int) -> TopologyDelta:
        """Detach ``v``: strip its incident edges and tombstone the id.

        The id is recycled by a later :meth:`add_node`; until then the
        slot stays in the id space as an isolated, non-live vertex (the
        engine sees an isolated vertex, which trivially re-stabilizes).
        """
        self._require_live(v, "remove_node")
        incident = sorted(self._adj[v])
        for w in incident:
            self._adj[w].discard(v)
        self._adj[v].clear()
        self._num_edges -= len(incident)
        self._live[v] = False
        heapq.heappush(self._free, v)
        dirty = sorted({v, *incident})
        self._version += 1
        return TopologyDelta(
            old_n=self._n, new_n=self._n,
            removed=tuple(sorted(_normalize_edge(v, w) for w in incident)),
            dirty=tuple(dirty),
            neighbors={u: tuple(sorted(self._adj[u])) for u in dirty},
        )

    def add_edge(self, u: int, v: int) -> TopologyDelta:
        """Insert edge ``{u, v}``; rejects cap violations and duplicates."""
        self._require_endpoints(u, v)
        if v in self._adj[u]:
            raise TopologyError(f"edge ({u}, {v}) already present")
        if self.degree_cap is not None and (
            len(self._adj[u]) + 1 > self.degree_cap
            or len(self._adj[v]) + 1 > self.degree_cap
        ):
            raise TopologyError(
                f"edge ({u}, {v}) would exceed the degree cap "
                f"{self.degree_cap}"
            )
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._version += 1
        return self._edge_delta(u, v, added=True)

    def remove_edge(self, u: int, v: int) -> TopologyDelta:
        """Delete edge ``{u, v}``; rejects absent edges."""
        self._require_endpoints(u, v)
        if v not in self._adj[u]:
            raise TopologyError(f"edge ({u}, {v}) not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._version += 1
        return self._edge_delta(u, v, added=False)

    # ------------------------------------------------------------------
    def _edge_delta(self, u: int, v: int, added: bool) -> TopologyDelta:
        edge = (_normalize_edge(u, v),)
        dirty = (u, v) if u < v else (v, u)
        return TopologyDelta(
            old_n=self._n, new_n=self._n,
            added=edge if added else (),
            removed=() if added else edge,
            dirty=dirty,
            neighbors={w: tuple(sorted(self._adj[w])) for w in dirty},
        )

    def _require_live(self, v: int, what: str) -> None:
        if not (0 <= v < self._n):
            raise TopologyError(f"{what}: vertex {v} out of range")
        if not self._live[v]:
            raise TopologyError(f"{what}: vertex {v} is not live")

    def _require_endpoints(self, u: int, v: int) -> None:
        if u == v:
            raise TopologyError(f"self loop at vertex {u} is not allowed")
        self._require_live(u, "edge endpoint")
        self._require_live(v, "edge endpoint")

    def __repr__(self) -> str:
        return (
            f"MutableTopology(n={self._n}, live={self.num_live}, "
            f"m={self._num_edges}, cap={self.degree_cap})"
        )


class TopologyView:
    """A read-only view of a :class:`MutableTopology`.

    Forwards the read surface and nothing else: there is no
    ``add_node``/``remove_node``/``add_edge``/``remove_edge`` and no
    settable attribute, so a holder of the view (``MISService.topology``)
    sees every op the owner applies but cannot apply one itself.
    """

    __slots__ = ("_topology",)

    def __init__(self, topology: MutableTopology):
        self._topology = topology

    @property
    def num_vertices(self) -> int:
        return self._topology.num_vertices

    @property
    def num_live(self) -> int:
        return self._topology.num_live

    @property
    def num_edges(self) -> int:
        return self._topology.num_edges

    @property
    def version(self) -> int:
        return self._topology.version

    @property
    def degree_cap(self) -> Optional[int]:
        return self._topology.degree_cap

    def is_live(self, v: int) -> bool:
        return self._topology.is_live(v)

    def degree(self, v: int) -> int:
        return self._topology.degree(v)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._topology.neighbors(v)

    def has_edge(self, u: int, v: int) -> bool:
        return self._topology.has_edge(u, v)

    def live_vertices(self) -> Tuple[int, ...]:
        return self._topology.live_vertices()

    def tombstones(self) -> FrozenSet[int]:
        return self._topology.tombstones()

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self._topology.edges()

    def max_degree(self) -> int:
        return self._topology.max_degree()

    def snapshot(self) -> Graph:
        return self._topology.snapshot()


def diff_graphs(old: Graph, new: Graph) -> TopologyDelta:
    """The :class:`TopologyDelta` turning ``old`` into ``new``.

    Used to funnel *bulk* changes (e.g. a whole-graph rewire from
    :func:`repro.core.churn.rewire_edges`) through the same incremental
    structure-update path as single ops — the cost model inside
    :func:`repro.core.kernels.update_structure` then decides whether
    patching or a full rebuild is cheaper.  Requires
    ``new.num_vertices >= old.num_vertices`` (ids are stable, the space
    only grows).
    """
    if new.num_vertices < old.num_vertices:
        raise TopologyError("vertex-id space cannot shrink")
    old_edges = set(old.edges)
    new_edges = set(new.edges)
    added = tuple(sorted(new_edges - old_edges))
    removed = tuple(sorted(old_edges - new_edges))
    touched: Set[int] = set(range(old.num_vertices, new.num_vertices))
    for u, v in added:
        touched.add(u)
        touched.add(v)
    for u, v in removed:
        touched.add(u)
        touched.add(v)
    dirty = tuple(sorted(touched))
    return TopologyDelta(
        old_n=old.num_vertices,
        new_n=new.num_vertices,
        added=added,
        removed=removed,
        dirty=dirty,
        neighbors={v: new.neighbors(v) for v in dirty},
    )
