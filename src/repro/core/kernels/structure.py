"""Per-graph derived structure, built once and shared everywhere.

Every engine round reduces to the boolean question "which vertices heard
at least one beep" — a neighborhood aggregation against a *fixed*
adjacency.  :class:`GraphStructure` bundles the two derived forms of
that adjacency:

* ``edge_array`` — the canonical ``(m, 2)`` int64 edge list (sorted,
  u < v): the graph's own read-only array;
* ``csr`` — the canonical int32 CSR matrix the hear kernel reads
  (all stored entries 1; identical, entry for entry, to
  :func:`repro.graphs.io.to_sparse_adjacency`; the symmetric matrix
  is its own transpose).  It wraps copies of the graph's
  ``indptr``/``indices``, so the structure owns the arrays it shares.

Both forms are built lazily and exactly once per structure; the
module-level **structure cache** (:func:`structure_for`) is keyed by the
:class:`~repro.graphs.graph.Graph` itself — Graphs hash and compare by
content, so two engines on equal topologies share one structure (and
therefore one CSR) even when the Graph objects differ.
The cache is a bounded LRU guarded by a lock, safe to touch from
collector threads; each sweep worker process fills its own cache.

Shared structures are *read-only by contract*: engines and collectors
only ever read them (the RPR621 dataflow rule flags in-place
writes through shared references, and the ``--sanitize`` engine-numerics
check freezes them at runtime).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional, Union

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from ...graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...graphs.mutable import TopologyDelta

__all__ = [
    "GraphStructure",
    "structure_for",
    "clear_structure_cache",
    "structure_cache_info",
    "update_structure",
    "should_rebuild",
]


class GraphStructure:
    """Lazily-built derived adjacency forms of one graph.

    Parameters
    ----------
    graph:
        The topology.  ``None`` only for :meth:`from_csr` wrappers around
        a foreign adjacency matrix (e.g. an engine the cache has never
        seen); such structures are not cacheable.
    """

    def __init__(self, graph: Optional[Graph]):
        self.graph = graph
        if graph is not None:
            self.n = graph.num_vertices
            self.num_edges = graph.num_edges
        self._edge_array: Optional[npt.NDArray[np.int64]] = None
        self._csr: Optional[sp.csr_matrix] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, csr: sp.csr_matrix) -> "GraphStructure":
        """Wrap a foreign, already-built adjacency matrix (uncacheable).

        Every stored entry must be positive: the hear kernel reads the
        sparsity pattern, so a stored zero or negative weight would make
        it disagree with ``(A @ x) > 0``.  Positive weights are replaced
        by the all-ones int32 pattern every built structure stores, so
        both hear paths read one form.
        """
        if np.any(csr.data <= 0):
            raise ValueError(
                "adjacency stores an entry <= 0; the hear kernel reads the "
                "sparsity pattern, so every stored entry must be positive"
            )
        if csr.data.dtype != np.int32 or np.any(csr.data != 1):
            csr = sp.csr_matrix(
                (np.ones(csr.nnz, dtype=np.int32), csr.indices, csr.indptr),
                shape=csr.shape,
            )
        structure = cls(None)
        structure.n = int(csr.shape[0])
        structure.num_edges = int(csr.nnz) // 2
        structure._csr = csr
        return structure

    # ------------------------------------------------------------------
    # Derived forms (each built at most once)
    # ------------------------------------------------------------------
    @property
    def edge_array(self) -> npt.NDArray[np.int64]:
        """Canonical ``(m, 2)`` int64 edge array (sorted, u < v).

        Present for graph-keyed structures (the Graph's own read-only
        array) and for incrementally patched structures
        (:func:`update_structure` splices the array directly, so the
        patched structure needs no Graph object at all).
        """
        if self._edge_array is None:
            if self.graph is None:
                raise ValueError("structure wraps a bare CSR; no edge list")
            self._edge_array = self.graph.edge_array
        return self._edge_array

    @property
    def csr(self) -> sp.csr_matrix:
        """The symmetric int32 CSR adjacency (canonical form).

        Entry-identical to :func:`repro.graphs.io.to_sparse_adjacency`:
        the Graph's CSR pattern is sorted and deduplicated, so
        construction order cannot leak into the result.  A patched
        structure without a Graph builds one from its edge array.
        """
        if self._csr is None:
            graph = self.graph
            if graph is None:
                graph = Graph(self.n, self.edge_array)
            indices = graph.indices.copy()
            self._csr = sp.csr_matrix(
                (np.ones(indices.size, dtype=np.int32), indices, graph.indptr.copy()),
                shape=(self.n, self.n),
            )
        return self._csr

    def __repr__(self) -> str:
        return f"GraphStructure(n={self.n}, m={self.num_edges})"


# ----------------------------------------------------------------------
# The content-keyed structure cache
# ----------------------------------------------------------------------
#: Bounded LRU: a sweep touches a handful of distinct graphs; 64 covers
#: every harness in the repo with room to spare.
_CACHE_CAPACITY = 64

_cache: "OrderedDict[Graph, GraphStructure]" = OrderedDict()
_cache_lock = threading.Lock()
_hits = 0
_misses = 0


def structure_for(graph: Graph) -> GraphStructure:
    """The shared :class:`GraphStructure` of ``graph`` (content-keyed).

    Graphs hash/compare by ``(n, edge_array)``, so equal topologies map to one
    structure regardless of object identity — the edge array and CSR are
    built once per graph and shared across engine instances, replicas,
    and observability views.
    """
    global _hits, _misses
    with _cache_lock:
        cached = _cache.get(graph)
        if cached is not None:
            _cache.move_to_end(graph)
            _hits += 1
            return cached
        _misses += 1
        structure = GraphStructure(graph)
        _cache[graph] = structure
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
        return structure


def clear_structure_cache() -> None:
    """Drop every cached structure (tests / benchmark cold-start runs)."""
    global _hits, _misses
    with _cache_lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def structure_cache_info() -> Dict[str, Union[int, float]]:
    """``{size, capacity, hits, misses}`` — cache effectiveness counters."""
    with _cache_lock:
        return {
            "size": len(_cache),
            "capacity": _CACHE_CAPACITY,
            "hits": _hits,
            "misses": _misses,
        }


# ----------------------------------------------------------------------
# Incremental structure updates (the serving hot path)
# ----------------------------------------------------------------------
# Cost model: patching splices only the dirty CSR rows (one contiguous
# copy per clean gap), so its cost is O(m_copy + Σ deg(dirty)).  The
# per-dirty-row Python bookkeeping stops paying once the delta touches
# a sizable slice of the graph, at which point the from-scratch build —
# whose arrays are written once, in order, by vectorized constructors —
# is cheaper.  The two thresholds mark that crossover with a wide margin
# (patching a quarter of all rows costs about as much as rebuilding them
# all); a vertex-id-space *growth* always rebuilds, since every derived
# form changes shape.
_REBUILD_DIRTY_FRACTION = 0.25
_REBUILD_EDGE_FRACTION = 0.25


def should_rebuild(structure: GraphStructure, delta: "TopologyDelta") -> bool:
    """True when the cost model prefers a from-scratch rebuild.

    Exposed so tests and benchmarks can assert which path a delta takes;
    :func:`update_structure` produces byte-identical output either way.
    """
    if delta.grows:
        return True
    n = max(structure.n, 1)
    m = max(structure.num_edges - len(delta.removed) + len(delta.added), 1)
    if len(delta.dirty) > _REBUILD_DIRTY_FRACTION * n:
        return True
    return delta.churned_edges > _REBUILD_EDGE_FRACTION * m


def _edge_pairs(edges: tuple) -> npt.NDArray[np.int64]:
    """Canonical edge tuples as an ``(k, 2)`` int64 array."""
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _patch_edge_array(
    edges: npt.NDArray[np.int64],
    n: int,
    removed: npt.NDArray[np.int64],
    added: npt.NDArray[np.int64],
) -> npt.NDArray[np.int64]:
    """Splice removed/added canonical edges into the sorted edge array.

    Works on scalar edge keys ``u·n + v`` (canonical edges sort by key
    exactly as they sort lexicographically), so membership and re-sort
    are single vectorized passes.
    """
    keys = edges[:, 0] * n + edges[:, 1]
    if removed.size:
        rem_keys = removed[:, 0] * n + removed[:, 1]
        keys = keys[np.isin(keys, rem_keys, assume_unique=True, invert=True)]
    if added.size:
        add_keys = added[:, 0] * n + added[:, 1]
        keys = np.sort(np.concatenate([keys, add_keys]))
    out = np.empty((keys.size, 2), dtype=np.int64)
    np.floor_divide(keys, n, out=out[:, 0])
    np.mod(keys, n, out=out[:, 1])
    return out


def _patch_csr(
    csr: sp.csr_matrix, n: int, delta: "TopologyDelta"
) -> sp.csr_matrix:
    """Rebuild only the dirty CSR rows; clean row runs are copied whole.

    The output is entry- and dtype-identical to a fresh canonical build:
    per-row neighbor lists arrive sorted from the delta, the data vector
    is all int32 ones, and the index arrays inherit the source dtypes.
    """
    indptr, indices = csr.indptr, csr.indices
    new_counts = np.diff(indptr)
    for v in delta.dirty:
        new_counts[v] = len(delta.neighbors[v])
    new_indptr = np.empty(n + 1, dtype=indptr.dtype)
    new_indptr[0] = 0
    np.cumsum(new_counts, out=new_indptr[1:])
    total = int(new_indptr[n])
    new_indices = np.empty(total, dtype=indices.dtype)
    prev = 0  # first row whose indices have not been copied yet
    for v in delta.dirty:
        if prev < v:
            new_indices[new_indptr[prev] : new_indptr[v]] = (
                indices[indptr[prev] : indptr[v]]
            )
        row = delta.neighbors[v]
        if row:
            new_indices[new_indptr[v] : new_indptr[v + 1]] = row
        prev = v + 1
    if prev < n:
        new_indices[new_indptr[prev] : new_indptr[n]] = (
            indices[indptr[prev] : indptr[n]]
        )
    data = np.ones(total, dtype=csr.data.dtype)
    return sp.csr_matrix((data, new_indices, new_indptr), shape=(n, n))


def update_structure(
    structure: GraphStructure,
    delta: "TopologyDelta",
    graph: Optional[Graph] = None,
) -> GraphStructure:
    """A new :class:`GraphStructure` with ``delta`` applied to ``structure``.

    The input structure is never mutated (shared structures are
    read-only by contract); the returned structure holds fresh arrays
    that are **byte-identical** to a from-scratch ``structure_for`` on
    the post-delta graph — asserted across both derived forms and every
    delta shape by ``tests/test_incremental_structure.py``.

    The edge array is always patched; the CSR is patched only when the
    source structure had already built it, and otherwise stays lazy and
    builds from the patched edge array on first use, exactly as a fresh
    structure would.  When :func:`should_rebuild` prefers a from-scratch
    build (large delta, or a vertex-id-space growth that changes every
    array shape), the patch is skipped and the result comes from the
    shared cache.

    Parameters
    ----------
    structure:
        The pre-delta structure (graph-keyed or previously patched;
        bare-CSR wrappers are rejected).
    delta:
        A :class:`repro.graphs.mutable.TopologyDelta` — produced by a
        :class:`~repro.graphs.mutable.MutableTopology` op or by
        :func:`~repro.graphs.mutable.diff_graphs`.
    graph:
        Optional post-delta :class:`Graph`.  When given, the result is
        graph-keyed (and therefore cacheable); the serving hot path
        omits it to skip the O(n + m) Graph construction entirely.
    """
    if structure.graph is None and structure._edge_array is None:
        raise ValueError("cannot patch a structure wrapping a bare CSR")
    if graph is not None and graph.num_vertices != delta.new_n:
        raise ValueError(
            f"graph has {graph.num_vertices} vertices, delta says {delta.new_n}"
        )

    if should_rebuild(structure, delta):
        if graph is not None:
            return structure_for(graph)
        # The patched array goes straight into the Graph, which keeps
        # its own canonical copy.  Grown id spaces only ever *add*
        # vertices, so old keys decode identically under the new modulus.
        return structure_for(Graph(delta.new_n, _patch_edge_array(
            structure.edge_array,
            max(delta.new_n, 1),
            _edge_pairs(delta.removed),
            _edge_pairs(delta.added),
        )))

    removed = _edge_pairs(delta.removed)
    added = _edge_pairs(delta.added)
    n = delta.new_n
    patched = GraphStructure(graph)
    patched.n = n
    patched.num_edges = structure.num_edges - len(delta.removed) + len(delta.added)
    patched._edge_array = _patch_edge_array(
        structure.edge_array, max(n, 1), removed, added
    )
    if structure._csr is not None:
        patched._csr = _patch_csr(structure._csr, n, delta)
    return patched
