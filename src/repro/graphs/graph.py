"""Immutable undirected graph used as the network topology substrate.

The beeping model runs on an anonymous, undirected, simple graph.  This
module provides the single :class:`Graph` type that every other subsystem
(the round engine, the vectorized engine, the MIS validators, the workload
generators) consumes.

Design notes
------------
* Vertices are the integers ``0 .. n-1``.  Vertex ids are *simulator
  handles* only: the algorithms in :mod:`repro.core` never observe them,
  which preserves the anonymity assumption of the beeping model.
* The graph is stored as arrays, frozen (read-only) at construction:
  the canonical ``(m, 2)`` int64 edge array (rows ``(u, v)`` with
  ``u < v``, sorted) and the symmetric CSR pattern ``indptr`` /
  ``indices`` (neighbours sorted per row).  One sort of the directed
  edge keys ``u·n + v`` yields both, so the kernels' derived structure
  reads them without a tuple round trip.
* The tuple views — :attr:`Graph.edges`, :meth:`Graph.neighbors`,
  :meth:`Graph.degrees` — are materialised from those arrays on first
  use, once, and are sorted, so iteration order is deterministic, which
  in turn makes every seeded simulation reproducible bit-for-bit.
* Construction validates the edge list: endpoints in range, no self
  loops.  Parallel edges are collapsed (the beeping model cannot observe
  multiplicity: a vertex only hears "at least one neighbor beeped").
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

__all__ = ["Graph"]

EdgesLike = Union[Iterable[Tuple[int, int]], npt.NDArray[np.integer[Any]]]


def _normalize_edge(u: int, v: int) -> Tuple[int, int]:
    """Return the canonical (min, max) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


def _frozen(array: npt.NDArray[Any]) -> npt.NDArray[Any]:
    array.flags.writeable = False
    return array


def _validated_pairs(n: int, edges: EdgesLike) -> npt.NDArray[np.int64]:
    """``edges`` as a validated ``(k, 2)`` int64 array (may hold duplicates)."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    u, v = pairs[:, 0], pairs[:, 1]
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    bad = outside | (u == v)
    if bad.any():
        i = int(np.argmax(bad))
        a, b = int(u[i]), int(v[i])
        if outside[i]:
            raise ValueError(f"edge ({a}, {b}) out of range for {n} vertices")
        raise ValueError(f"self loop at vertex {a} is not allowed")
    return pairs


class Graph:
    """An immutable, simple, undirected graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; must be >= 0.
    edges:
        Iterable of ``(u, v)`` pairs, or an ``(m, 2)`` integer array, with
        ``0 <= u, v < n`` and ``u != v``.  Duplicates (in either
        orientation) are collapsed.

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.num_vertices
    3
    >>> g.degree(1)
    2
    >>> g.neighbors(1)
    (0, 2)
    """

    __slots__ = (
        "_n", "_pairs", "_indptr", "_indices", "_hash",
        "_edges", "_adjacency", "_degrees",
    )

    def __init__(self, num_vertices: int, edges: EdgesLike = ()):
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        n = int(num_vertices)
        pairs = _validated_pairs(n, edges)
        # Both orientations as directed keys u·n + v: sorted and deduped
        # they are the CSR entries in row order, and the u < v half is
        # the canonical edge list in lexicographic order.
        # (Sort and mask rather than np.unique: numpy 2's hash-based
        # unique took 0.3 s on the 2**19 keys of an n = 2**16 ER graph.)
        keys = np.concatenate([pairs[:, 0] * n + pairs[:, 1],
                               pairs[:, 1] * n + pairs[:, 0]])
        keys.sort()
        if keys.size:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        rows, cols = np.divmod(keys, max(n, 1))
        upper = rows < cols
        # The index dtype scipy gives the same matrix (int32 when it fits).
        index = np.int32 if max(n, keys.size) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        self._set(
            n,
            np.stack([rows[upper], cols[upper]], axis=1),
            indptr,
            cols.astype(index),
        )

    def _set(
        self,
        n: int,
        pairs: npt.NDArray[np.int64],
        indptr: npt.NDArray[Any],
        indices: npt.NDArray[Any],
    ) -> None:
        self._n = n
        self._pairs = _frozen(pairs)
        self._indptr = _frozen(indptr)
        self._indices = _frozen(indices)
        self._hash: Optional[int] = None
        self._edges: Optional[Tuple[Tuple[int, int], ...]] = None
        self._adjacency: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._degrees: Optional[Tuple[int, ...]] = None

    def __getstate__(self) -> Tuple[int, npt.NDArray[Any], npt.NDArray[Any], npt.NDArray[Any]]:
        return (self._n, self._pairs, self._indptr, self._indices)

    def __setstate__(
        self, state: Tuple[int, npt.NDArray[Any], npt.NDArray[Any], npt.NDArray[Any]]
    ) -> None:
        self._set(*state)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (undirected, deduplicated) edges."""
        return int(self._pairs.shape[0])

    @property
    def edge_array(self) -> npt.NDArray[np.int64]:
        """The canonical ``(m, 2)`` int64 edge array (read-only)."""
        return self._pairs

    @property
    def indptr(self) -> npt.NDArray[Any]:
        """CSR row pointers of the symmetric adjacency (read-only)."""
        return self._indptr

    @property
    def indices(self) -> npt.NDArray[Any]:
        """CSR column indices, sorted within each row (read-only)."""
        return self._indices

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """All edges as sorted canonical ``(u, v)`` pairs with ``u < v``."""
        if self._edges is None:
            self._edges = tuple(
                zip(self._pairs[:, 0].tolist(), self._pairs[:, 1].tolist())
            )
        return self._edges

    def vertices(self) -> range:
        """Iterate over all vertex ids in increasing order."""
        return range(self._n)

    def _neighbor_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        if self._adjacency is None:
            flat = self._indices.tolist()
            bounds = self._indptr.tolist()
            self._adjacency = tuple(
                tuple(flat[bounds[v] : bounds[v + 1]]) for v in range(self._n)
            )
        return self._adjacency

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The sorted tuple of neighbors of ``v``."""
        return self._neighbor_tuples()[v]

    def closed_neighborhood(self, v: int) -> Tuple[int, ...]:
        """``N+(v) = N(v) ∪ {v}`` as a sorted tuple (paper notation)."""
        return tuple(sorted(self.neighbors(v) + (v,)))

    def degree(self, v: int) -> int:
        """``deg(v) = |N(v)|``."""
        return self.degrees()[v]

    def degrees(self) -> Tuple[int, ...]:
        """Tuple of all vertex degrees, indexed by vertex id."""
        if self._degrees is None:
            self._degrees = tuple(np.diff(self._indptr).tolist())
        return self._degrees

    def max_degree(self) -> int:
        """The maximum degree Δ of the graph (0 for an empty graph)."""
        return int(np.diff(self._indptr).max()) if self._n else 0

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` is an edge."""
        if u == v:
            return False
        # Neighbor tuples are sorted; binary search would be possible, but
        # degree-bounded linear membership is simpler and fast enough.
        degrees = self.degrees()
        a, b = (u, v) if degrees[u] <= degrees[v] else (v, u)
        return b in self.neighbors(a)

    # ------------------------------------------------------------------
    # Python protocol support
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._pairs, other._pairs)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n, self._pairs.shape, self._pairs.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Derived constructions
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(cls, adjacency: Dict[int, Sequence[int]]) -> "Graph":
        """Build a graph from a ``{vertex: neighbors}`` mapping.

        The vertex set is ``0 .. max_key`` (missing keys become isolated
        vertices).  Both orientations of each edge may be present; they
        are collapsed.
        """
        if not adjacency:
            return cls(0)
        n = max(adjacency) + 1
        edges = [
            (u, v)
            for u, neighbors in adjacency.items()
            for v in neighbors
        ]
        return cls(n, edges)

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        """The induced subgraph on ``keep``, relabeled to ``0..k-1``.

        Vertices in ``keep`` are relabeled in increasing original-id
        order.  Useful for analyzing residual graphs of undecided
        vertices.
        """
        kept = sorted(set(keep))
        relabel = {old: new for new, old in enumerate(kept)}
        kept_set = set(kept)
        edges = [
            (relabel[u], relabel[v])
            for u, v in self.edges
            if u in kept_set and v in kept_set
        ]
        return Graph(len(kept), edges)

    def complement(self) -> "Graph":
        """The complement graph (no self loops)."""
        edges = [
            (u, v)
            for u in range(self._n)
            for v in range(u + 1, self._n)
            if not self.has_edge(u, v)
        ]
        return Graph(self._n, edges)

    def union_disjoint(self, other: "Graph") -> "Graph":
        """Disjoint union; ``other``'s vertices are shifted by ``self.n``."""
        offset = self._n
        edges = np.concatenate([self._pairs, other._pairs + offset])
        return Graph(self._n + other._n, edges)
