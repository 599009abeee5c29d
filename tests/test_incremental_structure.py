"""``update_structure`` must be byte-identical to a from-scratch build.

The incremental path splices only dirty CSR rows, and a patched
structure derives its edge array from that CSR, so the natural failure
mode is a subtly different array (wrong dtype, unsorted row, stale
entry) that still *behaves* right on most graphs.  Every test here
therefore compares raw bytes of both derived forms — CSR
(indptr/indices/data) and the edge array — against ``GraphStructure``
built fresh on the post-delta graph, across the six delta patterns the
serving workload produces:

1. single edge add,
2. single edge delete,
3. node add (both recycled-id and id-space-growing),
4. node delete (a hub: strips many edges at once),
5. hub rewire (bulk delta via ``diff_graphs``),
6. full rewire (→ the cost model's rebuild fallback).
"""

import numpy as np
import pytest

from conftest import assert_identical
from repro.core.kernels import (
    GraphStructure,
    should_rebuild,
    structure_for,
    update_structure,
)
from repro.graphs import Graph, MutableTopology, diff_graphs
from repro.graphs.generators import erdos_renyi


def _graph(n=48, p=0.12, seed=3):
    return erdos_renyi(n, p, seed=seed)


def _materialized(graph):
    """A structure with both derived forms realized."""
    structure = GraphStructure(graph)
    structure.edge_array
    structure.csr
    return structure


def _check(structure, topo, delta):
    patched = update_structure(structure, delta)
    assert_identical(patched, GraphStructure(topo.snapshot()))
    return patched


def test_single_edge_add():
    graph = _graph()
    topo = MutableTopology(graph)
    structure = _materialized(graph)
    u, v = next(
        (u, v)
        for u in range(graph.num_vertices)
        for v in range(u + 1, graph.num_vertices)
        if not topo.has_edge(u, v)
    )
    delta = topo.add_edge(u, v)
    assert not should_rebuild(structure, delta)
    _check(structure, topo, delta)


def test_single_edge_del():
    graph = _graph()
    topo = MutableTopology(graph)
    structure = _materialized(graph)
    delta = topo.remove_edge(*topo.edges()[7])
    assert not should_rebuild(structure, delta)
    _check(structure, topo, delta)


def test_node_add_recycled_and_grown():
    graph = _graph()
    topo = MutableTopology(graph)
    structure = _materialized(graph)
    # Tombstone a vertex, then add twice: first recycles (fixed n,
    # patch path), second grows the id space (rebuild path).
    structure = _check(structure, topo, topo.remove_node(5))
    vid, delta = topo.add_node()
    assert vid == 5 and not delta.grows
    structure = _check(structure, topo, delta)
    vid, delta = topo.add_node()
    assert vid == graph.num_vertices and delta.grows
    assert should_rebuild(structure, delta)
    _check(structure, topo, delta)


def test_node_del_hub():
    graph = _graph()
    topo = MutableTopology(graph)
    structure = _materialized(graph)
    hub = max(range(graph.num_vertices), key=graph.degree)
    assert graph.degree(hub) >= 3
    delta = topo.remove_node(hub)
    assert len(delta.removed) == graph.degree(hub)
    _check(structure, topo, delta)


def test_hub_rewire_bulk_delta():
    graph = _graph()
    structure = _materialized(graph)
    hub = max(range(graph.num_vertices), key=graph.degree)
    old_nbrs = set(graph.neighbors(hub))
    new_nbrs = {
        v for v in range(graph.num_vertices)
        if v != hub and v not in old_nbrs
    }
    new_nbrs = set(sorted(new_nbrs)[: len(old_nbrs)])
    edges = {e for e in graph.edges if hub not in e}
    edges |= {(min(hub, v), max(hub, v)) for v in new_nbrs}
    target = Graph(graph.num_vertices, sorted(edges))
    delta = diff_graphs(graph, target)
    patched = update_structure(structure, delta)
    assert_identical(patched, GraphStructure(target))


def test_full_rewire_takes_rebuild_fallback():
    graph = _graph()
    structure = _materialized(graph)
    rng = np.random.default_rng(11)
    n = graph.num_vertices
    edges = set()
    while len(edges) < graph.num_edges:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    target = Graph(n, sorted(edges))
    delta = diff_graphs(graph, target)
    assert should_rebuild(structure, delta)
    patched = update_structure(structure, delta)
    assert_identical(patched, GraphStructure(target))


def test_chained_patches_stay_identical():
    graph = _graph()
    topo = MutableTopology(graph)
    structure = _materialized(graph)
    rng = np.random.default_rng(4)
    for _ in range(25):
        if topo.num_edges and rng.random() < 0.5:
            edges = topo.edges()
            delta = topo.remove_edge(*edges[int(rng.integers(len(edges)))])
        else:
            u, v = (int(x) for x in rng.integers(0, topo.num_vertices, 2))
            if u == v or topo.has_edge(u, v):
                continue
            delta = topo.add_edge(u, v)
        structure = _check(structure, topo, delta)


def test_patch_preserves_laziness_and_source():
    """A patch reads an unbuilt source's rows from its Graph: the patched
    CSR and the edge array it derives match a fresh build, and the
    source structure builds neither form."""
    graph = _graph()
    topo = MutableTopology(graph)
    structure = GraphStructure(graph)
    delta = topo.remove_edge(*topo.edges()[0])
    patched = update_structure(structure, delta)
    assert patched._edge_array is None  # derived on first read only
    assert_identical(patched, GraphStructure(topo.snapshot()))
    # Source structure untouched (shared-structure read-only contract).
    assert structure._csr is None
    assert structure._edge_array is None
    assert structure.num_edges == graph.num_edges
    # A patched edge array is as read-only as a Graph's own.
    assert not patched.edge_array.flags.writeable


def test_patch_chain_never_builds_an_edge_array():
    """50 chained ops patch CSR rows only: no structure in the chain
    materializes its O(m) edge array, and the last still matches."""
    graph = _graph()
    topo = MutableTopology(graph)
    structure = GraphStructure(graph)
    chain = [structure]
    rng = np.random.default_rng(9)
    while len(chain) <= 50:
        kind = rng.integers(4)
        live = topo.live_vertices()
        if kind == 0 and topo.num_edges:
            edges = topo.edges()
            delta = topo.remove_edge(*edges[int(rng.integers(len(edges)))])
        elif kind == 1 and topo.tombstones():
            _, delta = topo.add_node()
        elif kind == 2 and len(live) > 2:
            delta = topo.remove_node(live[int(rng.integers(len(live)))])
        else:
            u, v = (live[int(i)] for i in rng.integers(0, len(live), 2))
            if u == v or topo.has_edge(u, v):
                continue
            delta = topo.add_edge(u, v)
        assert not should_rebuild(structure, delta)
        structure = update_structure(structure, delta)
        chain.append(structure)
    assert all(s._edge_array is None for s in chain)
    assert chain[0]._csr is None
    assert_identical(structure, GraphStructure(topo.snapshot()))


def test_patched_structure_has_no_graph_until_rebuild():
    graph = _graph()
    topo = MutableTopology(graph)
    structure = _materialized(graph)
    patched = update_structure(structure, topo.remove_edge(*topo.edges()[0]))
    assert patched.graph is None  # serving fast path: no Graph built
    # ... but passing the post-delta graph keys the result for caching.
    topo2 = MutableTopology(graph)
    delta = topo2.remove_edge(*topo2.edges()[0])
    keyed = update_structure(structure, delta, graph=topo2.snapshot())
    assert keyed.graph is not None
    assert_identical(keyed, GraphStructure(topo2.snapshot()))


def test_rebuild_fallback_routes_through_cache():
    graph = _graph()
    topo = MutableTopology(graph)
    structure = _materialized(graph)
    _, delta = topo.add_node()  # grows -> rebuild
    patched = update_structure(structure, delta)
    assert patched is structure_for(topo.snapshot())  # cache hit


def test_bare_csr_structure_rejected():
    graph = _graph()
    bare = GraphStructure.from_csr(structure_for(graph).csr)
    topo = MutableTopology(graph)
    delta = topo.remove_edge(*topo.edges()[0])
    with pytest.raises(ValueError, match="bare CSR"):
        update_structure(bare, delta)
    with pytest.raises(ValueError, match="bare CSR"):
        bare.edge_array  # no edge list to derive from a foreign CSR


def test_graph_size_mismatch_rejected():
    graph = _graph()
    topo = MutableTopology(graph)
    structure = _materialized(graph)
    delta = topo.remove_edge(*topo.edges()[0])
    with pytest.raises(ValueError, match="vertices"):
        update_structure(structure, delta, graph=Graph(graph.num_vertices + 3, ()))
