"""The array-backed Graph and the block-drawn Erdős–Rényi generator.

``erdos_renyi`` draws its geometric skips in blocks; the scalar
Batagelj–Brandes loop below (one ``rng.random()`` per edge) is the
oracle it must match edge for edge *and* in the generator's final
stream position.
"""

import math
import pickle

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.graph import Graph

#: Denormal: ``log(1 - u) / log1p(-p)`` overflows to inf, so the first
#: skip hits the ``max_skip`` clamp.
DENORMAL_P = 5e-324


def scalar_erdos_renyi(n, p, rng):
    """The one-draw-per-edge loop, sorted into canonical order."""
    edges = []
    log_q = math.log1p(-p)
    v, w = 1, -1
    max_skip = float(n) * n + 2.0
    while v < n:
        skip = min(math.log(1.0 - rng.random()) / log_q, max_skip)
        w += 1 + int(skip)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)


def assert_matches_oracle(n, p, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    graph = gen.erdos_renyi(n, p, seed=ours)
    expected = scalar_erdos_renyi(n, p, theirs)
    assert np.array_equal(graph.edge_array, expected), (n, p, seed)
    assert ours.random() == theirs.random(), (n, p, seed)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 100, 1000, 4096])
def test_er_matches_scalar_loop_at_mean_degree_8(n):
    p = min(1.0, 8 / (n - 1))
    if p == 1.0:  # the complete-graph shortcut draws nothing
        for seed in range(50):
            rng = np.random.default_rng(seed)
            assert gen.erdos_renyi(n, p, seed=rng) == gen.complete(n)
            assert rng.random() == np.random.default_rng(seed).random()
        return
    for seed in range(50):
        assert_matches_oracle(n, p, seed)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 100])
@pytest.mark.parametrize("p", [0.3, 0.9, DENORMAL_P])
def test_er_matches_scalar_loop_dense_and_denormal(n, p):
    for seed in range(50):
        assert_matches_oracle(n, p, seed)


@pytest.mark.parametrize("n", [1000, 4096])
def test_er_denormal_p_is_edgeless_after_one_draw(n):
    for seed in range(5):
        assert_matches_oracle(n, DENORMAL_P, seed)


@pytest.mark.parametrize("n,seed", [(2**15, 0), (2**15, 7), (2**16, 3)])
def test_er_matches_scalar_loop_at_large_n(n, seed):
    assert_matches_oracle(n, 8 / (n - 1), seed)


def test_er_short_block_redraws(monkeypatch):
    # A one-double first block runs short at once and must double and
    # redraw from the saved state until it passes the last pair.
    monkeypatch.setattr(gen, "_skip_block", lambda mean_edges: 1)
    for n, p in ((17, 0.3), (100, 8 / 99), (60, 0.9)):
        for seed in range(10):
            assert_matches_oracle(n, p, seed)


# ----------------------------------------------------------------------
# Graph: one array-backed representation
# ----------------------------------------------------------------------
EDGES = [(3, 0), (2, 1), (0, 3), (1, 4), (4, 1), (0, 1)]


def test_list_and_array_inputs_build_equal_graphs():
    from_list = Graph(5, EDGES)
    from_array = Graph(5, np.array(EDGES, dtype=np.int32))
    assert from_list == from_array
    assert hash(from_list) == hash(from_array)
    for graph in (from_list, from_array):
        assert graph.edges == ((0, 1), (0, 3), (1, 2), (1, 4))
        assert graph.neighbors(1) == (0, 2, 4)
        assert graph.degrees() == (2, 3, 1, 1, 1)
        assert graph.closed_neighborhood(0) == (0, 1, 3)
        assert graph.num_edges == 4 and graph.max_degree() == 3


def test_duplicates_in_both_orientations_collapse():
    graph = Graph(3, [(0, 1), (1, 0), (0, 1), (2, 1), (1, 2)])
    assert graph.edges == ((0, 1), (1, 2))
    assert graph.indptr.tolist() == [0, 1, 3, 4]
    assert graph.indices.tolist() == [1, 0, 2, 1]


@pytest.mark.parametrize("make", [list, lambda e: np.array(e, dtype=np.int64)])
def test_invalid_edges_raise_the_same_messages(make):
    with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range for 2 vertices"):
        Graph(2, make([(0, 1), (0, 2)]))
    with pytest.raises(ValueError, match=r"edge \(-1, 0\) out of range"):
        Graph(2, make([(-1, 0)]))
    with pytest.raises(ValueError, match="self loop at vertex 1 is not allowed"):
        Graph(2, make([(0, 1), (1, 1), (0, 5)]))
    with pytest.raises(ValueError, match="pairs"):
        Graph(3, np.zeros((2, 3), dtype=np.int64))


def test_empty_and_edgeless_graphs():
    for graph in (Graph(0), Graph(0, np.empty((0, 2), dtype=np.int64))):
        assert graph.num_vertices == 0 and graph.edges == ()
        assert graph.edge_array.shape == (0, 2) and graph.indptr.tolist() == [0]
        assert graph.max_degree() == 0
    edgeless = Graph(4, [])
    assert edgeless == Graph(4) and hash(edgeless) == hash(Graph(4))
    assert edgeless.degrees() == (0, 0, 0, 0) and edgeless.neighbors(3) == ()


def test_arrays_are_read_only():
    graph = gen.erdos_renyi(50, 0.2, seed=1)
    for array in (graph.edge_array, graph.indptr, graph.indices):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_input_array_is_not_aliased():
    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
    graph = Graph(3, edges)
    edges[0, 1] = 2
    assert graph.edges == ((0, 1), (1, 2))
    assert edges.flags.writeable


def test_pickle_round_trip_keeps_equality_hash_and_freeze():
    graph = gen.by_name("er", 300, seed=4)
    twin = pickle.loads(pickle.dumps(graph))
    assert twin == graph and hash(twin) == hash(graph)
    assert twin.neighbors(7) == graph.neighbors(7)
    assert not twin.edge_array.flags.writeable
    assert not twin.indices.flags.writeable


def test_csr_pattern_matches_the_neighbor_tuples():
    graph = gen.by_name("ba", 200, seed=2)
    for v in graph.vertices():
        row = graph.indices[graph.indptr[v] : graph.indptr[v + 1]]
        assert tuple(row.tolist()) == graph.neighbors(v)
    assert graph.indices.dtype == graph.indptr.dtype == np.int32


@pytest.mark.parametrize("family", gen.FAMILY_NAMES)
def test_deg2_all_matches_the_closed_neighborhood_definition(family):
    from repro.graphs.properties import deg2_all

    graph = gen.by_name(family, 120, seed=5)
    expected = tuple(
        max(graph.degree(u) for u in graph.closed_neighborhood(v))
        for v in graph.vertices()
    )
    assert deg2_all(graph) == expected
    assert deg2_all(Graph(3, [(0, 1)])) == (1, 1, 0)
