"""The hear kernel and the structure cache.

The hear kernel answers "who heard ≥ 1 beep" through the graph's CSR
adjacency: a single-vector int32 product for one row, a replica-packed
OR-gather over the CSR pattern for a block.  This suite checks it
against an independent oracle — the heard set built straight from the
structure's edge list — across ≥ 8 graph families (including a degree
≥ 256 hub, the PR-1 int8-overflow class), every word width and 64-row
chunk boundary of the packed path, empty CSR rows at both ends of the
id space, and as the hear of every engine; it also pins the
content-keyed structure cache and the positive-entry contract of
foreign adjacencies.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.engines import base as base_module
from repro.core.engines import batched as batched_module
from repro.core.engines.batched import simulate_batched
from repro.core.engines.constant_state import simulate_constant_state
from repro.core.engines.single import simulate_single
from repro.core.engines.two_channel import simulate_two_channel
from repro.core.kernels import (
    GraphStructure,
    HearKernel,
    clear_structure_cache,
    structure_cache_info,
    structure_for,
    update_structure,
)
from repro.core.knowledge import max_degree_policy
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.mutable import MutableTopology
from repro.graphs.io import to_sparse_adjacency  # repro: allow-file[RPR631]

SEED = 2024

#: ≥ 8 graph families; ``star(300)`` has a degree-299 hub (the class the
#: PR-1 int8 overflow wrapped on) and ``complete(40)`` is fully dense.
FAMILIES = {
    "path": lambda: gen.path(40),
    "cycle": lambda: gen.cycle(33),
    "star_deg299": lambda: gen.star(300),
    "complete": lambda: gen.complete(40),
    "grid": lambda: gen.grid_2d(6, 7),
    "torus": lambda: gen.torus_2d(5, 6),
    "binary_tree": lambda: gen.binary_tree(5),
    "er": lambda: gen.erdos_renyi(64, 0.15, seed=SEED),
    "regular": lambda: gen.random_regular(30, 4, seed=SEED),
    "watts_strogatz": lambda: gen.watts_strogatz(36, 4, 0.2, seed=SEED),
}


@pytest.fixture(params=sorted(FAMILIES))
def family_graph(request):
    return request.param, FAMILIES[request.param]()


def _oracle_heard(edges, active):
    """``(n,)`` heard mask from an ``(m, 2)`` edge list: ∪ of active
    neighborhoods."""
    heard = np.zeros(active.shape[0], dtype=bool)
    u, v = edges[:, 0], edges[:, 1]
    heard[v[active[u]]] = True
    heard[u[active[v]]] = True
    return heard


class EdgeListHear:
    """The oracle as a drop-in hear kernel (no CSR anywhere).

    It reads the structure's edge array, which a patched structure
    splices independently of its CSR.
    """

    def __init__(self, structure):
        self.structure = structure
        self.n = structure.n

    def hear(self, active):
        return _oracle_heard(self.structure.edge_array, active)

    def hear_rows(self, rows, out=None):
        edges = self.structure.edge_array
        heard = np.array(
            [_oracle_heard(edges, row) for row in rows], dtype=bool
        ).reshape(rows.shape)
        if out is None:
            return heard
        np.copyto(out, heard)
        return out


# ----------------------------------------------------------------------
# The structure cache
# ----------------------------------------------------------------------
def test_structure_cache_shares_by_content():
    clear_structure_cache()
    a = structure_for(gen.cycle(12))
    b = structure_for(gen.cycle(12))  # distinct Graph object, same content
    assert a is b
    info = structure_cache_info()
    assert info["misses"] == 1 and info["hits"] == 1


def test_structure_cache_capacity_is_bounded():
    clear_structure_cache()
    capacity = structure_cache_info()["capacity"]
    for n in range(2, capacity + 10):
        structure_for(gen.path(n))
    assert structure_cache_info()["size"] == capacity


def test_equal_graph_hits_the_built_structure():
    clear_structure_cache()
    graph = gen.cycle(9)
    built = structure_for(graph)
    csr = built.csr  # force the build
    twin = structure_for(Graph(9, graph.edges))
    assert twin is built and twin.csr is csr
    assert structure_cache_info()["hits"] == 1


def test_structure_csr_matches_to_sparse_adjacency(family_graph):
    _, graph = family_graph
    ours = structure_for(graph).csr
    reference = to_sparse_adjacency(graph)
    assert (ours != reference).nnz == 0
    assert ours.dtype == reference.dtype
    for part in ("indptr", "indices", "data"):
        a, b = getattr(ours, part), getattr(reference, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part


# ----------------------------------------------------------------------
# The hear kernel against the edge-list oracle
# ----------------------------------------------------------------------
def test_kernels_agree_on_random_masks(family_graph):
    _, graph = family_graph
    kernel = HearKernel(structure_for(graph))
    rng = np.random.default_rng(SEED)
    for density in (0.0, 0.05, 0.5, 1.0):
        active = rng.random(graph.num_vertices) < density
        np.testing.assert_array_equal(
            kernel.hear(active), EdgeListHear(kernel.structure).hear(active)
        )


def test_hear_rows_agree_and_are_c_contiguous(family_graph):
    _, graph = family_graph
    structure = structure_for(graph)
    kernel = HearKernel(structure)
    rng = np.random.default_rng(SEED + 1)
    rows = rng.random((5, graph.num_vertices)) < 0.3
    expected = EdgeListHear(structure).hear_rows(rows)
    heard = kernel.hear_rows(rows)
    assert heard.flags.c_contiguous
    np.testing.assert_array_equal(heard, expected)
    # The out= path (what the batched engine uses) must match too.
    out = np.empty_like(rows)
    result = kernel.hear_rows(rows, out=out)
    assert result is out and out.flags.c_contiguous
    np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# The packed block path where the packing can break
# ----------------------------------------------------------------------
#: Block heights crossing every word width (8/16/32/64 bits) and the
#: 64-row chunking, climbing and then falling on one kernel (replicas
#: retire) so every scratch width is reused at other heights.
HEIGHTS = (1, 2, 7, 8, 9, 16, 17, 32, 33, 63, 64, 65, 130)
DENSITIES = (0.05, 0.4, 1.0)


def _deleted_node_structure():
    """A patched (not rebuilt) structure after deleting the top hub."""
    graph = gen.erdos_renyi(200, 0.05, seed=SEED)
    structure = GraphStructure(graph)
    structure.csr
    hub = max(range(graph.num_vertices), key=graph.degree)
    patched = update_structure(structure, MutableTopology(graph).remove_node(hub))
    assert patched._csr is not None and patched.graph is None
    assert patched.csr.indptr[hub] == patched.csr.indptr[hub + 1]
    return patched


#: Graphs the packed path must survive on top of :data:`FAMILIES`:
#: empty CSR rows at id 0 and id n−1 (the ``reduceat`` empty-row and
#: trailing-sentinel cases) and in the middle, no edges at all, one
#: vertex, and a structure spliced by ``update_structure``.
PACKING_STRUCTURES = {
    "isolated_ends": lambda: structure_for(
        Graph(12, [(1, 2), (2, 3), (3, 10), (5, 9), (2, 10)])
    ),
    "edgeless": lambda: structure_for(Graph(7, [])),
    "single_vertex": lambda: structure_for(Graph(1, [])),
    "deleted_node": _deleted_node_structure,
    **{
        name: (lambda make=make: structure_for(make()))
        for name, make in FAMILIES.items()
    },
}


@pytest.mark.parametrize("name", sorted(PACKING_STRUCTURES))
def test_packed_hear_matches_oracle_at_every_height(name):
    structure = PACKING_STRUCTURES[name]()
    kernel = HearKernel(structure)
    oracle = EdgeListHear(structure)
    rng = np.random.default_rng(SEED + 2)
    for height in HEIGHTS + HEIGHTS[::-1]:
        for density in DENSITIES:
            rows = rng.random((height, structure.n)) < density
            expected = oracle.hear_rows(rows)
            heard = kernel.hear_rows(rows)
            assert heard.flags.c_contiguous
            np.testing.assert_array_equal(heard, expected, err_msg=f"{height}")
            # Prefilled with the complement: a row the kernel skips fails.
            out = ~expected
            assert kernel.hear_rows(rows, out=out) is out
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(out, expected, err_msg=f"{height}")
            np.testing.assert_array_equal(kernel.hear(rows[0]), expected[0])


def test_one_row_block_does_not_call_hear(monkeypatch):
    """``bench/trace.py`` patches both methods; a nested call would be
    counted twice."""
    structure = structure_for(gen.cycle(9))
    kernel = HearKernel(structure)

    def forbidden(self, active):
        raise AssertionError("hear_rows called hear")

    monkeypatch.setattr(HearKernel, "hear", forbidden)
    rows = np.zeros((1, 9), dtype=bool)
    rows[0, 4] = True
    np.testing.assert_array_equal(
        kernel.hear_rows(rows), EdgeListHear(structure).hear_rows(rows)
    )


@pytest.mark.parametrize("entry", [0, -1])
def test_from_csr_rejects_nonpositive_stored_entries(entry):
    csr = structure_for(gen.cycle(6)).csr.copy()
    csr.data[3] = entry  # a stored entry: the pattern still has it
    with pytest.raises(ValueError, match="positive"):
        GraphStructure.from_csr(csr)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
def test_from_csr_accepts_positive_weights(dtype):
    pattern = structure_for(gen.star(20)).csr
    csr = sp.csr_matrix(pattern, dtype=dtype)
    csr.data[:] = np.arange(1, csr.nnz + 1) * 0.75 + 2
    structure = GraphStructure.from_csr(csr)
    assert structure.csr.dtype == np.int32
    np.testing.assert_array_equal(structure.csr.data, 1)
    kernel = HearKernel(structure)
    rows = np.zeros((3, 20), dtype=bool)
    rows[0, 0] = rows[2, 7] = True
    expected = (csr @ rows.T.astype(dtype)).T > 0
    np.testing.assert_array_equal(kernel.hear_rows(rows), expected)
    np.testing.assert_array_equal(kernel.hear_rows(rows[2:]), expected[2:])
    np.testing.assert_array_equal(kernel.hear(rows[0]), expected[0])


# ----------------------------------------------------------------------
# Engine-level bit-identity: the CSR kernel vs the edge-list oracle
# ----------------------------------------------------------------------
def _outcome_tuple(result):
    return (
        result.stabilized,
        result.rounds,
        sorted(result.mis),
        result.final_levels.tolist(),
    )


@pytest.fixture
def use_oracle(monkeypatch):
    """Calling the fixture makes every engine built afterwards hear
    through :class:`EdgeListHear` — the fused round kernel included,
    since it hears through its engine's kernel, and the two-state tag,
    whose block is a ``BatchedEngine``."""

    def install():
        for module in (base_module, batched_module):
            monkeypatch.setattr(module, "HearKernel", EdgeListHear)

    return install


def test_engine_outcomes_identical_across_kernels(family_graph, use_oracle):
    _, graph = family_graph
    policy = max_degree_policy(graph)
    runs = {
        "single": lambda: simulate_single(
            graph, policy, seed=SEED, arbitrary_start=True
        ),
        "two_channel": lambda: simulate_two_channel(
            graph, policy, seed=SEED, arbitrary_start=True
        ),
        "constant_state": lambda: simulate_constant_state(graph, seed=SEED),
    }
    expected = {label: _outcome_tuple(run()) for label, run in runs.items()}
    use_oracle()
    for label, run in runs.items():
        assert _outcome_tuple(run()) == expected[label], label


@pytest.mark.parametrize("algorithm", ["single", "two_channel"])
def test_batched_outcomes_identical_across_kernels(
    family_graph, algorithm, use_oracle
):
    _, graph = family_graph
    policy = max_degree_policy(graph)

    def run():
        result = simulate_batched(
            graph,
            policy,
            replicas=4,
            seed=SEED,
            algorithm=algorithm,
            arbitrary_start=True,
        )
        return [_outcome_tuple(replica) for replica in result.results]

    expected = run()
    use_oracle()
    assert run() == expected
