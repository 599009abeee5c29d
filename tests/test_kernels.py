"""The hear kernel and the structure cache.

The hear kernel answers "who heard ≥ 1 beep" through the graph's int32
CSR adjacency.  This suite checks it against an independent oracle —
the heard set built straight from the graph's edge list — across ≥ 8
graph families (including a degree ≥ 256 hub, the PR-1 int8-overflow
class), both directly and as the hear of every engine, and pins the
content-keyed structure cache.
"""

import numpy as np
import pytest

from repro.core.engines import base as base_module
from repro.core.engines import batched as batched_module
from repro.core.engines import constant_state as constant_state_module
from repro.core.engines.batched import simulate_batched
from repro.core.engines.constant_state import simulate_constant_state
from repro.core.engines.single import simulate_single
from repro.core.engines.two_channel import simulate_two_channel
from repro.core.kernels import (
    HearKernel,
    clear_structure_cache,
    structure_cache_info,
    structure_for,
)
from repro.core.knowledge import max_degree_policy
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
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


def _oracle_heard(graph, active):
    """``(n,)`` heard mask from the edge list: ∪ of active neighborhoods."""
    heard = np.zeros(graph.num_vertices, dtype=bool)
    edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    heard[v[active[u]]] = True
    heard[u[active[v]]] = True
    return heard


class EdgeListHear:
    """The oracle as a drop-in hear kernel (no CSR anywhere)."""

    def __init__(self, structure):
        self.structure = structure
        self.n = structure.n

    def hear(self, active):
        return _oracle_heard(self.structure.graph, active)

    def hear_rows(self, rows, out=None):
        heard = np.stack(
            [_oracle_heard(self.structure.graph, row) for row in rows]
        )
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


def test_structure_transpose_is_shared():
    structure = structure_for(gen.erdos_renyi(30, 0.2, seed=SEED))
    assert structure.csr_t is structure.csr


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
            kernel.hear(active), _oracle_heard(graph, active)
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
    since it hears through its engine's kernel."""

    def install():
        for module in (base_module, batched_module, constant_state_module):
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
