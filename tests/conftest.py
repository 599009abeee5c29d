"""Shared fixtures for the test suite.

Running pytest with ``REPRO_SANITIZE=1`` arms the sanitizer fixtures
below: every test then executes under
``np.errstate(over='raise', invalid='raise', divide='raise')`` so
silent numeric corruption (scalar integer overflow, NaN production)
fails the test that caused it.  See :mod:`repro.devtools.sanitize`.
"""

import contextlib
import os

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.graph import Graph

_SANITIZE = bool(os.environ.get("REPRO_SANITIZE"))


@pytest.fixture(autouse=_SANITIZE)
def _sanitize_numerics():
    """Trap silent numeric corruption (armed by ``REPRO_SANITIZE=1``)."""
    from repro.devtools.sanitize import errstate_guard

    with errstate_guard():
        yield


@pytest.fixture
def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4() -> Graph:
    return generators.path(4)


@pytest.fixture
def star6() -> Graph:
    """A star with hub 0 and five leaves."""
    return generators.star(6)


@pytest.fixture
def petersen() -> Graph:
    """The Petersen graph — 3-regular, girth 5, a classic stress case."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


@pytest.fixture
def er_graph() -> Graph:
    """A fixed mid-size sparse random graph (may be disconnected)."""
    return generators.erdos_renyi_mean_degree(80, 6.0, seed=42)


@pytest.fixture
def isolated_plus_edge() -> Graph:
    """Two connected vertices plus an isolated one — min edge-case combo."""
    return Graph(3, [(0, 1)])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


def small_graph_zoo():
    """A deterministic list of (name, graph) pairs covering the families.

    Function (not fixture) so tests can parametrize over it at collection
    time.
    """
    return [
        ("empty3", Graph(3)),
        ("single", Graph(1)),
        ("edge", Graph(2, [(0, 1)])),
        ("path7", generators.path(7)),
        ("cycle8", generators.cycle(8)),
        ("star9", generators.star(9)),
        ("complete5", generators.complete(5)),
        ("grid3x4", generators.grid_2d(3, 4)),
        ("tree_d3", generators.binary_tree(3)),
        ("hypercube3", generators.hypercube(3)),
        ("er20", generators.erdos_renyi_mean_degree(20, 4.0, seed=3)),
        ("regular12", generators.random_regular(12, 3, seed=4)),
        ("ba25", generators.barabasi_albert(25, 2, seed=5)),
        ("bipartite", generators.complete_bipartite(3, 4)),
    ]


# ----------------------------------------------------------------------
# Hand-driven step loops: the reference the fused round kernel is
# compared against.  Engines run every stabilization but a
# ``BatchedCollector``-observed one through the fused kernel, so the
# per-round ``step()`` path is driven here directly, with the same
# legality cadence as the engines' run loops.
# ----------------------------------------------------------------------
@pytest.fixture
def fused_runs(monkeypatch):
    """Record every fused run loop (``run_block`` / ``run_constant``).

    ``step()`` runs one kernel round too, so an engine's ``_fused``
    kernel exists after any round; an empty list is what says that
    only the step loop ran.
    """
    from repro.core.kernels import RoundKernel

    calls = []
    for name in ("run_block", "run_constant"):
        original = getattr(RoundKernel, name)

        def counted(self, *args, _original=original, **kwargs):
            calls.append(self)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(RoundKernel, name, counted)
    return calls


def stream_states(engine):
    """Where every random stream of ``engine`` continues.

    Per trajectory: the next ``block`` main-stream uniforms it would
    consume (a batched replica serves its unconsumed pre-drawn values
    first; the generator itself may run ahead of them), and the exact
    generator states of its channel and scheduler streams.  Advances
    the main generators: call once, at the end of a comparison.
    """
    def state(rng):
        return None if rng is None else rng.bit_generator.state

    if hasattr(engine, "rngs"):
        block = engine._draw_block
        rows = [
            np.concatenate((
                engine._blocks[r, engine._cursor[r]:].ravel(),
                engine.rngs[r].random(block * engine.n),
            ))[: block * engine.n]
            for r in range(engine.replicas)
        ]
        stresses = engine._stress
    else:
        rows = [engine.rng.random(engine.n)]
        stresses = [engine._stress]
    return [
        (row, state(s.channel_rng), state(s.scheduler_rng))
        for row, s in zip(rows, stresses)
    ]


def assert_same_streams(engine, twin):
    """``engine`` and ``twin`` continue every random stream alike."""
    for (row, channel, scheduler), (row2, channel2, scheduler2) in zip(
        stream_states(engine), stream_states(twin), strict=True
    ):
        np.testing.assert_array_equal(row, row2)
        assert channel == channel2
        assert scheduler == scheduler2


def step_until_stable(engine, max_rounds, check_every=1):
    """Drive a solo engine through ``step()`` until it is legal."""
    from repro.core.engines import VectorizedResult

    executed = 0
    while True:
        should_check = executed % check_every == 0 or executed >= max_rounds
        if should_check and engine.is_legal():
            return VectorizedResult(
                True, executed, engine.mis_vertices(), engine.levels.copy()
            )
        if executed >= max_rounds:
            return VectorizedResult(
                False, executed, frozenset(), engine.levels.copy()
            )
        engine.step()
        executed += 1


def step_batched(engine, max_rounds, check_every=1):
    """Drive a ``BatchedEngine`` through ``step()``, retiring legal rows."""
    from repro.core.engines import VectorizedResult

    results = [None] * engine.replicas
    active = np.ones(engine.replicas, dtype=bool)
    executed = 0
    while active.any():
        if executed % check_every == 0 or executed >= max_rounds:
            legal = engine.legal_mask()
            for r in np.flatnonzero(active & legal).tolist():
                results[r] = VectorizedResult(
                    True, executed, engine.mis_vertices(r),
                    engine.levels[r].copy(),
                )
                active[r] = False
        if executed >= max_rounds:
            for r in np.flatnonzero(active).tolist():
                results[r] = VectorizedResult(
                    False, executed, frozenset(), engine.levels[r].copy()
                )
            break
        if active.any():
            engine.step(active)
        executed += 1
    return results


def step_constant_state(engine, max_rounds):
    """Drive a ``ConstantStateEngine`` through ``step()`` to an MIS."""
    from repro.core.engines import VectorizedResult

    executed = 0
    while not engine.is_legal():
        if executed >= max_rounds:
            return VectorizedResult(
                False, executed, frozenset(), engine.in_mis.astype(np.int64)
            )
        engine.step()
        executed += 1
    return VectorizedResult(
        True, executed, engine.mis_vertices(), engine.in_mis.astype(np.int64)
    )


# ----------------------------------------------------------------------
# Structure sources: the ways an engine's CSR structure can reach the
# content-keyed structure cache.  Every source must leave trajectories
# bit-identical.  The names are those of the hear kernels the same test
# axes selected while there was more than one, so the test ids stay
# stable; each now names where the one CSR hear kernel's structure
# comes from:
#
# * ``auto``   -- built lazily by ``structure_for`` on a cold cache;
# * ``sparse`` -- built by ``structure_for`` on the graph rebuilt from
#   its scipy CSR adjacency (an equal, distinct Graph object);
# * ``dense``  -- built by ``structure_for`` on the graph rebuilt from
#   its dense n x n adjacency matrix.
# ----------------------------------------------------------------------
STRUCTURE_SOURCES = ("auto", "sparse", "dense")


@contextlib.contextmanager
def structure_source(graph, source):
    """Fill the structure cache for ``graph`` from ``source``.

    Yields the structure every engine built on ``graph`` inside the
    block picks up; the cache is cleared on entry and on exit.
    """
    from repro.core.kernels import clear_structure_cache, structure_for
    from repro.graphs.io import to_sparse_adjacency

    clear_structure_cache()
    try:
        if source == "auto":
            structure = structure_for(graph)
        elif source in ("sparse", "dense"):
            adjacency = to_sparse_adjacency(graph)
            if source == "dense":
                adjacency = adjacency.toarray()
            rows, cols = adjacency.nonzero()
            rebuilt = Graph(
                graph.num_vertices,
                [(u, v) for u, v in zip(rows.tolist(), cols.tolist()) if u < v],
            )
            assert rebuilt == graph and rebuilt is not graph
            structure = structure_for(rebuilt)
            structure.csr  # force the build on the rebuilt graph
        else:
            raise ValueError(f"unknown structure source {source!r}")
        assert structure_for(graph) is structure
        yield structure
    finally:
        clear_structure_cache()
