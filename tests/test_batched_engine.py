"""BatchedEngine: R replicas in one level matrix, bit-identical each.

The load-bearing contract (module docstring of
``repro.core.engines.batched``): replica ``k`` of a batched run is
*bit-identical* — same trajectory, same stabilization round, same MIS,
same final levels — to a solo ``simulate_single`` / ``simulate_two_channel``
run seeded with the corresponding spawned child ``SeedSequence``.
"""

import numpy as np
import pytest

from repro.core.engines import (
    BatchedEngine,
    BatchedResult,
    simulate_batched,
    simulate_single,
    simulate_two_channel,
)
from repro.core.knowledge import (
    max_degree_policy,
    neighborhood_degree_policy,
)
from repro.graphs import generators


@pytest.fixture
def graph():
    return generators.erdos_renyi_mean_degree(60, 5.0, seed=11)


def _children(seed, replicas):
    return np.random.SeedSequence(seed).spawn(replicas)


# ----------------------------------------------------------------------
# The bit-identity contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("arbitrary_start", [False, True])
def test_replicas_match_solo_single_channel(graph, arbitrary_start):
    policy = max_degree_policy(graph, c1=6)
    replicas = 5
    batch = simulate_batched(
        graph, policy, replicas=replicas, seed=123,
        arbitrary_start=arbitrary_start,
    )
    for k, child in enumerate(_children(123, replicas)):
        solo = simulate_single(
            graph, policy, seed=np.random.default_rng(child),
            arbitrary_start=arbitrary_start,
        )
        assert batch[k].stabilized and solo.stabilized
        assert batch[k].rounds == solo.rounds
        assert batch[k].mis == solo.mis
        assert np.array_equal(batch[k].final_levels, solo.final_levels)


@pytest.mark.parametrize("arbitrary_start", [False, True])
def test_replicas_match_solo_two_channel(graph, arbitrary_start):
    policy = neighborhood_degree_policy(graph, c1=6)
    replicas = 4
    batch = simulate_batched(
        graph, policy, replicas=replicas, seed=77, algorithm="two_channel",
        arbitrary_start=arbitrary_start,
    )
    for k, child in enumerate(_children(77, replicas)):
        solo = simulate_two_channel(
            graph, policy, seed=np.random.default_rng(child),
            arbitrary_start=arbitrary_start,
        )
        assert batch[k].rounds == solo.rounds
        assert batch[k].mis == solo.mis
        assert np.array_equal(batch[k].final_levels, solo.final_levels)


def test_explicit_rngs_equal_spawned(graph):
    """The sweep executor's hook: handing the replica generators explicitly."""
    policy = max_degree_policy(graph, c1=6)
    children = _children(9, 3)
    via_seed = simulate_batched(
        graph, policy, replicas=3, seed=9, arbitrary_start=True
    )
    via_children = simulate_batched(
        graph, policy, rngs=[np.random.default_rng(c) for c in children],
        arbitrary_start=True,
    )
    for a, b in zip(via_seed, via_children):
        assert a.rounds == b.rounds
        assert a.mis == b.mis
        assert np.array_equal(a.final_levels, b.final_levels)


def test_check_every_matches_solo_cadence(graph):
    """Coarser legality cadence shifts rounds identically to solo runs."""
    policy = max_degree_policy(graph, c1=6)
    batch = simulate_batched(
        graph, policy, replicas=3, seed=5, arbitrary_start=True, check_every=4
    )
    for k, child in enumerate(_children(5, 3)):
        solo = simulate_single(
            graph, policy, seed=np.random.default_rng(child),
            arbitrary_start=True, check_every=4,
        )
        assert batch[k].rounds == solo.rounds
        assert batch[k].rounds % 4 == 0


# ----------------------------------------------------------------------
# Mechanics
# ----------------------------------------------------------------------
def test_retired_replicas_freeze(graph):
    """A replica that stabilizes stops stepping and drawing randomness."""
    policy = max_degree_policy(graph, c1=6)
    engine = BatchedEngine(graph, policy, replicas=6, seed=31)
    engine.randomize_levels()
    result = engine.run(max_rounds=10_000)
    rounds = result.rounds
    assert len(set(int(r) for r in rounds)) > 1  # replicas finish apart
    for k in range(6):
        assert np.array_equal(engine.levels[k], result[k].final_levels)
    assert engine.legal_mask().all()


def test_batched_result_views(graph):
    policy = max_degree_policy(graph, c1=6)
    result = simulate_batched(
        graph, policy, replicas=4, seed=2, arbitrary_start=True
    )
    assert isinstance(result, BatchedResult)
    assert len(result) == 4
    assert result.stabilized.all()
    assert result.rounds.shape == (4,)
    assert list(result.rounds) == [r.rounds for r in result]


def test_budget_exhaustion_reports_unstabilized():
    graph = generators.complete(8)
    policy = max_degree_policy(graph, c1=8)
    result = simulate_batched(
        graph, policy, replicas=3, seed=1, arbitrary_start=True, max_rounds=1
    )
    assert all(r.rounds <= 1 for r in result)
    assert all(
        r.stabilized or len(r.mis) == 0 for r in result
    )


def test_constructor_validation(graph):
    policy = max_degree_policy(graph, c1=6)
    with pytest.raises(ValueError, match="replicas"):
        BatchedEngine(graph, policy)
    with pytest.raises(ValueError, match="algorithm"):
        BatchedEngine(graph, policy, replicas=2, algorithm="tripled")
    with pytest.raises(ValueError, match="replicas"):
        BatchedEngine(
            graph, policy, replicas=2,
            rngs=[np.random.default_rng(c) for c in _children(0, 3)],
        )


def test_legal_mask_and_mis_vertices(graph):
    policy = max_degree_policy(graph, c1=6)
    engine = BatchedEngine(graph, policy, replicas=3, seed=8)
    engine.randomize_levels()
    engine.run(max_rounds=10_000)
    assert engine.legal_mask().all()
    for k in range(3):
        mis = engine.mis_vertices(k)
        assert mis  # non-empty on a non-empty graph
        row = engine.mis_mask()[k]
        assert mis == frozenset(int(v) for v in np.nonzero(row)[0])
