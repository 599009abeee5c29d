"""A solo engine is a one-row block: identity on the same generator.

:class:`~repro.core.engines.base.EngineBase` is an ``(n,)`` facade over
a one-row :class:`~repro.core.engines.batched.BatchedEngine`.  Driven
side by side from generators with the same seed, the facade and a
one-row block must agree round for round — ``step()`` outputs, levels,
``until_stable`` outcomes, channel counters — across a fixed-``n`` and
an id-space-growing rebind, and must leave every random stream at the
same position.  No uniform is ever drawn ahead, so the main stream
after all of it is exactly the documented draw pattern replayed by
hand: the stress derivation draw (if any), one ``integers`` for the
arbitrary start, then ``n`` uniforms per executed round at the id-space
size of that round.
"""

import numpy as np
import pytest

from conftest import assert_same_streams, stream_states
from repro.core.engines import (
    BatchedEngine, ConstantStateEngine, SingleChannelEngine, TwoChannelEngine,
)
from repro.core.kernels import structure_for
from repro.core.runner import default_round_budget, policy_for_variant
from repro.devtools.seeding import derive_seed_sequence
from repro.graphs.generators import by_name

FACADES = {"single": SingleChannelEngine, "two_channel": TwoChannelEngine}
VARIANTS = {"single": "max_degree", "two_channel": "two_channel"}
STRESS = (
    pytest.param({}, id="ideal"),
    pytest.param({"channel": "noisy:0.02", "scheduler": "drift:0.1"}, id="noisy+drift"),
)
SEED = 7
STEPS = 50


def _pair(algorithm, stress, graph, policy):
    facade = FACADES[algorithm](
        graph, policy, seed=np.random.default_rng(SEED), **stress
    )
    block = BatchedEngine(
        graph, policy, rngs=[np.random.default_rng(SEED)],
        algorithm=algorithm, **stress,
    )
    return facade, block


def _step_both(facade, block, rounds):
    for _ in range(rounds):
        solo = facade.step()
        rows = block.step()
        if isinstance(rows, tuple):
            assert isinstance(solo, tuple) and len(solo) == 2
            for mask, row in zip(solo, rows):
                assert mask.shape == (facade.n,)
                np.testing.assert_array_equal(mask, row[0])
        else:
            assert solo.shape == (facade.n,)
            np.testing.assert_array_equal(solo, rows[0])
        np.testing.assert_array_equal(facade.levels, block.levels[0])


def _stabilize_both(facade, block, budget):
    solo = facade.until_stable(budget)
    row = block.run(max_rounds=budget)[0]
    # A noisy channel may keep a run from stabilizing: only agreement
    # is asserted.
    assert (solo.stabilized, solo.rounds, solo.mis) == (
        row.stabilized, row.rounds, row.mis,
    )
    assert solo.final_levels.dtype == np.int64
    np.testing.assert_array_equal(solo.final_levels, row.final_levels)
    np.testing.assert_array_equal(facade.levels, block.levels[0])
    assert facade.round_index == block.round_index
    return solo.rounds


@pytest.mark.parametrize("stress", STRESS)
@pytest.mark.parametrize("rebind", ("fixed_n", "growing"))
@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_facade_and_one_row_block_agree_on_one_generator(algorithm, rebind, stress):
    variant = VARIANTS[algorithm]
    graph = by_name("er", 40, seed=3)
    policy = policy_for_variant(graph, variant)
    facade, block = _pair(algorithm, stress, graph, policy)
    facade.randomize_levels()
    block.randomize_levels()
    np.testing.assert_array_equal(facade.levels, block.levels[0])

    budget = default_round_budget(graph, policy)
    _step_both(facade, block, STEPS)
    first = _stabilize_both(facade, block, budget)

    if rebind == "fixed_n":
        patched, new_policy = by_name("er", 40, seed=8), None
    else:
        patched = by_name("er", 48, seed=8)
        new_policy = policy_for_variant(patched, variant)
    for engine in (facade, block):
        engine.rebind(structure_for(patched), new_policy)
    np.testing.assert_array_equal(facade.levels, block.levels[0])
    _step_both(facade, block, STEPS)
    second = _stabilize_both(facade, block, budget)

    for channel, twin in zip(facade.channels, block.channels):
        assert (channel.drops_total, channel.spurious_total) == (
            twin.drops_total, twin.spurious_total,
        )

    # Stream-exact: the main generator sits exactly after the
    # documented draws, growth included.
    replay = np.random.default_rng(SEED)
    if stress:
        derive_seed_sequence(replay)
    ell_max = np.asarray(policy.ell_max)
    floor = -ell_max if algorithm == "single" else 0 * ell_max
    replay.integers(0, ell_max - floor + 1, size=graph.num_vertices)
    for _ in range(STEPS + first):
        replay.random(graph.num_vertices)
    for _ in range(STEPS + second):
        replay.random(patched.num_vertices)
    assert facade.rng.bit_generator.state == replay.bit_generator.state
    assert_same_streams(facade, block)


@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_facade_level_writes_reach_the_block(algorithm):
    # Fault injectors assign ``levels`` wholesale or write into it in
    # place; the next round must step from what they wrote.
    graph = by_name("er", 40, seed=3)
    policy = policy_for_variant(graph, VARIANTS[algorithm])
    facade, block = _pair(algorithm, {}, graph, policy)
    facade.randomize_levels()
    block.randomize_levels()
    _step_both(facade, block, 5)
    facade.levels = facade.ell_max.copy()
    block.set_levels(facade.levels.reshape(1, -1))
    _step_both(facade, block, 5)
    facade.levels[::2] = facade._floor_vector()[::2]
    block.set_levels(facade.levels.reshape(1, -1))
    _step_both(facade, block, 5)
    _stabilize_both(facade, block, default_round_budget(graph, policy))
    assert_same_streams(facade, block)


@pytest.mark.parametrize("stress", STRESS)
def test_two_state_block_rows_equal_solo_runs(stress):
    # The two-state tag on the one engine state: each row of a batched
    # block is the solo run on the same generator — rounds, MIS, final
    # 0/1 state, channel counters and where every stream continues.
    graph = by_name("er", 40, seed=3)
    replicas = 4
    block = BatchedEngine(
        graph, None, algorithm="constant_state",
        rngs=[np.random.default_rng(SEED + r) for r in range(replicas)], **stress,
    )
    rows = block.run(max_rounds=400, arbitrary_start=True)
    assert len(rows) == replicas and rows.stabilized.any()
    solos = []
    for r, row in enumerate(rows):
        solo = ConstantStateEngine(graph, seed=np.random.default_rng(SEED + r), **stress)
        solo.randomize_levels()
        outcome = solo.until_stable(400)
        assert (outcome.stabilized, outcome.rounds, outcome.mis) == (
            row.stabilized, row.rounds, row.mis,
        )
        np.testing.assert_array_equal(outcome.final_levels, row.final_levels)
        np.testing.assert_array_equal(solo.levels, block.levels[r])
        channel, twin = solo.channel, block.channels[r]
        assert (channel.drops_total, channel.spurious_total) == (
            twin.drops_total, twin.spurious_total,
        )
        solos.append(solo)
    # Read once: reading a stream state advances the main generators.
    for solo, (row, channel, scheduler) in zip(solos, stream_states(block)):
        ((row2, channel2, scheduler2),) = stream_states(solo)
        np.testing.assert_array_equal(row, row2)
        assert (channel, scheduler) == (channel2, scheduler2)
