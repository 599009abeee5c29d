"""The fused round kernel: byte-identity with the step loop, and fallbacks.

The contract (docs/performance.md, "Fused round kernel"): every run
without a ``BatchedCollector`` goes through the fused loop of the
:class:`~repro.core.kernels.RoundKernel`, and reproduces the per-step
loop *byte for byte*, including where every RNG stream continues
afterwards (stressed runs: ``tests/test_robustness_differential.py``).
The reference here is the same engine driven by hand through
``step()`` (the helpers in ``conftest.py``).  These tests pin the
identity on all three algorithms, solo and batched, the check cadence,
survival across a topology ``rebind``, fused runs after a hand-stepped
row subset, that the fused path hears through the engine's own hear
kernel, and that the narrow level planes follow the policy's ℓmax
without changing a level (against the hand-rolled oracles of
``tests/test_robustness_differential.py``).
"""

import numpy as np
import pytest

from conftest import (
    assert_same_streams,
    step_batched,
    step_until_stable,
    structure_source,
)
from repro.core.engines.batched import BatchedEngine
from repro.core.engines.constant_state import (
    ConstantStateEngine,
    simulate_constant_state,
)
from repro.core.engines.single import SingleChannelEngine
from repro.core.engines.two_channel import TwoChannelEngine
from repro.core.kernels import HearKernel, PerRoundDraws, structure_for
from repro.core.knowledge import explicit_policy, uniform_policy
from repro.core.runner import compute_mis, policy_for_variant
from repro.graphs.generators import by_name
from test_robustness_differential import _oracle_single, _oracle_two_channel

SOLO = [(SingleChannelEngine, "max_degree"), (TwoChannelEngine, "two_channel")]


def _graph(n=48, seed=0):
    return by_name("er", n, seed=seed)


def _assert_same(fused, step):
    assert fused.stabilized == step.stabilized
    assert fused.rounds == step.rounds
    assert fused.mis == step.mis
    np.testing.assert_array_equal(fused.final_levels, step.final_levels)


# ----------------------------------------------------------------------
# Solo engines (incl. RNG stream position)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls, variant", SOLO)
def test_solo_fused_run_is_byte_identical(engine_cls, variant):
    graph = _graph()
    policy = policy_for_variant(graph, variant)
    fused_engine = engine_cls(graph, policy, seed=13)
    step_engine = engine_cls(graph, policy, seed=13)
    fused_engine.randomize_levels()
    step_engine.randomize_levels()
    fused = fused_engine.until_stable(max_rounds=50_000)
    step = step_until_stable(step_engine, max_rounds=50_000)
    assert fused_engine._block._fused is not None  # the fused kernel ran
    _assert_same(fused, step)
    assert fused.final_levels.dtype == np.int64
    np.testing.assert_array_equal(fused_engine.levels, step_engine.levels)
    assert fused_engine.round_index == step_engine.round_index
    # Stream-position identity: the fused run consumed exactly the
    # draws the step loop did, so the generators now agree.
    np.testing.assert_array_equal(
        fused_engine.rng.random(4), step_engine.rng.random(4)
    )


@pytest.mark.parametrize("check_every", (1, 7))
def test_solo_fused_honors_check_cadence(check_every):
    graph = _graph(40, seed=3)
    policy = policy_for_variant(graph, "max_degree")
    fused_engine = SingleChannelEngine(graph, policy, seed=5)
    step_engine = SingleChannelEngine(graph, policy, seed=5)
    fused_engine.randomize_levels()
    step_engine.randomize_levels()
    fused = fused_engine.until_stable(max_rounds=50_000, check_every=check_every)
    step = step_until_stable(step_engine, 50_000, check_every=check_every)
    _assert_same(fused, step)


@pytest.mark.parametrize("engine_cls, variant", SOLO)
def test_solo_fused_budget_exhaustion_matches(engine_cls, variant):
    graph = _graph()
    policy = policy_for_variant(graph, variant)
    fused_engine = engine_cls(graph, policy, seed=2)
    step_engine = engine_cls(graph, policy, seed=2)
    fused_engine.randomize_levels()
    step_engine.randomize_levels()
    fused = fused_engine.until_stable(max_rounds=3)
    step = step_until_stable(step_engine, max_rounds=3)
    assert not fused.stabilized
    _assert_same(fused, step)


def test_solo_fused_matches_via_compute_mis():
    # The default vectorized backend (fused) against the reference
    # engine, the semantic oracle, at the same integer seed.
    graph = _graph()
    for variant in ("max_degree", "own_degree", "two_channel"):
        fused = compute_mis(graph, variant=variant, seed=23, arbitrary_start=True)
        oracle = compute_mis(
            graph, variant=variant, seed=23, arbitrary_start=True,
            engine="reference",
        )
        assert fused.rounds == oracle.rounds
        assert fused.mis == oracle.mis


# ----------------------------------------------------------------------
# Constant-state baseline
# ----------------------------------------------------------------------
def test_constant_state_fused_run_is_byte_identical():
    graph = _graph()
    fused = simulate_constant_state(graph, seed=8, arbitrary_start=True)
    engine = ConstantStateEngine(graph, seed=8)
    engine.randomize_levels()
    step = step_until_stable(engine, max_rounds=1_000_000)
    _assert_same(fused, step)


# ----------------------------------------------------------------------
# Batched engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("check_every", (1, 5))
@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_batched_fused_run_is_byte_identical(algorithm, check_every):
    graph = _graph(40, seed=2)
    variant = "two_channel" if algorithm == "two_channel" else "max_degree"
    policy = policy_for_variant(graph, variant)
    engines = [
        BatchedEngine(graph, policy, replicas=5, seed=17, algorithm=algorithm)
        for _ in range(2)
    ]
    for engine in engines:
        engine.randomize_levels()
    fused = engines[0].run(max_rounds=50_000, check_every=check_every)
    step = step_batched(engines[1], 50_000, check_every=check_every)
    assert engines[0]._fused is not None
    assert len(fused) == len(step)
    for fused_r, step_r in zip(fused, step):
        _assert_same(fused_r, step_r)


@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_batched_fused_run_leaves_streams_where_the_step_loop_does(algorithm):
    # No uniform is drawn ahead, so a second run (here after a fixed-n
    # rebind) continues every stream exactly where the step loop would
    # have left it.
    graph = _graph(60, seed=1)
    patched = _graph(60, seed=8)
    variant = "two_channel" if algorithm == "two_channel" else "max_degree"
    policy = policy_for_variant(graph, variant)
    engines = [
        BatchedEngine(graph, policy, replicas=4, seed=3, algorithm=algorithm)
        for _ in range(2)
    ]
    for engine in engines:
        engine.randomize_levels()
    engines[0].run(max_rounds=50_000)
    step_batched(engines[1], max_rounds=50_000)
    start = np.ones((4, graph.num_vertices), dtype=np.int64)
    for engine in engines:
        engine.rebind(structure_for(patched))
        engine.set_levels(start)
    again = engines[0].run(max_rounds=50_000)
    step = step_batched(engines[1], max_rounds=50_000)
    for again_r, step_r in zip(again, step):
        _assert_same(again_r, step_r)


def test_batched_fused_run_after_partial_steps_is_byte_identical(fused_runs):
    # Hand-stepping a row subset leaves the replicas at different
    # stream positions; the fused loop draws each row from its own
    # generator, so it stays byte-identical to the step loop.
    graph = _graph(36, seed=4)
    policy = policy_for_variant(graph, "max_degree")
    engines = []
    for _ in range(2):
        engine = BatchedEngine(graph, policy, replicas=4, seed=9)
        engine.randomize_levels()
        # Step replicas 1..3 a few rounds while replica 0 sits out.
        active = np.array([False, True, True, True])
        for _ in range(3):
            engine.step(active)
        engines.append(engine)
    default = engines[0]
    for budget in (0, 2, 50_000):
        result = default.run(max_rounds=budget)
        step = step_batched(engines[1], max_rounds=budget)
        for default_r, step_r in zip(result, step):
            _assert_same(default_r, step_r)
        np.testing.assert_array_equal(default.levels, engines[1].levels)
    assert len(fused_runs) == 3  # the fused loop ran every time
    assert_same_streams(default, engines[1])


# ----------------------------------------------------------------------
# Topology rebind: the kernel is re-targeted, not rebuilt
# ----------------------------------------------------------------------
def _rebind_twins(patched, new_policy=None):
    graph = _graph(44, seed=6)
    policy = policy_for_variant(graph, "max_degree")
    fused_engine = SingleChannelEngine(graph, policy, seed=31)
    step_engine = SingleChannelEngine(graph, policy, seed=31)
    for engine in (fused_engine, step_engine):
        engine.randomize_levels()
    fused_engine.until_stable(max_rounds=50_000)
    step_until_stable(step_engine, max_rounds=50_000)
    kernel = fused_engine._block._fused
    fused_engine.rebind(structure_for(patched), new_policy)
    step_engine.rebind(structure_for(patched), new_policy)
    assert fused_engine._block._fused is kernel
    assert kernel.n == patched.num_vertices
    fused = fused_engine.until_stable(max_rounds=50_000)
    step = step_until_stable(step_engine, max_rounds=50_000)
    _assert_same(fused, step)


def test_solo_fused_survives_rebind():
    _rebind_twins(_graph(44, seed=7))


def test_solo_fused_survives_rebind_that_grows_the_id_space():
    patched = _graph(52, seed=7)
    _rebind_twins(patched, policy_for_variant(patched, "max_degree"))


# ----------------------------------------------------------------------
# The fused path hears through the engine's own hear kernel
# ----------------------------------------------------------------------
# The ids are the hear kernels this axis selected while there was more
# than one; each now names a structure source (``conftest.py``).
@pytest.mark.parametrize(
    "source", ("sparse", "dense"), ids=("sparse_int32", "dense_bool"),
)
def test_fused_run_uses_the_engines_hear_kernel(monkeypatch, source):
    graph = _graph(48, seed=1)
    policy = policy_for_variant(graph, "max_degree")
    with structure_source(graph, source) as structure:
        solo = SingleChannelEngine(graph, policy, seed=3)
        batched = BatchedEngine(graph, policy, replicas=4, seed=3)
        for engine in (solo, batched):
            assert engine.kernel.structure is structure
            engine.randomize_levels()
        calls = []
        for method in ("hear", "hear_rows"):
            original = getattr(HearKernel, method)

            def counted(self, *args, _orig=original, **kwargs):
                calls.append(self)
                return _orig(self, *args, **kwargs)

            monkeypatch.setattr(HearKernel, method, counted)
        solo.until_stable(max_rounds=50_000)
        batched.run(max_rounds=50_000)
    assert solo._block._fused._hear is solo.kernel
    assert batched._fused._hear is batched.kernel
    assert {id(k) for k in calls} == {id(solo.kernel), id(batched.kernel)}


# ----------------------------------------------------------------------
# Narrow level planes: the width follows ℓmax, the levels do not
# ----------------------------------------------------------------------
ORACLES = {
    "single": (SingleChannelEngine, _oracle_single),
    "two_channel": (TwoChannelEngine, _oracle_two_channel),
}
WIDTH_ROUNDS = 50


def _stream_after(seed, policy, algorithm, rounds, n):
    """The next uniform of a stream after a random start and ``rounds``."""
    rng = np.random.default_rng(seed)
    top = np.asarray(policy.ell_max, dtype=np.int64)
    rng.integers(0, 2 * top + 1 if algorithm == "single" else top + 1, size=n)
    for _ in range(rounds):
        rng.random(n)
    return rng.random()


def _assert_planes(kernel, width):
    assert kernel.plane_dtype == width
    for plane in (kernel._work, kernel._plane, kernel._up, kernel._sel, kernel._top):
        assert plane.dtype == width


def _assert_steps_match_oracle(engine, policy, algorithm, seed):
    graph = engine.graph
    engine.randomize_levels()
    trajectory = _oracle_single if algorithm == "single" else _oracle_two_channel
    oracle = trajectory(graph, policy, seed, WIDTH_ROUNDS)
    np.testing.assert_array_equal(engine.levels, next(oracle))
    for expected in oracle:
        engine.step()
        np.testing.assert_array_equal(engine.levels, expected)
    assert engine.rng.random() == _stream_after(
        seed, policy, algorithm, WIDTH_ROUNDS, graph.num_vertices
    )


@pytest.mark.parametrize("per_vertex", (False, True), ids=("uniform", "one_vertex"))
@pytest.mark.parametrize("top, width", ((63, np.int8), (64, np.int32)), ids=("63", "64"))
@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_plane_width_follows_ell_max_and_levels_match_the_oracle(
    algorithm, top, width, per_vertex
):
    graph = _graph()
    n = graph.num_vertices
    policy = (
        explicit_policy([top if v == 5 else 20 for v in range(n)])
        if per_vertex else uniform_policy(graph, top)
    )
    engine_cls, oracle_fn = ORACLES[algorithm]
    # ``step()``: the engine's int32 state through the narrow scratch.
    stepped = engine_cls(graph, policy, seed=5)
    _assert_planes(stepped._block._kernel(), width)
    _assert_steps_match_oracle(stepped, policy, algorithm, 5)
    # ``run_block``: a one-row block on the same stream, int32 outcome.
    trajectory = list(oracle_fn(graph, policy, 5, WIDTH_ROUNDS))
    rng = np.random.default_rng(5)
    fused = BatchedEngine(graph, policy, rngs=[rng], algorithm=algorithm)
    out = fused.run(max_rounds=WIDTH_ROUNDS, arbitrary_start=True).results[0]
    _assert_planes(fused._fused, width)
    assert out.final_levels.dtype == np.int32
    assert fused.levels.dtype == np.int32
    np.testing.assert_array_equal(out.final_levels, trajectory[out.rounds])
    np.testing.assert_array_equal(fused.levels[0], trajectory[out.rounds])
    assert rng.random() == _stream_after(5, policy, algorithm, out.rounds, n)


@pytest.mark.parametrize("wide", (64, 200))
@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_same_n_rebind_across_the_narrow_bound_repicks_the_width(algorithm, wide):
    graph = _graph()
    engine_cls, _ = ORACLES[algorithm]
    engine = engine_cls(graph, uniform_policy(graph, 63), seed=9)
    kernel = engine._block._kernel()
    _assert_planes(kernel, np.int8)
    policy = uniform_policy(graph, wide)
    engine.rebind(structure_for(graph), policy)
    assert engine._block._fused is kernel
    _assert_planes(kernel, np.int32)
    _assert_steps_match_oracle(engine, policy, algorithm, 9)
    engine.rebind(structure_for(graph), uniform_policy(graph, 63))
    _assert_planes(kernel, np.int8)


@pytest.mark.parametrize("top", (63, 64))
@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_run_block_rejects_a_level_outside_its_band(algorithm, top):
    graph = _graph()
    n = graph.num_vertices
    policy = explicit_policy([top] + [10] * (n - 1))
    engine = BatchedEngine(graph, policy, replicas=2, seed=0, algorithm=algorithm)
    kernel = engine._kernel()
    floor = -10 if algorithm == "single" else 0
    before = [rng.bit_generator.state for rng in engine.rngs]
    # Inside the policy's widest band but outside vertex 1's own; and
    # a level an int8 plane would wrap.
    for vertex, level in ((1, 11), (1, floor - 1), (0, 128), (0, top + 1)):
        block = np.ones((2, n), dtype=np.int32)
        block[1, vertex] = level
        with pytest.raises(ValueError, match="outside"):
            kernel.run_block(block, PerRoundDraws(engine.rngs, engine._draws), 10)
        assert block[1, vertex] == level
    assert [rng.bit_generator.state for rng in engine.rngs] == before
