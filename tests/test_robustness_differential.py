"""Differential byte-identity tests for the stress-model wiring.

The tentpole contract (docs/robustness.md): with the default perfect
channel + synchronous scheduler, every engine executes the historical
step **operation for operation** — the stress plumbing must be
invisible, byte for byte, on the default path.  These tests pin that
three ways:

* a hand-rolled oracle of the *pre-change* step loop (plain numpy on
  the raw adjacency, no engine machinery) is compared per round against
  today's engines, across seeds and the ways the engine's CSR structure
  can reach the structure cache;
* the defaults are compared against explicitly-passed
  ``perfect`` / ``synchronous`` specs, across engines and executors;
* under *noise*, the same oracles — given the bound channel and
  scheduler models and the documented seed tree, still no engine code —
  are compared per round against every engine's ``step()`` and against
  batched replica 0; attaching a collector must not perturb the
  trajectory.
"""

import numpy as np
import pytest

from conftest import (
    STRUCTURE_SOURCES,
    assert_same_streams,
    step_batched,
    step_until_stable,
    structure_source,
)
from repro.analysis.measurements import StabilizationRounds
from repro.analysis.sweep import run_sweep
from repro.beeping.channels import resolve_channel
from repro.beeping.schedulers import resolve_scheduler
from repro.core.engines import (
    BatchedEngine,
    ConstantStateEngine,
    SingleChannelEngine,
    TwoChannelEngine,
)
from repro.core.engines.constant_state import simulate_constant_state
from repro.core.engines.base import MAX_EXPONENT
from repro.core.runner import (
    compute_mis,
    default_round_budget,
    policy_for_variant,
)
from repro.devtools.seeding import spawn_children
from repro.graphs.generators import by_name
from repro.graphs.io import to_sparse_adjacency
from repro.obs import RunCollector, StructureView

ORACLE_ROUNDS = 60


def _graph(n=48, seed=0):
    return by_name("er", n, seed=seed)


def _hear(adjacency, active):
    return (adjacency @ active.astype(np.int64)) > 0


# ----------------------------------------------------------------------
# Hand-rolled pre-change oracles (the historical step loops, verbatim)
# ----------------------------------------------------------------------
class _Stress:
    """The stress models of one oracle run, from the documented layout.

    Seed tree (docs/robustness.md): when either model needs randomness,
    one 63-bit ``integers`` draw from the main stream seeds a root whose
    two spawned children feed the channel (0) and the scheduler (1).
    The defaults draw nothing and perturb nothing.
    """

    def __init__(self, rng, n, channel, scheduler):
        channel_model = resolve_channel(channel)
        scheduler_model = resolve_scheduler(scheduler)
        self.channel = channel_model.bind()
        self.scheduler = scheduler_model.bind(n)
        self.channel_rng = self.scheduler_rng = None
        if channel_model.needs_rng or scheduler_model.needs_rng:
            root = np.random.SeedSequence(int(rng.integers(2**63)))
            chan_seq, sched_seq = root.spawn(2)
            if channel_model.needs_rng:
                self.channel_rng = np.random.default_rng(chan_seq)
            if scheduler_model.needs_rng:
                self.scheduler_rng = np.random.default_rng(sched_seq)
        self.carriers = [np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)]
        self.active = None

    def gate(self, round_index, *beeps):
        """Start the round; delayed vertices re-emit their last beep."""
        self.channel.start_round()
        self.active = self.scheduler.active_mask(round_index, self.scheduler_rng)
        if self.active is None:
            return beeps
        emitted = []
        for key, fresh in enumerate(beeps):
            sent = np.where(self.active, fresh, self.carriers[key])
            self.carriers[key] = sent.copy()
            emitted.append(sent)
        return tuple(emitted)

    def hear(self, adjacency, beeps):
        return self.channel.apply(_hear(adjacency, beeps), self.channel_rng)

    def hold(self, new, old):
        """Delayed vertices skip their update."""
        return new if self.active is None else np.where(self.active, new, old)


def _oracle_single(graph, policy, seed, rounds, channel=None, scheduler=None, out=None):
    adjacency = to_sparse_adjacency(graph)
    ell_max = np.asarray(policy.ell_max, dtype=np.int64)
    rng = np.random.default_rng(seed)
    stress = _Stress(rng, graph.num_vertices, channel, scheduler)
    if out is not None:
        out.append(stress)
    floor = -ell_max
    span = ell_max - floor + 1
    levels = rng.integers(0, span, size=graph.num_vertices).astype(np.int64) + floor
    yield levels
    for t in range(rounds):
        draws = rng.random(graph.num_vertices)
        exponent = np.clip(levels, 0, MAX_EXPONENT).astype(np.float64)
        p = np.power(2.0, -exponent)
        p[levels <= 0] = 1.0
        p[levels >= ell_max] = 0.0
        (beeps,) = stress.gate(t, draws < p)
        heard = stress.hear(adjacency, beeps)
        up = np.minimum(levels + 1, ell_max)
        down = np.maximum(levels - 1, 1)
        new = np.where(heard, up, np.where(beeps, -ell_max, down))
        levels = stress.hold(new, levels)
        yield levels


def _oracle_two_channel(graph, policy, seed, rounds, channel=None, scheduler=None, out=None):
    adjacency = to_sparse_adjacency(graph)
    ell_max = np.asarray(policy.ell_max, dtype=np.int64)
    rng = np.random.default_rng(seed)
    stress = _Stress(rng, graph.num_vertices, channel, scheduler)
    if out is not None:
        out.append(stress)
    span = ell_max + 1
    levels = rng.integers(0, span, size=graph.num_vertices).astype(np.int64)
    yield levels
    for t in range(rounds):
        draws = rng.random(graph.num_vertices)
        exponent = np.clip(levels, 0, MAX_EXPONENT).astype(np.float64)
        p1 = np.power(2.0, -exponent)
        active = (levels > 0) & (levels < ell_max)
        beep1, beep2 = stress.gate(t, active & (draws < p1), levels == 0)
        heard1 = stress.hear(adjacency, beep1)
        heard2 = stress.hear(adjacency, beep2)
        up = np.minimum(levels + 1, ell_max)
        down = np.maximum(levels - 1, 1)
        new = np.where(
            heard2,
            ell_max,
            np.where(heard1, up, np.where(beep1, 0, np.where(~beep2, down, levels))),
        )
        levels = stress.hold(new, levels)
        yield levels


def _oracle_constant_state(graph, seed, rounds, channel=None, scheduler=None, out=None):
    adjacency = to_sparse_adjacency(graph)
    rng = np.random.default_rng(seed)
    stress = _Stress(rng, graph.num_vertices, channel, scheduler)
    if out is not None:
        out.append(stress)
    in_mis = rng.integers(0, 2, size=graph.num_vertices).astype(bool)
    yield in_mis
    for t in range(rounds):
        draws = rng.random(graph.num_vertices)
        (beeps,) = stress.gate(t, in_mis.copy())
        heard = stress.hear(adjacency, beeps)
        coin = draws < 0.5
        retreat = in_mis & heard & coin
        rejoin = ~in_mis & ~heard & coin
        in_mis = stress.hold((in_mis & ~retreat) | rejoin, in_mis)
        yield in_mis


@pytest.mark.parametrize("source", STRUCTURE_SOURCES)
@pytest.mark.parametrize("seed", (0, 7))
def test_single_engine_matches_pre_change_oracle(source, seed):
    graph = _graph()
    policy = policy_for_variant(graph, "max_degree")
    with structure_source(graph, source) as structure:
        engine = SingleChannelEngine(graph, policy, seed=seed)
        assert engine.structure is structure
        engine.randomize_levels()
        oracle = _oracle_single(graph, policy, seed, ORACLE_ROUNDS)
        np.testing.assert_array_equal(engine.levels, next(oracle))
        for expected in oracle:
            engine.step()
            np.testing.assert_array_equal(engine.levels, expected)


@pytest.mark.parametrize("source", STRUCTURE_SOURCES)
@pytest.mark.parametrize("seed", (0, 7))
def test_two_channel_engine_matches_pre_change_oracle(source, seed):
    graph = _graph()
    policy = policy_for_variant(graph, "two_channel")
    with structure_source(graph, source) as structure:
        engine = TwoChannelEngine(graph, policy, seed=seed)
        assert engine.structure is structure
        engine.randomize_levels()
        oracle = _oracle_two_channel(graph, policy, seed, ORACLE_ROUNDS)
        np.testing.assert_array_equal(engine.levels, next(oracle))
        for expected in oracle:
            engine.step()
            np.testing.assert_array_equal(engine.levels, expected)


@pytest.mark.parametrize("source", STRUCTURE_SOURCES)
@pytest.mark.parametrize("seed", (0, 7))
def test_constant_state_engine_matches_pre_change_oracle(source, seed):
    graph = _graph()
    with structure_source(graph, source) as structure:
        engine = ConstantStateEngine(graph, seed=seed)
        assert engine.structure is structure
        engine.randomize_levels()
        oracle = _oracle_constant_state(graph, seed, ORACLE_ROUNDS)
        np.testing.assert_array_equal(engine.levels, next(oracle))
        for expected in oracle:
            engine.step()
            np.testing.assert_array_equal(engine.levels, expected)


# ----------------------------------------------------------------------
# The same oracles under stress: solo step() and batched replica 0
# ----------------------------------------------------------------------
_ORACLE_STRESS = {"channel": "unreliable:0.05,0.01", "scheduler": "drift:0.1,3"}


def _assert_same_counters(oracle_stress, channel):
    assert channel.drops_total == oracle_stress.channel.drops_total
    assert channel.spurious_total == oracle_stress.channel.spurious_total


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("variant", ("max_degree", "two_channel"))
def test_stressed_level_engines_match_the_oracle(variant, seed):
    graph = _graph()
    policy = policy_for_variant(graph, variant)
    if variant == "two_channel":
        engine_cls, algorithm, oracle_fn = TwoChannelEngine, "two_channel", _oracle_two_channel
    else:
        engine_cls, algorithm, oracle_fn = SingleChannelEngine, "single", _oracle_single
    solo = engine_cls(graph, policy, seed=seed, **_ORACLE_STRESS)
    solo.randomize_levels()
    replica0 = np.random.SeedSequence(seed).spawn(2)[0]
    batched = BatchedEngine(
        graph, policy, replicas=2, seed=seed, algorithm=algorithm, **_ORACLE_STRESS
    )
    batched.randomize_levels()
    for engine_seed, advance, levels_of, channel in (
        (seed, solo.step, lambda: solo.levels, solo.channel),
        (replica0, batched.step, lambda: batched.levels[0], batched.channels[0]),
    ):
        stresses = []
        oracle = oracle_fn(
            graph, policy, engine_seed, ORACLE_ROUNDS, out=stresses, **_ORACLE_STRESS
        )
        np.testing.assert_array_equal(levels_of(), next(oracle))
        for expected in oracle:
            advance()
            np.testing.assert_array_equal(levels_of(), expected)
        _assert_same_counters(stresses[0], channel)
        assert channel.drops_total > 0 and channel.spurious_total > 0


@pytest.mark.parametrize("seed", (0, 7))
def test_stressed_constant_state_engine_matches_the_oracle(seed):
    graph = _graph()
    engine = ConstantStateEngine(graph, seed=seed, **_ORACLE_STRESS)
    engine.randomize_levels()
    stresses = []
    oracle = _oracle_constant_state(
        graph, seed, ORACLE_ROUNDS, out=stresses, **_ORACLE_STRESS
    )
    np.testing.assert_array_equal(engine.levels, next(oracle))
    for expected in oracle:
        engine.step()
        np.testing.assert_array_equal(engine.levels, expected)
    _assert_same_counters(stresses[0], engine.channel)


# ----------------------------------------------------------------------
# Defaults ≡ explicit perfect + synchronous
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ("max_degree", "own_degree", "two_channel"))
def test_explicit_perfect_synchronous_is_byte_identical(variant):
    graph = _graph()
    default = compute_mis(graph, variant=variant, seed=11, arbitrary_start=True)
    explicit = compute_mis(
        graph, variant=variant, seed=11, arbitrary_start=True,
        channel="perfect", scheduler="synchronous",
    )
    assert default.rounds == explicit.rounds
    assert default.mis == explicit.mis


def test_explicit_perfect_synchronous_batched_matches_default():
    graph = _graph()
    policy = policy_for_variant(graph, "max_degree")
    runs = {}
    for key, extra in (
        ("default", {}),
        ("explicit", {"channel": "perfect", "scheduler": "synchronous"}),
    ):
        engine = BatchedEngine(graph, policy, replicas=3, seed=5, **extra)
        engine.randomize_levels()
        runs[key] = engine.run(max_rounds=50_000)
    assert [r.rounds for r in runs["default"]] == [r.rounds for r in runs["explicit"]]
    for a, b in zip(runs["default"], runs["explicit"]):
        np.testing.assert_array_equal(a.final_levels, b.final_levels)


def test_executor_matrix_identical_samples_on_perfect_defaults():
    configs = [{"family": "er", "n": 32}, {"family": "er", "n": 48}]
    kwargs = dict(repetitions=4, master_seed=3)
    sweeps = {
        "serial-default": run_sweep(
            configs, StabilizationRounds(), executor="serial", **kwargs
        ),
        "serial-explicit": run_sweep(
            configs,
            StabilizationRounds(channel="perfect", scheduler="synchronous"),
            executor="serial", **kwargs,
        ),
        "batched-explicit": run_sweep(
            configs,
            StabilizationRounds(channel="perfect", scheduler="synchronous"),
            executor="batched", **kwargs,
        ),
        "process-explicit": run_sweep(
            configs,
            StabilizationRounds(channel="perfect", scheduler="synchronous"),
            executor="process", jobs=2, **kwargs,
        ),
    }
    reference = sweeps.pop("serial-default")
    for name, sweep in sweeps.items():
        for ref_cell, cell in zip(reference.cells, sweep.cells):
            assert ref_cell.samples == cell.samples, name


def test_executor_matrix_identical_samples_under_stress():
    configs = [{"family": "er", "n": 40}]
    measure = StabilizationRounds(
        channel="unreliable:0.05,0.01", scheduler="drift:0.1"
    )
    kwargs = dict(repetitions=4, master_seed=9)
    serial = run_sweep(configs, measure, executor="serial", **kwargs)
    batched = run_sweep(configs, measure, executor="batched", **kwargs)
    process = run_sweep(configs, measure, executor="process", jobs=2, **kwargs)
    assert serial.cells[0].samples == batched.cells[0].samples
    assert serial.cells[0].samples == process.cells[0].samples


# ----------------------------------------------------------------------
# Solo vs batched bit-identity *under noise*
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_solo_and_batched_replicas_agree_under_stress(algorithm):
    graph = _graph(40)
    variant = "two_channel" if algorithm == "two_channel" else "max_degree"
    policy = policy_for_variant(graph, variant)
    stress = dict(channel="unreliable:0.05,0.01", scheduler="drift:0.1")
    replicas = 3

    batched = BatchedEngine(
        graph, policy, replicas=replicas, seed=21, algorithm=algorithm, **stress
    )
    batched.randomize_levels()
    batch_results = batched.run(max_rounds=50_000)

    engine_cls = TwoChannelEngine if algorithm == "two_channel" else SingleChannelEngine
    for child, batch_result in zip(spawn_children(21, replicas), batch_results):
        solo = engine_cls(
            graph, policy, seed=np.random.default_rng(child), **stress
        )
        solo.randomize_levels()
        solo_result = solo.until_stable(max_rounds=50_000)
        assert solo_result.rounds == batch_result.rounds
        np.testing.assert_array_equal(
            solo_result.final_levels, batch_result.final_levels
        )


# ----------------------------------------------------------------------
# Collector zero-perturbation and channel counters under noise
# ----------------------------------------------------------------------
def test_collector_does_not_perturb_stressed_runs():
    graph = _graph(40)
    policy = policy_for_variant(graph, "max_degree")
    stress = dict(channel="lossy:0.05", scheduler="drift:0.1")

    bare = SingleChannelEngine(graph, policy, seed=4, **stress)
    bare.randomize_levels()
    bare_result = bare.until_stable(max_rounds=50_000)

    observed = SingleChannelEngine(graph, policy, seed=4, **stress)
    observed.randomize_levels()
    collector = RunCollector(StructureView.from_engine(observed))
    observed_result = observed.until_stable(max_rounds=50_000, collector=collector)

    assert bare_result.rounds == observed_result.rounds
    np.testing.assert_array_equal(
        bare_result.final_levels, observed_result.final_levels
    )
    # The records carry the per-round channel counters, and they sum to
    # the channel's lifetime totals (every round was emitted).
    assert all("dropped" in r and "spurious" in r for r in collector.records)
    assert sum(r["dropped"] for r in collector.records) == observed.channel.drops_total
    assert observed.channel.drops_total > 0  # the stress actually bit
    assert sum(r["spurious"] for r in collector.records) == 0  # lossy only drops


# ----------------------------------------------------------------------
# Stressed runs take the fused kernel (byte identity with step())
# ----------------------------------------------------------------------
# Every run without a collector or per-round series goes through the
# fused round kernel, stress models included (docs/performance.md,
# "When the step loop runs").  It must match the same engine driven by
# hand through ``step()`` byte for byte: outcome, levels, every random
# stream's position (main, channel, scheduler) and the channel counters.
# (The test names predate the change, when these runs fell back to the
# step loop.)
_STRESS = (
    {"channel": "lossy:0.05"},
    {"scheduler": "drift:0.1"},
    {"channel": "unreliable:0.05,0.01", "scheduler": "drift:0.1,3"},
)


def _assert_same_channels(channels, twin_channels):
    assert len(channels) == len(twin_channels)
    for channel, twin in zip(channels, twin_channels):
        assert channel.drops_total == twin.drops_total
        assert channel.spurious_total == twin.spurious_total
        assert channel.last_drops == twin.last_drops
        assert channel.last_spurious == twin.last_spurious


@pytest.mark.parametrize("stress", _STRESS)
@pytest.mark.parametrize("variant", ("max_degree", "two_channel"))
def test_step_loop_fallback_under_stress(variant, stress, fused_runs):
    graph = _graph(40)
    policy = policy_for_variant(graph, variant)
    engine_cls = TwoChannelEngine if variant == "two_channel" else SingleChannelEngine
    engine, twin = (engine_cls(graph, policy, seed=19, **stress) for _ in range(2))
    engine.randomize_levels()
    twin.randomize_levels()
    budget = default_round_budget(graph, policy)
    fused = engine.until_stable(budget)
    kernel = engine._block._fused
    assert kernel is not None and fused_runs == [kernel]
    step = step_until_stable(twin, budget)
    assert fused_runs == [kernel]  # the twin only stepped
    assert (fused.stabilized, fused.rounds, fused.mis) == (
        step.stabilized, step.rounds, step.mis,
    )
    np.testing.assert_array_equal(fused.final_levels, step.final_levels)
    np.testing.assert_array_equal(engine.levels, twin.levels)
    assert engine.round_index == twin.round_index
    _assert_same_channels([engine.channel], [twin.channel])
    assert_same_streams(engine, twin)
    default = compute_mis(
        graph, variant=variant, seed=19, arbitrary_start=True, **stress
    )
    assert (default.rounds, default.mis) == (fused.rounds, fused.mis)


@pytest.mark.parametrize("stress", _STRESS)
def test_step_loop_fallback_constant_state(stress, fused_runs):
    graph = _graph(40)
    engine, twin = (ConstantStateEngine(graph, seed=19, **stress) for _ in range(2))
    engine.randomize_levels()
    twin.randomize_levels()
    fused = engine.until_stable(max_rounds=1_000_000)
    assert engine._block._fused is not None
    assert fused_runs == [engine._block._fused]
    step = step_until_stable(twin, max_rounds=1_000_000)
    assert fused_runs == [engine._block._fused]
    assert (fused.stabilized, fused.rounds, fused.mis) == (
        step.stabilized, step.rounds, step.mis,
    )
    np.testing.assert_array_equal(fused.final_levels, step.final_levels)
    np.testing.assert_array_equal(engine.levels, twin.levels)
    assert engine.round_index == twin.round_index
    _assert_same_channels([engine.channel], [twin.channel])
    assert_same_streams(engine, twin)
    default = simulate_constant_state(
        graph, seed=19, arbitrary_start=True, **stress
    )
    assert (default.rounds, default.mis) == (fused.rounds, fused.mis)
    np.testing.assert_array_equal(default.final_levels, fused.final_levels)


@pytest.mark.parametrize("stress", _STRESS)
def test_step_loop_fallback_batched(stress, fused_runs):
    graph = _graph(40)
    policy = policy_for_variant(graph, "max_degree")
    engines = []
    for _ in range(2):
        engine = BatchedEngine(graph, policy, replicas=3, seed=19, **stress)
        engine.randomize_levels()
        engines.append(engine)
    default = engines[0].run(max_rounds=50_000)
    assert engines[0]._fused is not None and fused_runs == [engines[0]._fused]
    step = step_batched(engines[1], max_rounds=50_000)
    assert fused_runs == [engines[0]._fused]
    assert [r.rounds for r in default] == [r.rounds for r in step]
    for default_r, step_r in zip(default, step):
        assert default_r.mis == step_r.mis
        np.testing.assert_array_equal(default_r.final_levels, step_r.final_levels)
    np.testing.assert_array_equal(engines[0].levels, engines[1].levels)
    assert engines[0].round_index == engines[1].round_index
    _assert_same_channels(engines[0].channels, engines[1].channels)
    assert_same_streams(engines[0], engines[1])


def test_fused_runs_resume_the_scheduler_clock(fused_runs):
    # A wake-up adversary reads the round index, so a second fused run
    # must continue the clock at the engine's round_index, as step() does.
    graph = _graph(40)
    policy = policy_for_variant(graph, "max_degree")
    stress = {"scheduler": "adversarial:staggered,2"}
    solo, solo_twin = (
        SingleChannelEngine(graph, policy, seed=23, **stress) for _ in range(2)
    )
    batched, batched_twin = (
        BatchedEngine(graph, policy, replicas=3, seed=23, **stress)
        for _ in range(2)
    )
    for engine in (solo, solo_twin, batched, batched_twin):
        engine.randomize_levels()
    for budget in (7, 50_000):
        fused = solo.until_stable(budget)
        step = step_until_stable(solo_twin, budget)
        assert (fused.rounds, fused.mis) == (step.rounds, step.mis)
        np.testing.assert_array_equal(solo.levels, solo_twin.levels)
        fused_rows = batched.run(max_rounds=budget)
        step_rows = step_batched(batched_twin, budget)
        assert [r.rounds for r in fused_rows] == [r.rounds for r in step_rows]
        np.testing.assert_array_equal(batched.levels, batched_twin.levels)
    assert solo.round_index == solo_twin.round_index > 7
    assert batched.round_index == batched_twin.round_index > 7
    assert len(fused_runs) == 4


def test_step_loop_fallback_with_collector(fused_runs):
    # Metrics attached (a collector): the run is observed inside the
    # fused kernel, and every per-round record is emitted, unperturbed.
    graph = _graph(40)
    policy = policy_for_variant(graph, "max_degree")
    engine = SingleChannelEngine(graph, policy, seed=6)
    engine.randomize_levels()
    collector = RunCollector(StructureView.from_engine(engine))
    default = engine.until_stable(max_rounds=50_000, collector=collector)
    assert len(fused_runs) == 1  # the fused loop ran
    twin = SingleChannelEngine(graph, policy, seed=6)
    twin.randomize_levels()
    step = step_until_stable(twin, max_rounds=50_000)
    assert default.rounds == step.rounds
    np.testing.assert_array_equal(default.final_levels, step.final_levels)
    assert len(collector.records) == step.rounds
    assert len(collector.records) == default.rounds
    assert_same_streams(engine, twin)


def test_step_loop_fallback_with_record_series(fused_runs):
    # The per-round S_t and beep series are a collector's series,
    # recorded inside the fused kernel.
    graph = _graph(40)
    policy = policy_for_variant(graph, "max_degree")
    engine = SingleChannelEngine(graph, policy, seed=6)
    engine.randomize_levels()
    collector = RunCollector(StructureView.from_engine(engine))
    default = engine.until_stable(max_rounds=50_000, collector=collector)
    assert len(fused_runs) == 1  # the fused loop ran
    twin = SingleChannelEngine(graph, policy, seed=6)
    twin.randomize_levels()
    beep_series, stable_series = [], []
    while not twin.is_legal():
        stable_series.append(int(twin.stable_mask().sum()))
        beep_series.append([int(twin.step().sum())])
    assert default.rounds == len(beep_series)
    assert collector.series("beeps") == beep_series
    assert collector.series("s_size") == stable_series


def test_perfect_channel_records_keep_historical_shape():
    graph = _graph(32)
    policy = policy_for_variant(graph, "max_degree")
    engine = SingleChannelEngine(graph, policy, seed=2)
    engine.randomize_levels()
    collector = RunCollector(StructureView.from_engine(engine))
    engine.until_stable(max_rounds=50_000, collector=collector)
    assert collector.records
    assert all(
        "dropped" not in r and "spurious" not in r for r in collector.records
    )
