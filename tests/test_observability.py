"""The observability layer: primitives, collectors, and zero perturbation.

Three layers of guarantees are pinned here:

* **Primitives** — counters/gauges/histograms, their snapshot/merge
  algebra (what crosses process boundaries), sink formats, and the
  injectable-clock profiler.
* **Zero perturbation** — attaching a collector to *any* engine backend
  or sweep executor changes nothing about the execution: same rounds,
  same MIS, bit-identical final levels, byte-identical samples.
* **Record correctness** — the per-round ``|I_t|`` / ``|S_t|`` /
  prominent counts agree with the independent pure-Python
  :class:`repro.core.instrumentation.Configuration` recomputed offline
  from a replayed trajectory, and the record stream is identical across
  every sweep executor.

Fixture matrix: cycle, star, ER and random-regular topologies × three
seeds, per the Section-3 observables the collectors expose.
"""

import json

import numpy as np
import pytest

from repro.analysis.measurements import StabilizationRounds, graph_for_config
from repro.analysis.sweep import run_sweep, spawn_sweep_seeds, supports_observation
from repro.core.engines.batched import simulate_batched
from repro.core.engines.single import SingleChannelEngine, simulate_single
from repro.core.engines.two_channel import simulate_two_channel
from repro.core.instrumentation import Configuration
from repro.core.runner import compute_mis, policy_for_variant
from repro.graphs import generators as gen
from repro.obs import (
    BatchedCollector,
    Counter,
    CsvSink,
    Gauge,
    Histogram,
    InMemorySink,
    JsonlSink,
    MetricsOptions,
    MetricsRegistry,
    PhaseProfiler,
    RunCollector,
    StructureView,
    SweepRecorder,
    collect_sweep_metrics,
    collector_for_backend,
    make_sink,
)

# The issue's fixture matrix: four families × three seeds.
FIXTURES = [
    ("cycle", gen.cycle(16)),
    ("star", gen.star(12)),
    ("er", gen.erdos_renyi_mean_degree(24, 4.0, seed=11)),
    ("regular", gen.random_regular(18, 3, seed=12)),
]
SEEDS = (0, 1, 2)

BACKENDS = ("vectorized", "reference", "batched")


def _solo_collector(graph, policy, two_channel=False, **kwargs):
    view = StructureView.from_policy(graph, policy, two_channel=two_channel)
    return RunCollector(view, **kwargs)


# ======================================================================
# Metric primitives and the registry
# ======================================================================
class TestRegistry:
    def test_counter_is_monotone(self):
        c = Counter()
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_set_max(self):
        g = Gauge()
        g.set(5)
        g.set_max(3)
        assert g.value == 5
        g.set_max(9)
        assert g.value == 9

    def test_histogram_buckets_and_stats(self):
        h = Histogram()
        # bucket k holds 2^(k-1) < x <= 2^k; bucket 0 holds x <= 1.
        for value, bucket in [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (100, 7)]:
            assert Histogram.bucket_index(value) == bucket
            h.observe(value)
        assert h.count == 6
        assert h.minimum == 1 and h.maximum == 100
        assert h.mean == pytest.approx(115 / 6)
        assert h.buckets == {0: 1, 1: 1, 2: 2, 3: 1, 7: 1}

    def test_metrics_keyed_by_name_and_labels(self):
        reg = MetricsRegistry()
        assert reg.counter("beeps", channel=1) is reg.counter("beeps", channel=1)
        assert reg.counter("beeps", channel=1) is not reg.counter("beeps", channel=2)
        assert len(reg) == 2

    def test_snapshot_merge_algebra(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc(2)
        reg.gauge("peak").set(10)
        reg.histogram("rounds").observe(3.0)
        snap = reg.snapshot()

        merged = MetricsRegistry()
        merged.merge(snap)
        merged.merge(snap)
        # Counters add, gauges take the max, histogram buckets add.
        assert merged.counter("runs").value == 4
        assert merged.gauge("peak").value == 10
        h = merged.histogram("rounds")
        assert h.count == 2 and h.total == 6.0
        assert h.minimum == 3.0 and h.maximum == 3.0

    def test_snapshot_is_json_safe_and_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("b", x=2).inc()
        reg.counter("a", x=1).inc()
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert [row["name"] for row in snap["counters"]] == ["a", "b"]
        assert snap == reg.snapshot()

    def test_format_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("runs_total").inc(3)
        reg.histogram("stabilization_rounds").observe(40.0)
        text = reg.format()
        assert "runs_total: 3" in text
        assert "stabilization_rounds: count=1 mean=40.0" in text


# ======================================================================
# Sinks
# ======================================================================
class TestSinks:
    def test_jsonl_sink_canonical_lines(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        sink = JsonlSink(path)
        sink.emit({"b": 2, "a": 1})
        sink.emit({"a": 3, "beeps": [1, 2]})
        sink.close()
        lines = open(path).read().splitlines()
        assert lines[0] == '{"a": 1, "b": 2}'  # keys sorted
        assert json.loads(lines[1]) == {"a": 3, "beeps": [1, 2]}
        assert sink.emitted == 2

    def test_csv_sink_header_pinned_and_nested_cells(self, tmp_path):
        path = str(tmp_path / "out.csv")
        sink = CsvSink(path)
        sink.emit({"round": 0, "beeps": [3, 1]})
        sink.emit({"round": 1, "beeps": [0, 0], "extra": "dropped"})
        sink.close()
        header, *rows = open(path).read().splitlines()
        assert header == "round,beeps"
        assert rows[0] == '0,"[3, 1]"'  # nested values JSON-encoded
        assert len(rows) == 2  # extra column silently ignored, not added

    def test_make_sink(self):
        assert isinstance(make_sink("memory"), InMemorySink)
        assert isinstance(make_sink("jsonl"), JsonlSink)
        assert isinstance(make_sink("csv"), CsvSink)
        with pytest.raises(ValueError, match="unknown sink"):
            make_sink("parquet")


# ======================================================================
# Profiler (injected clocks — no wall-clock dependence in tests)
# ======================================================================
class _FakeClock:
    """Advances by ``step`` on every read."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestProfiler:
    def test_phase_timing_with_injected_clocks(self):
        profiler = PhaseProfiler(wall=_FakeClock(2.0), cpu=_FakeClock(0.5))
        with profiler.phase("run"):
            pass
        with profiler.phase("run"):
            pass
        entry = profiler.phases["run"]
        assert entry == {"wall_s": 4.0, "cpu_s": 1.0, "calls": 2}

    def test_rounds_per_sec(self):
        profiler = PhaseProfiler(wall=_FakeClock(1.0), cpu=_FakeClock(1.0))
        with profiler.phase("run"):
            pass
        profiler.add_rounds(500)
        assert profiler.rounds_per_sec("run") == pytest.approx(500.0)
        assert profiler.rounds_per_sec("missing") is None

    def test_merge_adds_durations_and_maxes_peaks(self):
        a = PhaseProfiler(wall=_FakeClock(1.0), cpu=_FakeClock(1.0))
        b = PhaseProfiler(wall=_FakeClock(3.0), cpu=_FakeClock(3.0))
        with a.phase("measure"):
            pass
        with b.phase("measure"):
            pass
        a.add_rounds(10)
        b.add_rounds(20)
        a.observe_memory(100)
        b.observe_memory(50)
        a.merge(b.snapshot())
        assert a.phases["measure"]["wall_s"] == 4.0
        assert a.phases["measure"]["calls"] == 2
        assert a.rounds == 30
        assert a.peak_bytes == 100
        assert "rounds/s" in a.format()


# ======================================================================
# MetricsOptions
# ======================================================================
class TestMetricsOptions:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown sink"):
            MetricsOptions(sink="parquet")
        with pytest.raises(ValueError, match="every"):
            MetricsOptions(every=0)

    def test_from_cli(self):
        assert MetricsOptions.from_cli("off") is None
        assert MetricsOptions.from_cli("summary").sink == "memory"
        jsonl = MetricsOptions.from_cli("jsonl")
        assert (jsonl.sink, jsonl.path) == ("jsonl", "metrics.jsonl")
        csv_ = MetricsOptions.from_cli("csv", path="x.csv", every=5)
        assert (csv_.sink, csv_.path, csv_.every) == ("csv", "x.csv", 5)


# ======================================================================
# Zero perturbation: every engine backend
# ======================================================================
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,graph", FIXTURES)
def test_collector_never_perturbs_backend(backend, name, graph):
    """Same seed → same outcome, with or without a collector attached."""
    policy = policy_for_variant(graph, "max_degree")
    for seed in SEEDS:
        bare = compute_mis(
            graph, seed=seed, arbitrary_start=True, engine=backend, policy=policy
        )
        registry = MetricsRegistry()
        collector = collector_for_backend(
            backend, graph, policy, "max_degree", registry=registry
        )
        observed = compute_mis(
            graph,
            seed=seed,
            arbitrary_start=True,
            engine=backend,
            policy=policy,
            collector=collector,
        )
        assert observed.mis == bare.mis, f"{backend}/{name}/{seed}"
        assert observed.rounds == bare.rounds, f"{backend}/{name}/{seed}"
        # One record per executed round, and the aggregates line up.
        assert len(collector.records) == bare.rounds
        assert registry.counter("runs_total").value == 1
        assert registry.counter("rounds_total").value == bare.rounds
        if bare.rounds:
            assert not collector.records[0]["legal"]


@pytest.mark.parametrize("name,graph", FIXTURES)
def test_collector_never_perturbs_two_channel(name, graph):
    policy = policy_for_variant(graph, "two_channel")
    for seed in SEEDS:
        bare = simulate_two_channel(graph, policy, seed=seed, arbitrary_start=True)
        collector = _solo_collector(graph, policy, two_channel=True)
        observed = simulate_two_channel(
            graph, policy, seed=seed, arbitrary_start=True, collector=collector
        )
        assert observed.rounds == bare.rounds
        assert np.array_equal(observed.final_levels, bare.final_levels)
        # Two channels per record on this variant.
        assert all(len(r["beeps"]) == 2 for r in collector.records)


# ======================================================================
# Differential: batched replica series ≡ solo series
# ======================================================================
@pytest.mark.parametrize("name,graph", FIXTURES)
def test_batched_series_bit_identical_to_solo(name, graph):
    policy = policy_for_variant(graph, "max_degree")
    children = np.random.SeedSequence(17).spawn(3)
    batched = BatchedCollector(
        StructureView.from_policy(graph, policy), replicas=len(children)
    )
    simulate_batched(
        graph,
        policy,
        rngs=[np.random.default_rng(c) for c in children],
        algorithm="single",
        arbitrary_start=True,
        collector=batched,
    )
    for k, child in enumerate(children):
        solo = _solo_collector(graph, policy)
        simulate_single(
            graph,
            policy,
            seed=np.random.default_rng(child),
            arbitrary_start=True,
            collector=solo,
        )
        for column in ("i_size", "s_size", "prominent", "legal", "beeps"):
            assert solo.series(column) == batched.series(column, k), (
                f"{name}: replica {k} column {column!r}"
            )


@pytest.mark.parametrize("scheduler", ("synchronous", "drift:0.3,3"))
def test_batched_two_channel_beep2_counts(scheduler):
    """Channel-2 beeps survive the batched path, as emitted.

    Under a drifting scheduler a delayed vertex re-emits its stale
    carrier, so the emitted channel-2 beeps are not ``ℓ == 0`` of the
    start-of-round levels; the batched counts must follow the emission.
    """
    graph = gen.erdos_renyi_mean_degree(24, 4.0, seed=11)
    policy = policy_for_variant(graph, "two_channel")
    children = np.random.SeedSequence(23).spawn(2)
    batched = BatchedCollector(
        StructureView.from_policy(graph, policy, two_channel=True),
        replicas=len(children),
    )
    simulate_batched(
        graph,
        policy,
        rngs=[np.random.default_rng(c) for c in children],
        algorithm="two_channel",
        arbitrary_start=True,
        collector=batched,
        scheduler=scheduler,
    )
    for k, child in enumerate(children):
        solo = _solo_collector(graph, policy, two_channel=True)
        simulate_two_channel(
            graph,
            policy,
            seed=np.random.default_rng(child),
            arbitrary_start=True,
            collector=solo,
            scheduler=scheduler,
        )
        assert solo.series("beeps") == batched.series("beeps", k)
        assert solo.beep_totals == batched.beep_totals[k]


# ======================================================================
# Differential: a collected run ≡ the same engine fed by hand
# ======================================================================
def _hand_fed_run(engine, collector, max_rounds, check_every):
    """``step()`` with the collector fed around it, as the simulator does.

    The stopping rule is the engine's own ``is_legal()``; the collector
    only reads.
    """
    collector.view.adopt_engine(engine)
    executed = 0
    while True:
        should_check = executed % check_every == 0 or executed >= max_rounds
        collector.observe_structure(engine.levels)
        if should_check and engine.is_legal():
            outcome = (True, executed, engine.mis_vertices())
            break
        if executed >= max_rounds:
            outcome = (False, executed, frozenset())
            break
        collector.observe_beeps(engine.step())
        executed += 1
    collector.finalize(outcome[0], outcome[1])
    return outcome


_DIFF_STRESS = {
    "ideal": {},
    "stressed": {"channel": "unreliable:0.05,0.01", "scheduler": "drift:0.1,3"},
}


@pytest.mark.parametrize("every", (1, 2))
@pytest.mark.parametrize("check_every", (1, 3))
@pytest.mark.parametrize("stress", sorted(_DIFF_STRESS))
@pytest.mark.parametrize("variant", ("max_degree", "two_channel"))
def test_collected_run_matches_hand_fed_step_loop(
    variant, stress, check_every, every
):
    from conftest import assert_same_streams

    from repro.core.engines import SingleChannelEngine, TwoChannelEngine

    graph = gen.erdos_renyi_mean_degree(40, 5.0, seed=3)
    policy = policy_for_variant(graph, variant)
    engine_cls = TwoChannelEngine if variant == "two_channel" else SingleChannelEngine
    engines = [
        engine_cls(graph, policy, seed=11, **_DIFF_STRESS[stress])
        for _ in range(2)
    ]
    for engine in engines:
        engine.randomize_levels()
    registries = [MetricsRegistry(), MetricsRegistry()]
    # A budget-exhausted run, then a resumed one to stabilization.
    for budget in (5, 50_000):
        collectors = [
            RunCollector(
                StructureView.from_engine(engine),
                labels={"budget": budget},
                registry=registry,
                every=every,
                level_hist=True,
            )
            for engine, registry in zip(engines, registries)
        ]
        result = engines[0].until_stable(
            budget, check_every=check_every, collector=collectors[0]
        )
        outcome = _hand_fed_run(engines[1], collectors[1], budget, check_every)
        assert (result.stabilized, result.rounds, result.mis) == outcome
        np.testing.assert_array_equal(result.final_levels, engines[1].levels)
        np.testing.assert_array_equal(engines[0].levels, engines[1].levels)
        assert collectors[0].records == collectors[1].records
        assert collectors[0].beep_totals == collectors[1].beep_totals
        assert collectors[0].peak_level_bytes == collectors[1].peak_level_bytes
    assert result.stabilized
    assert registries[0].snapshot() == registries[1].snapshot()
    assert engines[0].round_index == engines[1].round_index
    assert_same_streams(engines[0], engines[1])


# ======================================================================
# Zero perturbation + executor-identical records: the sweep paths
# ======================================================================
SWEEP_CONFIGS = [{"family": "er", "n": 24}, {"family": "cycle", "n": 20}]
MEASURE = StabilizationRounds()


def _samples(result):
    return [list(cell.samples) for cell in result.cells]


def test_sweep_metrics_zero_perturbation_across_executors():
    baseline = run_sweep(
        SWEEP_CONFIGS, MEASURE, repetitions=3, master_seed=3, executor="serial"
    )
    streams = []
    for executor, jobs in [
        ("serial", 1),
        ("process", 2),
        ("batched", 1),
        ("batched", 2),
    ]:
        observed = run_sweep(
            SWEEP_CONFIGS,
            MEASURE,
            repetitions=3,
            master_seed=3,
            executor=executor,
            jobs=jobs,
            metrics=MetricsOptions(),
        )
        assert _samples(observed) == _samples(baseline), (executor, jobs)
        metrics = observed.metrics
        assert metrics.registry.counter("runs_total").value == 6
        assert metrics.registry.counter("rounds_total").value == sum(
            sum(cell.samples) for cell in baseline.cells
        )
        streams.append(metrics.records)
    # The merged record stream is canonical: identical for every executor.
    assert all(stream == streams[0] for stream in streams[1:])
    # Records carry the config labels and repetition index.
    first = streams[0][0]
    assert first["family"] in ("er", "cycle") and "rep" in first and "round" in first


def test_sweep_metrics_requires_observed_measurement():
    def plain(config, rng):
        return float(rng.random())

    assert supports_observation(MEASURE)
    assert not supports_observation(plain)
    with pytest.raises(ValueError, match="measure_observed"):
        run_sweep(
            SWEEP_CONFIGS, plain, repetitions=2, metrics=MetricsOptions()
        )


# ======================================================================
# Record cadence and optional level histogram
# ======================================================================
def test_every_thins_records_but_not_aggregates():
    graph = gen.erdos_renyi_mean_degree(24, 4.0, seed=11)
    policy = policy_for_variant(graph, "max_degree")
    dense_reg, sparse_reg = MetricsRegistry(), MetricsRegistry()
    dense = _solo_collector(graph, policy, registry=dense_reg)
    sparse = _solo_collector(graph, policy, registry=sparse_reg, every=3)
    for collector in (dense, sparse):
        simulate_single(
            graph, policy, seed=9, arbitrary_start=True, collector=collector
        )
    assert all(r["round"] % 3 == 0 for r in sparse.records)
    assert sparse.records == [r for r in dense.records if r["round"] % 3 == 0]
    # Beep totals accumulate every round regardless of the cadence.
    assert sparse.beep_totals == dense.beep_totals
    assert sparse_reg.snapshot() == dense_reg.snapshot()


def test_level_histogram_partitions_the_vertices():
    graph = gen.cycle(16)
    policy = policy_for_variant(graph, "max_degree")
    collector = _solo_collector(graph, policy, level_hist=True)
    simulate_single(graph, policy, seed=1, arbitrary_start=True, collector=collector)
    ell = int(np.asarray(policy.ell_max).max())
    for record in collector.records:
        hist = record["level_hist"]
        assert sum(count for _, count in hist) == graph.num_vertices
        assert all(-ell <= level <= ell for level, _ in hist)


# ======================================================================
# Offline recompute: records vs repro.core.instrumentation.Configuration
# ======================================================================
def test_jsonl_records_match_offline_configuration(tmp_path):
    """The acceptance check: replay the trajectory independently and
    recompute |I_t| / |S_t| / |PM_t| with the pure-Python instrumentation
    on sampled rounds; they must equal the JSONL records."""
    config = {"family": "er", "n": 24}
    path = str(tmp_path / "metrics.jsonl")
    result = run_sweep(
        [config],
        MEASURE,
        repetitions=2,
        master_seed=9,
        executor="serial",
        metrics=MetricsOptions(sink="jsonl", path=path),
    )
    records = [json.loads(line) for line in open(path)]
    assert records == result.metrics.records  # file round-trips exactly

    graph = graph_for_config(config)
    policy = policy_for_variant(graph, "max_degree")
    ell_max = tuple(int(x) for x in np.asarray(policy.ell_max))
    seeds = spawn_sweep_seeds(9, 1, 2)[0]
    for rep, child in enumerate(seeds):
        rep_records = {
            r["round"]: r for r in records if r["rep"] == rep
        }
        rounds = len(rep_records)
        assert rounds == result.cells[0].samples[rep]
        # Independent replay: the engine's exact seeding and start state.
        engine = SingleChannelEngine(graph, policy, seed=np.random.default_rng(child))
        engine.randomize_levels()
        for round_index in range(rounds):
            if round_index % max(1, rounds // 6) == 0:  # sampled rounds
                snapshot = Configuration(
                    graph, tuple(int(x) for x in engine.levels), ell_max
                )
                sets = snapshot.stable_sets()
                record = rep_records[round_index]
                assert record["i_size"] == len(sets.mis)
                assert record["s_size"] == len(sets.stable)
                assert record["prominent"] == len(snapshot.prominent_vertices())
            engine.step()


# ======================================================================
# Consistency with the legacy TraceRecorder
# ======================================================================
def test_run_collector_consistent_with_trace_recorder():
    """Same network, two observers: the legacy TraceRecorder series and
    the RunCollector records must tell one story (the single-channel
    output map reports IN_MIS iff prominent, so mis_size ≡ prominent)."""
    from repro.beeping.network import BeepingNetwork
    from repro.beeping.simulator import run_until_stable
    from repro.beeping.trace import TraceRecorder
    from repro.core.algorithm_single import SelfStabilizingMIS

    graph = gen.erdos_renyi_mean_degree(24, 4.0, seed=11)
    policy = policy_for_variant(graph, "max_degree")

    def network():
        return BeepingNetwork(
            graph, SelfStabilizingMIS(), policy.knowledge(graph), seed=5
        )

    collector = _solo_collector(graph, policy)
    result = run_until_stable(network(), max_rounds=5000, collector=collector)
    assert result.stabilized

    trace = TraceRecorder().run(network(), result.rounds)
    assert collector.series("legal") == trace.series("legal")
    assert collector.series("prominent") == trace.series("mis_size")
    assert collector.series("beeps") == [
        list(b) for b in trace.series("beeps_per_channel")
    ]


# ======================================================================
# Worker/parent plumbing
# ======================================================================
def test_sweep_recorder_payload_merges_like_in_process():
    graph = gen.cycle(16)
    policy = policy_for_variant(graph, "max_degree")
    recorder = SweepRecorder(base_labels={"family": "cycle"})
    collector = recorder.solo_collector(graph, policy, extra_labels={"rep": 0})
    outcome = simulate_single(
        graph, policy, seed=2, arbitrary_start=True, collector=collector
    )
    payload = recorder.payload()
    json.dumps(payload)  # picklable AND json-safe

    merged = collect_sweep_metrics([payload, payload], MetricsOptions())
    assert merged.registry.counter("runs_total").value == 2
    assert len(merged.records) == 2 * outcome.rounds
    assert merged.records[0]["family"] == "cycle"
    assert merged.path is None and merged.emitted == 0


def test_collect_sweep_metrics_canonicalizes_record_order():
    """Interleaved (batched-style) records sort to (rep, round) order."""
    records = [
        {"rep": 1, "round": 0},
        {"rep": 0, "round": 0},
        {"rep": 1, "round": 1},
        {"rep": 0, "round": 1},
    ]
    payload = {
        "registry": MetricsRegistry().snapshot(),
        "records": records,
        "profile": PhaseProfiler().snapshot(),
    }
    merged = collect_sweep_metrics([payload], MetricsOptions())
    assert merged.records == [
        {"rep": 0, "round": 0},
        {"rep": 0, "round": 1},
        {"rep": 1, "round": 0},
        {"rep": 1, "round": 1},
    ]


def test_collector_guards_against_misuse():
    graph = gen.cycle(8)
    policy = policy_for_variant(graph, "max_degree")
    collector = _solo_collector(graph, policy)
    with pytest.raises(RuntimeError, match="observe_structure"):
        collector.observe_beeps(np.zeros(8, dtype=bool))
    with pytest.raises(ValueError, match="every"):
        _solo_collector(graph, policy, every=0)
