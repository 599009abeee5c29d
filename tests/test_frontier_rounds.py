"""Frontier rounds against dense rounds: same outcomes, same streams.

An ideal, unobserved one-row run tests legality through its active set
and steps only that set while it is small (``repro.core.kernels.round``,
"Frontier rounds").  These tests patch the module's ``FRONTIER_LIMIT``:
``0`` disables the frontier (every round and every legality test runs
on the dense bodies, as before frontier rounds existed), and a small
value forces hand-backs to the dense bodies mid-run.  Every outcome
field, the engine's round index and the next draw of its generator
must be identical under every limit.

The service machine drives :class:`~repro.serve.MISService` through
random node/edge churn (tombstone reuse and id-space growth included),
queries and rejected ops next to a twin service whose every op runs
with frontier rounds and the local certificate disabled; after each op
both serve a verified MIS and equal outcomes, levels, round index and
generator state, and the patched structure equals a fresh build.  Every
certificate the service asks for (each accepted mutation that keeps the
id space) must agree with the full ``is_legal()``.  A machine serves
either algorithm ideal, or Algorithm 1 under a noisy channel with
drifting clocks.  A rejected op (duplicate or absent edge, self loop,
dead or out-of-range id, degree-cap violation) leaves the topology
version, the levels and the generator exactly as they were.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import repro.core.kernels.round as round_module
from conftest import assert_identical
from repro.core.engines import SingleChannelEngine, TwoChannelEngine
from repro.core.kernels import GraphStructure
from repro.core.knowledge import max_degree_policy, own_degree_policy
from repro.graphs import Graph
from repro.graphs import generators as gen
from repro.serve import MISService, Op

#: The default, a limit that hands back to the dense bodies mid-run,
#: and the dense-only reference.
LIMITS = (round_module.FRONTIER_LIMIT, 3, 0)

GRAPHS = {
    "er30": lambda: gen.erdos_renyi(30, 0.15, seed=1),
    "er50": lambda: gen.erdos_renyi(50, 0.08, seed=2),
    "star": lambda: gen.star(12),
    "path": lambda: gen.path(15),
    "complete": lambda: gen.complete(7),
    "empty": lambda: gen.empty(5),
    "isolated": lambda: Graph(12, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)]),
}

ENGINES = {"single": SingleChannelEngine, "two_channel": TwoChannelEngine}
POLICIES = {"max_degree": max_degree_policy, "own_degree": own_degree_policy}
STARTS = ("legal+1", "legal+3", "clash", "random", "floor", "top")
BUDGETS = (0, 1, 4, 10_000)
#: Served as (algorithm, channel, scheduler): both algorithms ideal, and
#: Algorithm 1 under spurious beeps and drift (Algorithm 2 is far more
#: fragile to spurious beeps, docs/robustness.md, and can exhaust the
#: service's budget on them).
SERVICES = (
    ("single", None, None),
    ("two_channel", None, None),
    ("single", "noisy:0.02", "drift:0.1"),
)


@contextmanager
def frontier_limit(limit):
    saved = round_module.FRONTIER_LIMIT
    round_module.FRONTIER_LIMIT = limit
    try:
        yield
    finally:
        round_module.FRONTIER_LIMIT = saved


def _start_levels(engine_cls, graph, policy, start, seed=99):
    """The start configuration, built on an engine of its own."""
    engine = engine_cls(graph, policy, seed=seed)
    floor, top = engine._floor_vector(), engine.ell_max
    if start == "floor":
        return floor.copy()
    if start == "top":
        return top.copy()
    engine.randomize_levels()
    if start == "random":
        return engine.levels.copy()
    assert engine.until_stable(10_000).stabilized
    levels = engine.levels.copy()
    if start == "clash":
        # An ℓmax vertex beside the floor drops to the floor: the two
        # floor vertices clash, and their ℓmax neighbours lose their
        # settling floor neighbour one round later.
        for u, v in graph.edges:
            for a, b in ((u, v), (v, u)):
                if levels[a] == top[a] and levels[b] == floor[b]:
                    levels[a] = floor[a]
                    return levels
        return levels
    rng = np.random.default_rng(seed)
    k = min(int(start.split("+")[1]), graph.num_vertices)
    for v in rng.choice(graph.num_vertices, size=k, replace=False):
        levels[v] = int(rng.integers(floor[v], top[v] + 1))
    return levels


def _run(engine_cls, graph, policy, levels, limit, budget, check_every):
    with frontier_limit(limit):
        engine = engine_cls(graph, policy, seed=5)
        engine.set_levels(levels)
        result = engine.until_stable(budget, check_every)
        # A second run continues the same engine from where it stopped.
        again = engine.until_stable(budget, check_every)
    return [
        (r.stabilized, r.rounds, sorted(r.mis), r.final_levels.tolist())
        for r in (result, again)
    ] + [engine.round_index, engine.levels.tolist(), float(engine.rng.random())]


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("algorithm", sorted(ENGINES))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_frontier_runs_equal_dense_runs(graph_name, algorithm, policy, start):
    graph = GRAPHS[graph_name]()
    engine_cls = ENGINES[algorithm]
    pol = POLICIES[policy](graph)
    levels = _start_levels(engine_cls, graph, pol, start)
    # The frontier's "active" predicate over every vertex is the full
    # legality test, before and after a run.
    probe = engine_cls(graph, pol, seed=5)
    probe.set_levels(levels)
    everyone = range(graph.num_vertices)
    for _ in range(2):
        verdicts = [probe.settled([v]) for v in everyone]
        assert probe.settled(everyone) == all(verdicts) == probe.is_legal()
        assert probe.until_stable(10_000).stabilized
    for check_every in (1, 3):
        for budget in BUDGETS:
            runs = [
                _run(engine_cls, graph, pol, levels, limit, budget, check_every)
                for limit in LIMITS
            ]
            assert runs[0] == runs[2], (check_every, budget)
            assert runs[1] == runs[2], (check_every, budget)


@pytest.mark.parametrize("algorithm", sorted(ENGINES))
def test_both_paths_run_and_hand_back(monkeypatch, algorithm):
    """A small limit enters frontier rounds and hands back mid-run."""
    calls = {"frontier": 0, "handback": 0, "dense": 0}
    frontier_step = round_module._Frontier.step

    def counted_frontier(self, draws, active):
        calls["frontier"] += 1
        nxt = frontier_step(self, draws, active)
        calls["handback"] += nxt is None
        return nxt

    dense_name = "_step_single" if algorithm == "single" else "_step_two"
    dense_step = getattr(round_module.RoundKernel, dense_name)

    def counted_dense(self, *args):
        calls["dense"] += 1
        return dense_step(self, *args)

    monkeypatch.setattr(round_module._Frontier, "step", counted_frontier)
    monkeypatch.setattr(round_module.RoundKernel, dense_name, counted_dense)
    # A star whose centre and one leaf clash at the floor: A = {centre,
    # leaf}; one round later every leaf at ℓmax is active.
    engine_cls = ENGINES[algorithm]
    graph = gen.star(12)
    policy = max_degree_policy(graph)
    probe = engine_cls(graph, policy)
    levels = probe.ell_max.copy()
    levels[:2] = probe._floor_vector()[:2]
    runs = [_run(engine_cls, graph, policy, levels, limit, 10_000, 1) for limit in (3, 0)]
    assert runs[0] == runs[1]
    assert calls["frontier"] > 0
    assert calls["handback"] > 0
    assert calls["dense"] > 0


def test_stressed_and_batched_runs_stay_dense(monkeypatch):
    """Stress models, observers and blocks of k ≥ 2 never build a frontier."""
    from repro.core.engines.batched import BatchedEngine
    from repro.obs import RunCollector, StructureView

    built = []
    init = round_module._Frontier.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(round_module._Frontier, "__init__", counted)
    graph = gen.erdos_renyi(30, 0.15, seed=1)
    policy = max_degree_policy(graph)
    BatchedEngine(graph, policy, replicas=3, seed=1).run(
        10_000, arbitrary_start=True
    )
    SingleChannelEngine.simulate(
        graph, policy, seed=2, arbitrary_start=True, channel="lossy:0.05"
    )
    engine = SingleChannelEngine(graph, policy, seed=3)
    engine.randomize_levels()
    engine.until_stable(10_000, collector=RunCollector(StructureView.from_engine(engine)))
    assert built == []
    SingleChannelEngine.simulate(graph, policy, seed=2, arbitrary_start=True)
    assert built == [1]


class ServiceMachine(RuleBasedStateMachine):
    """Churn a service next to a twin whose frontier rounds and local
    certificate are off."""

    @initialize(
        n=st.integers(2, 16),
        p=st.floats(0.0, 0.4),
        graph_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        served=st.sampled_from(SERVICES),
    )
    def setup(self, n, p, graph_seed, seed, served):
        graph = gen.erdos_renyi(n, p, seed=graph_seed)
        cap = graph.max_degree() + 2
        algorithm, channel, scheduler = served
        kwargs = dict(
            degree_cap=cap, algorithm=algorithm, seed=seed,
            channel=channel, scheduler=scheduler,
        )
        self.service = MISService(graph, **kwargs)
        self.certificates = []
        engine = self.service._engine
        local = engine.settled

        def settled(vertices):
            # Each mutation follows a legal state (the invariants below).
            verdict = local(vertices)
            assert verdict == engine.is_legal()
            self.certificates.append(verdict)
            return verdict

        engine.settled = settled
        with frontier_limit(0):
            self.twin = MISService(graph, **kwargs)
        self.twin._engine.settled = lambda vertices: False

    def _apply(self, op):
        asked = len(self.certificates)
        size = self.service.topology.num_vertices
        result = self.service.apply(op)
        with frontier_limit(0):
            twin = self.twin.apply(op)
        assert result.outcome() == twin.outcome()
        # Every accepted mutation that keeps the id space asks once.
        keeps = result.status == "ok" and op.is_mutation
        keeps = keeps and self.service.topology.num_vertices == size
        assert len(self.certificates) == asked + keeps
        return result

    def _vertex(self, data):
        live = self.service.topology.live_vertices()
        return data.draw(st.sampled_from(live)) if live else None

    @rule()
    def add_node(self):
        self._apply(Op("ADD_NODE"))

    @rule(data=st.data())
    def del_node(self, data):
        v = self._vertex(data)
        if v is not None:
            self._apply(Op("DEL_NODE", v=v))

    @rule(data=st.data())
    def add_edge(self, data):
        u, v = self._vertex(data), self._vertex(data)
        if u is not None and u != v:
            self._apply(Op("ADD_EDGE", u=u, v=v))

    @rule(data=st.data())
    def del_edge(self, data):
        u = self._vertex(data)
        nbrs = self.service.topology.neighbors(u) if u is not None else ()
        if nbrs:
            self._apply(Op("DEL_EDGE", u=u, v=data.draw(st.sampled_from(nbrs))))

    @rule()
    def query_mis(self):
        result = self._apply(Op("QUERY_MIS"))
        assert result.mis == self.service.mis()

    @rule(data=st.data())
    def read_nbrs(self, data):
        v = self._vertex(data)
        if v is not None:
            result = self._apply(Op("READ_NBRS", v=v))
            assert result.neighbors == self.service.topology.neighbors(v)

    def _at_cap(self):
        """A live vertex at the degree cap, filled up by ADD_EDGE if need be."""
        topo = self.service.topology
        cap = topo.degree_cap
        u = max(topo.live_vertices(), key=topo.degree)
        for v in topo.live_vertices():
            if topo.degree(u) == cap:
                break
            if v != u and not topo.has_edge(u, v) and topo.degree(v) < cap:
                self._apply(Op("ADD_EDGE", u=u, v=v))
        return u if topo.degree(u) == cap else None

    def _rejectable(self, data):
        """One op the topology must reject, or None if none applies.

        The dead-id and cap cases first apply the (accepted) DEL_NODE or
        ADD_EDGE ops that make them possible.
        """
        topo = self.service.topology
        live = topo.live_vertices()
        if not live:
            return None
        kind = data.draw(st.sampled_from(
            ("duplicate", "non_edge", "self_loop", "tombstone", "out_of_range", "cap")
        ))
        if kind == "duplicate" and topo.num_edges:
            u, v = data.draw(st.sampled_from(topo.edges()))
            return Op("ADD_EDGE", u=u, v=v)
        if kind == "non_edge":
            pairs = [(u, v) for u in live for v in live if u < v and not topo.has_edge(u, v)]
            if pairs:
                u, v = data.draw(st.sampled_from(pairs))
                return Op("DEL_EDGE", u=u, v=v)
        if kind == "self_loop":
            v = data.draw(st.sampled_from(live))
            return Op(data.draw(st.sampled_from(("ADD_EDGE", "DEL_EDGE"))), u=v, v=v)
        if kind in ("tombstone", "out_of_range"):
            if kind == "tombstone" and not topo.tombstones() and len(live) > 1:
                self._apply(Op("DEL_NODE", v=data.draw(st.sampled_from(live))))
            dead = sorted(topo.tombstones())
            if kind == "out_of_range":
                v = topo.num_vertices + data.draw(st.integers(0, 3))
            elif dead:
                v = data.draw(st.sampled_from(dead))
            else:
                return None
            other = data.draw(st.sampled_from(topo.live_vertices()))
            return data.draw(st.sampled_from((
                Op("DEL_NODE", v=v), Op("READ_NBRS", v=v),
                Op("ADD_EDGE", u=other, v=v), Op("DEL_EDGE", u=v, v=other),
            )))
        if kind == "cap":
            u = self._at_cap()
            if u is None:
                return None
            spare = [v for v in topo.live_vertices() if v != u and not topo.has_edge(u, v)]
            if not spare:
                spare = [self._apply(Op("ADD_NODE")).node]
            return Op("ADD_EDGE", u=u, v=data.draw(st.sampled_from(spare)))
        return None

    @rule(data=st.data())
    def rejected_op_changes_nothing(self, data):
        op = self._rejectable(data)
        if op is None:
            return

        def state():
            engine = self.service._engine
            return (
                self.service.topology.version, engine.levels.tobytes(),
                engine.rng.bit_generator.state, self.service.mis(),
            )

        before = state()
        assert self._apply(op).status == "rejected", op
        assert state() == before

    @invariant()
    def structure_equals_a_fresh_build(self):
        fresh = GraphStructure(self.service.topology.snapshot())
        assert_identical(self.service.structure, fresh)

    @invariant()
    def serves_the_same_legal_mis(self):
        assert self.service.verify_legal()
        assert self.service.mis() == self.twin.mis()
        engine, twin = self.service._engine, self.twin._engine
        np.testing.assert_array_equal(engine.levels, twin.levels)
        assert engine.round_index == twin.round_index
        assert engine.rng.bit_generator.state == twin.rng.bit_generator.state
        assert _stress_state(engine) == _stress_state(twin)


def _stress_state(engine):
    """The channel and scheduler stream positions and stale-beep carriers."""
    rows = engine._block._stress_rows or ()
    return [
        (
            row.channel_rng and row.channel_rng.bit_generator.state,
            row.scheduler_rng and row.scheduler_rng.bit_generator.state,
            {key: carrier.tobytes() for key, carrier in row._carriers.items()},
        )
        for row in rows
    ]


ServiceMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServiceMachine = ServiceMachine.TestCase
