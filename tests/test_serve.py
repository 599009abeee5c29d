"""The serving stack: op format, MutableTopology, MISService, determinism.

Covers the contracts ``docs/serving.md`` documents:

* strict op parsing (bad JSON / unknown ops / wrong fields fail loudly,
  semantic failures are *rejections*, not parse errors);
* degree-cap (ℓmax-validity) enforcement — a rejected op, of every
  kind, leaves both topology and engine untouched;
* ``MISService.topology`` is a read-only view that reads what a twin
  ``MutableTopology`` holds and cannot be mutated, rebound or patched;
* deterministic replay — same seed + stream → byte-identical served
  outcomes (including the full MIS history);
* metrics-on/off byte-identity — observability never changes outcomes;
* the served MIS is the one the engine's levels give after every op,
  shared as one tuple between mutations, and never stale after a
  ``ServeError``;
* the incremental-vs-rebuild latency claim at n = 512 (the acceptance
  number recorded in ``results/BENCH_serve.json``).
"""

import json

import numpy as np
import pytest

from repro.graphs import Graph, MutableTopology, TopologyError
from repro.graphs.generators import erdos_renyi
from repro.obs import InMemorySink, MetricsRegistry
from repro.serve import (
    MISService,
    Op,
    OpError,
    ServeError,
    ServeReport,
    format_op,
    generate_ops,
    parse_op,
    parse_ops,
)


def _graph(n=48, p=0.12, seed=3):
    return erdos_renyi(n, p, seed=seed)


# ----------------------------------------------------------------------
# Op format
# ----------------------------------------------------------------------
def test_parse_all_op_kinds():
    lines = [
        '{"op": "ADD_NODE"}',
        '{"op": "DEL_NODE", "v": 3}',
        '{"op": "ADD_EDGE", "u": 1, "v": 2}',
        '{"op": "DEL_EDGE", "u": 2, "v": 1}',
        '{"op": "READ_NBRS", "v": 0}',
        '{"op": "QUERY_MIS"}',
    ]
    ops = [parse_op(line) for line in lines]
    assert [op.kind for op in ops] == [
        "ADD_NODE", "DEL_NODE", "ADD_EDGE", "DEL_EDGE", "READ_NBRS", "QUERY_MIS",
    ]
    assert ops[2].u == 1 and ops[2].v == 2
    assert [op.is_mutation for op in ops] == [True] * 4 + [False] * 2


def test_op_round_trip():
    graph = _graph()
    ops = generate_ops("burst", 120, 7, graph, degree_cap=graph.max_degree() + 2)
    lines = [format_op(op) for op in ops]
    assert list(parse_ops(lines)) == ops
    for line in lines:  # canonical JSON: parseable, one object per line
        assert isinstance(json.loads(line), dict)


def test_parse_ops_skips_blanks_and_comments():
    text = ["", "# a comment", '{"op": "QUERY_MIS"}', "   "]
    assert list(parse_ops(text)) == [Op("QUERY_MIS")]


@pytest.mark.parametrize("line", [
    "not json",
    '["op"]',
    '{"op": "NO_SUCH_OP"}',
    '{"op": "ADD_EDGE", "u": 1}',  # missing field
    '{"op": "ADD_EDGE", "u": 1, "v": 2, "w": 3}',  # extra field
    '{"op": "ADD_NODE", "v": 1}',  # field not in spec
    '{"op": "DEL_NODE", "v": -1}',  # negative id
    '{"op": "DEL_NODE", "v": true}',  # bool is not an int here
    '{"op": "READ_NBRS", "v": "3"}',  # string id
])
def test_parse_rejects_malformed(line):
    with pytest.raises(OpError):
        parse_op(line)


# ----------------------------------------------------------------------
# MutableTopology semantics
# ----------------------------------------------------------------------
def test_snapshot_matches_fresh_graph_after_every_op():
    graph = _graph()
    topo = MutableTopology(graph)
    rng = np.random.default_rng(0)
    edges = set(graph.edges)
    for _ in range(40):
        u, v = (int(x) for x in rng.integers(0, topo.num_vertices, 2))
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if topo.has_edge(u, v):
            topo.remove_edge(u, v)
            edges.discard(edge)
        elif topo.is_live(u) and topo.is_live(v):
            topo.add_edge(u, v)
            edges.add(edge)
        snap = topo.snapshot()
        assert set(snap.edges) == edges
        assert snap.num_vertices == topo.num_vertices


def test_degree_cap_rejection_keeps_state():
    star = Graph(4, [(0, 1), (0, 2)])
    topo = MutableTopology(star, degree_cap=2)
    version = topo.version
    with pytest.raises(TopologyError, match="degree cap"):
        topo.add_edge(0, 3)  # would push 0 to degree 3
    assert topo.version == version
    assert not topo.has_edge(0, 3)
    assert topo.num_edges == 2
    # Cap also validates the starting graph.
    with pytest.raises(TopologyError, match="cap"):
        MutableTopology(star, degree_cap=1)


def test_tombstone_and_recycle():
    graph = _graph()
    topo = MutableTopology(graph)
    n = topo.num_vertices
    topo.remove_node(7)
    topo.remove_node(3)
    assert not topo.is_live(3) and topo.num_live == n - 2
    with pytest.raises(TopologyError):
        topo.remove_node(3)  # already dead
    with pytest.raises(TopologyError):
        topo.add_edge(3, 0)  # dead endpoint
    vid, delta = topo.add_node()
    assert vid == 3 and not delta.grows  # lowest freed id first
    vid, _ = topo.add_node()
    assert vid == 7
    vid, delta = topo.add_node()
    assert vid == n and delta.grows  # free list empty -> grow


# ----------------------------------------------------------------------
# MISService
# ----------------------------------------------------------------------
def test_service_rejects_without_perturbing_state():
    graph = _graph()
    cap = graph.max_degree()
    service = MISService(graph, degree_cap=cap, seed=0)
    mis_before = service.mis()
    hub = max(range(graph.num_vertices), key=graph.degree)
    other = next(
        v for v in range(graph.num_vertices)
        if v != hub and not graph.has_edge(hub, v)
    )
    result = service.apply(Op("ADD_EDGE", u=hub, v=other))
    assert result.status == "rejected" and "degree cap" in result.error
    dup = service.topology.edges()[0]
    assert service.apply(Op("ADD_EDGE", u=dup[0], v=dup[1])).status == "rejected"
    assert service.apply(Op("DEL_EDGE", u=hub, v=other)).status == "rejected"
    assert service.apply(Op("READ_NBRS", v=graph.num_vertices + 5)).status == "rejected"
    assert service.mis() == mis_before
    assert service.verify_legal()


def _hub(topo):
    return max(topo.live_vertices(), key=topo.degree)


def _free(topo):
    """A live vertex below the cap and not adjacent to the hub."""
    hub = _hub(topo)
    return next(
        v for v in topo.live_vertices()
        if v != hub and not topo.has_edge(hub, v) and topo.degree(v) < topo.degree_cap
    )


def _dead(topo):
    return min(topo.tombstones())


# Each case: (ops applied first, the op that must be rejected, error text).
# ``setup`` and ``op`` read the service's topology view.
REJECTED_OPS = {
    "duplicate-add-edge": (
        lambda t: [], lambda t: Op("ADD_EDGE", u=t.edges()[0][0], v=t.edges()[0][1]),
        "already present",
    ),
    "absent-del-edge": (
        lambda t: [], lambda t: Op("DEL_EDGE", u=_hub(t), v=_free(t)), "not present",
    ),
    "self-loop-add-edge": (
        lambda t: [], lambda t: Op("ADD_EDGE", u=_free(t), v=_free(t)), "self loop",
    ),
    "self-loop-del-edge": (
        lambda t: [], lambda t: Op("DEL_EDGE", u=_hub(t), v=_hub(t)), "self loop",
    ),
    "dead-del-node": (
        lambda t: [Op("DEL_NODE", v=5)], lambda t: Op("DEL_NODE", v=_dead(t)), "not live",
    ),
    "dead-add-edge": (
        lambda t: [Op("DEL_NODE", v=5)],
        lambda t: Op("ADD_EDGE", u=_free(t), v=_dead(t)), "not live",
    ),
    "dead-del-edge": (
        lambda t: [Op("DEL_NODE", v=5)],
        lambda t: Op("DEL_EDGE", u=_dead(t), v=_hub(t)), "not live",
    ),
    "dead-read-nbrs": (
        lambda t: [Op("DEL_NODE", v=5)], lambda t: Op("READ_NBRS", v=_dead(t)), "not live",
    ),
    "out-of-range-del-node": (
        lambda t: [], lambda t: Op("DEL_NODE", v=t.num_vertices), "out of range",
    ),
    "out-of-range-add-edge": (
        lambda t: [], lambda t: Op("ADD_EDGE", u=_free(t), v=t.num_vertices + 3),
        "out of range",
    ),
    "out-of-range-del-edge": (
        lambda t: [], lambda t: Op("DEL_EDGE", u=t.num_vertices + 1, v=_hub(t)),
        "out of range",
    ),
    "out-of-range-read-nbrs": (
        lambda t: [], lambda t: Op("READ_NBRS", v=t.num_vertices + 7), "out of range",
    ),
    "cap-add-edge": (
        lambda t: [], lambda t: Op("ADD_EDGE", u=_hub(t), v=_free(t)), "degree cap",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED_OPS))
def test_each_rejected_op_leaves_the_service_unchanged(case):
    """A rejected op changes no version, level, generator draw or answer,
    and the next accepted op plays out as on a twin that never saw it."""
    setup, make_op, error = REJECTED_OPS[case]
    graph = _graph()
    cap = graph.max_degree()  # the hub sits at the cap
    service = MISService(graph, degree_cap=cap, seed=4)
    twin = MISService(graph, degree_cap=cap, seed=4)
    for op in setup(service.topology):
        assert service.apply(op).status == "ok" and twin.apply(op).status == "ok"

    def state(svc):
        engine = svc._engine
        return (
            svc.topology.version, svc.topology.edges(), engine.levels.tobytes(),
            engine.round_index, engine.rng.bit_generator.state, svc.mis(),
        )

    before = state(service)
    structure = service.structure
    op = make_op(service.topology)
    result = service.apply(op)
    assert result.status == "rejected", op
    assert error in result.error
    assert result.rounds is None and result.node is None and result.neighbors is None
    assert state(service) == before
    assert service.structure is structure
    assert service.verify_legal()

    follow = Op("ADD_NODE")
    assert service.apply(follow).outcome() == twin.apply(follow).outcome()
    assert state(service) == state(twin)


MUTATORS = ("add_node", "remove_node", "add_edge", "remove_edge")


def test_service_topology_is_a_read_only_view():
    graph = _graph()
    service = MISService(graph, degree_cap=graph.max_degree() + 2, seed=0)
    view = service.topology
    assert view is service.topology  # built once, no allocation per read
    for name in MUTATORS:
        assert not hasattr(view, name), name
    with pytest.raises(AttributeError):
        service.topology = MutableTopology(graph)
    with pytest.raises(AttributeError):
        view.degree_cap = 1000
    assert service.topology is view


def _assert_same_reads(view, topo):
    """Every read the view forwards equals the same read on ``topo``."""
    for name in ("num_vertices", "num_live", "num_edges", "version", "degree_cap"):
        assert getattr(view, name) == getattr(topo, name), name
    for name in ("live_vertices", "tombstones", "edges", "max_degree", "snapshot"):
        assert getattr(view, name)() == getattr(topo, name)(), name
    ids = range(topo.num_vertices + 2)
    assert [view.is_live(v) for v in ids] == [topo.is_live(v) for v in ids]
    for v in topo.live_vertices():
        assert view.degree(v) == topo.degree(v)
        assert view.neighbors(v) == topo.neighbors(v)
        assert [view.has_edge(v, w) for w in ids] == [topo.has_edge(v, w) for w in ids]


def test_topology_view_cannot_be_given_a_mutator():
    """The view has no instance dict, so no mutator can be patched onto it,
    and the service's handle can be neither rebound nor deleted."""
    graph = _graph()
    service = MISService(graph, degree_cap=graph.max_degree() + 2, seed=0)
    view = service.topology
    with pytest.raises(TypeError):
        vars(view)
    for name in MUTATORS:
        with pytest.raises(AttributeError):
            setattr(view, name, lambda *args: None)
    with pytest.raises(AttributeError):
        del service.topology
    assert service.topology is view


def test_topology_view_snapshot_is_frozen_at_its_version():
    """A snapshot read through the view keeps the graph of its version;
    the view itself follows every op the service applies."""
    graph = _graph()
    service = MISService(graph, degree_cap=graph.max_degree() + 2, seed=0)
    view = service.topology
    before, version = view.snapshot(), view.version
    assert before == graph
    u, v = view.edges()[0]
    assert service.apply(Op("DEL_EDGE", u=u, v=v)).status == "ok"
    assert before == graph and before.has_edge(u, v)
    assert view.version == version + 1 and not view.has_edge(u, v)
    assert view.snapshot() != before and view.num_edges == graph.num_edges - 1


def test_service_topology_reads_follow_a_twin_topology():
    """The view reads what a MutableTopology driven by the same ops holds,
    rejected ops included."""
    graph = _graph()
    cap = graph.max_degree() + 2
    service = MISService(graph, degree_cap=cap, seed=0)
    twin = MutableTopology(graph, degree_cap=cap)
    ops = list(generate_ops("churn-heavy", 80, 2, graph, degree_cap=cap))
    ops += [Op("ADD_EDGE", u=0, v=0), Op("DEL_NODE", v=graph.num_vertices + 9)]
    apply_to_twin = {
        "ADD_NODE": lambda op: twin.add_node(),
        "DEL_NODE": lambda op: twin.remove_node(op.v),
        "ADD_EDGE": lambda op: twin.add_edge(op.u, op.v),
        "DEL_EDGE": lambda op: twin.remove_edge(op.u, op.v),
    }
    _assert_same_reads(service.topology, twin)
    for op in ops:
        result = service.apply(op)
        if op.kind in apply_to_twin:
            try:
                apply_to_twin[op.kind](op)
            except TopologyError:
                assert result.status == "rejected"
            else:
                assert result.status == "ok"
        _assert_same_reads(service.topology, twin)
    assert twin.version > 0


def test_served_stream_stays_legal_and_reads_are_consistent():
    graph = _graph()
    cap = graph.max_degree() + 2
    ops = generate_ops("churn-heavy", 250, 1, graph, degree_cap=cap)
    service = MISService(graph, degree_cap=cap, seed=1)
    report = service.run(ops)
    assert isinstance(report, ServeReport)
    summary = report.summary()
    assert summary["rejected"] == 0
    assert service.verify_legal()
    # Reads reflect the topology at their point in the stream; MIS
    # answers only ever contain live vertices.
    for res in report.results:
        if res.op.kind == "QUERY_MIS":
            assert res.mis == tuple(sorted(res.mis))
        if res.op.kind == "READ_NBRS":
            assert res.neighbors == tuple(sorted(res.neighbors))
    # Mutations report restabilization rounds, reads never do.
    assert all(
        (res.rounds is not None) == res.op.is_mutation
        for res in report.results if res.status == "ok"
    )


@pytest.mark.parametrize("algorithm", ["single", "two_channel"])
def test_deterministic_replay(algorithm):
    graph = _graph()
    cap = graph.max_degree() + 2
    outcomes = []
    for _ in range(2):
        ops = generate_ops("churn-heavy", 120, 5, graph, degree_cap=cap)
        service = MISService(
            graph, degree_cap=cap, seed=5, algorithm=algorithm
        )
        outcomes.append(service.run(ops).outcomes())
    assert outcomes[0] == outcomes[1]


def test_workload_generation_is_deterministic_and_valid():
    graph = _graph()
    cap = graph.max_degree() + 2
    a = generate_ops("burst", 200, 9, graph, degree_cap=cap)
    b = generate_ops("burst", 200, 9, graph, degree_cap=cap)
    assert a == b
    assert generate_ops("burst", 200, 10, graph, degree_cap=cap) != a
    # Every generated op applies cleanly (0 rejections).
    report = MISService(graph, degree_cap=cap, seed=9).run(a)
    assert report.summary()["rejected"] == 0
    with pytest.raises(ValueError, match="unknown workload"):
        generate_ops("nope", 1, 0, graph)


def test_metrics_on_off_byte_identity():
    graph = _graph()
    cap = graph.max_degree() + 2
    ops = generate_ops("read-heavy", 150, 2, graph, degree_cap=cap)
    bare = MISService(graph, degree_cap=cap, seed=2).run(ops)
    registry = MetricsRegistry()
    sink = InMemorySink()
    observed = MISService(
        graph, degree_cap=cap, seed=2, registry=registry, sink=sink
    ).run(ops)
    assert bare.outcomes() == observed.outcomes()
    # ... and the observers actually saw the stream.
    assert len(sink.records) == len(ops)
    snapshot = registry.snapshot()
    total = sum(
        row["value"] for row in snapshot["counters"]
        if row["name"] == "serve_ops_total"
    )
    assert total == len(ops)


def test_growth_extends_policy_and_stays_legal():
    graph = _graph(n=20)
    cap = graph.max_degree() + 2
    service = MISService(graph, degree_cap=cap, seed=0)
    for _ in range(4):  # no tombstones -> every add grows the id space
        result = service.apply(Op("ADD_NODE"))
        assert result.status == "ok"
    assert service.topology.num_vertices == 24
    new_id = 20
    assert service.apply(Op("ADD_EDGE", u=new_id, v=0)).status == "ok"
    assert service.verify_legal()
    # The new vertex is covered: in the MIS or dominated by a neighbor.
    mis = set(service.mis())
    assert new_id in mis or mis & set(service.topology.neighbors(new_id))


def _engine_answer(service):
    """The answer recomputed from the engine's current levels."""
    members = service._engine.mis_vertices()
    return tuple(sorted(v for v in members if service.topology.is_live(v)))


@pytest.mark.parametrize("mix", ["churn-heavy", "burst"])
@pytest.mark.parametrize("algorithm,channel", [
    ("single", None),
    ("two_channel", None),
    ("single", "lossy:0.05"),  # stressed: fused too
])
def test_served_mis_matches_engine_after_every_op(
    mix, algorithm, channel, fused_runs
):
    graph = _graph()
    cap = graph.max_degree() + 2
    ops = generate_ops(mix, 300, 4, graph, degree_cap=cap)
    service = MISService(
        graph, degree_cap=cap, seed=4, algorithm=algorithm, channel=channel,
    )
    seen = {"DEL_NODE": 0, "reuse": 0, "growth": 0}
    for op in ops:
        before = service.topology.num_vertices
        result = service.apply(op)
        assert result.status == "ok"
        if op.kind == "DEL_NODE":
            seen["DEL_NODE"] += 1
        elif op.kind == "ADD_NODE":
            seen["reuse" if result.node < before else "growth"] += 1
        assert service.mis() == _engine_answer(service)
    assert all(seen.values()), seen
    assert service.verify_legal()
    assert fused_runs
    assert set(fused_runs) == {service._engine._block._fused}


def test_reads_share_one_tuple_until_a_mutation():
    graph = _graph()
    service = MISService(graph, degree_cap=graph.max_degree(), seed=0)
    first = service.apply(Op("QUERY_MIS")).mis
    assert service.apply(Op("QUERY_MIS")).mis is first
    u, v = service.topology.edges()[0]
    assert service.apply(Op("ADD_EDGE", u=u, v=v)).status == "rejected"
    assert service.apply(Op("QUERY_MIS")).mis is first
    assert service.apply(Op("DEL_EDGE", u=u, v=v)).status == "ok"
    assert service.mis() == _engine_answer(service)


def test_serve_error_never_serves_the_pre_mutation_answer():
    graph = _graph()
    cap = graph.max_degree() + 2
    service = MISService(graph, degree_cap=cap, seed=0)
    before = service.mis()
    u, v = before[0], before[1]  # MIS members: never adjacent
    service._budget = 0  # no rounds: the new conflict cannot resolve
    with pytest.raises(ServeError):
        service.apply(Op("ADD_EDGE", u=u, v=v))
    served = service.mis()
    assert served != before
    assert served == _engine_answer(service)
    assert u not in served and v not in served
    assert not service.verify_legal()


def test_serve_error_turns_the_local_certificate_off():
    """After a ServeError the levels are not legal: the next mutation
    re-stabilizes in full even when it has no dirty row to check."""
    graph = _graph()
    cap = graph.max_degree() + 2
    service = MISService(graph, degree_cap=cap, seed=0)
    engine = service._engine
    runs = []
    run = engine.until_stable

    def until_stable(*args, **kwargs):
        runs.append(args)
        return run(*args, **kwargs)

    engine.until_stable = until_stable
    u, v, w = service.mis()[:3]  # MIS members: never adjacent
    assert service.apply(Op("DEL_NODE", v=w)).status == "ok"
    budget, service._budget = service._budget, 0
    with pytest.raises(ServeError):
        service.apply(Op("ADD_EDGE", u=u, v=v))
    service._budget = budget
    assert not service.verify_legal()
    runs.clear()
    # A recycled ADD_NODE has no dirty row: settled(()) holds trivially.
    result = service.apply(Op("ADD_NODE"))
    assert result.node == w and engine.settled(())
    assert len(runs) == 1 and result.rounds > 0
    assert service.verify_legal()
    assert service.mis() == _engine_answer(service)
    # Legal again, so the certificate is back on: a 0-round op runs nothing.
    runs.clear()
    assert service.apply(Op("DEL_NODE", v=w)).rounds == 0
    assert runs == []


@pytest.mark.parametrize("algorithm", ["single", "two_channel"])
def test_replaying_the_served_op_log_reproduces_the_service(algorithm):
    graph = _graph()
    cap = graph.max_degree() + 2
    ops = generate_ops("churn-heavy", 200, 6, graph, degree_cap=cap)
    u, v = graph.edges[0]
    ops[50:50] = [Op("ADD_EDGE", u=u, v=v), Op("DEL_NODE", v=10**6)]  # rejected
    served = MISService(graph, degree_cap=cap, seed=6, algorithm=algorithm)
    report = served.run(ops)
    log = [format_op(r.op) for r in report.results]
    replay = MISService(graph, degree_cap=cap, seed=6, algorithm=algorithm)
    replayed = replay.run(parse_ops(log))
    assert replayed.outcomes() == report.outcomes()
    assert sum(r.status == "rejected" for r in report.results) >= 2
    assert replay.mis() == served.mis()
    assert replay._served == served._served
    np.testing.assert_array_equal(replay._engine.levels, served._engine.levels)
    assert replay._engine.rng.bit_generator.state == served._engine.rng.bit_generator.state


def test_recycled_add_node_retags_the_served_mis():
    graph = _graph()
    service = MISService(graph, degree_cap=graph.max_degree() + 2, seed=0)
    v = next(x for x in range(graph.num_vertices) if x not in service.mis())
    assert service.apply(Op("DEL_NODE", v=v)).status == "ok"
    assert v not in service.apply(Op("QUERY_MIS")).mis
    result = service.apply(Op("ADD_NODE"))
    assert result.node == v and result.rounds == 0  # no dirty row
    # The revived id is isolated, at the floor: served from this version on.
    served = service.apply(Op("QUERY_MIS")).mis
    assert v in served
    assert service._served[0] == service.topology.version
    assert served == _engine_answer(service)


def test_incremental_beats_rebuild_at_n512():
    """The BENCH_serve acceptance claim: ≥3x median single-edge latency.

    Measured at the specified scale (n=512) on a short stream; the
    committed BENCH_serve.json records the full-stream numbers (~10x).
    """
    graph = erdos_renyi(512, 0.015, seed=0)
    cap = graph.max_degree() + 6
    ops = generate_ops("churn-heavy", 200, 0, graph, degree_cap=cap)

    def edge_median(rebuild):
        service = MISService(
            graph, degree_cap=cap, seed=0, rebuild_per_op=rebuild
        )
        report = service.run(ops)
        samples = [
            r.latency_s for r in report.results
            if r.status == "ok" and r.op.kind in ("ADD_EDGE", "DEL_EDGE")
        ]
        return float(np.median(samples))

    incremental = edge_median(False)
    rebuild = edge_median(True)
    assert rebuild >= 3.0 * incremental, (
        f"incremental {incremental * 1e6:.0f}µs vs rebuild "
        f"{rebuild * 1e6:.0f}µs — expected ≥3x"
    )


def test_cli_serve_smoke(tmp_path, capsys):
    from repro.cli import main

    ops_file = tmp_path / "ops.jsonl"
    json_file = tmp_path / "summary.json"
    rc = main([
        "serve", "--n", "48", "--workload", "burst", "--ops-count", "60",
        "--seed", "3", "--emit-ops", str(ops_file), "--json", str(json_file),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final MIS legal: yes" in out
    payload = json.loads(json_file.read_text())
    assert payload["legal"] is True
    assert payload["summary"]["ops"] == 60
    # Replaying the emitted stream from a file serves the same ops.
    rc = main([
        "serve", "--n", "48", "--seed", "3", "--ops", str(ops_file),
    ])
    assert rc == 0
    assert "served 60 ops" in capsys.readouterr().out
