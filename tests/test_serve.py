"""The serving stack: op format, MutableTopology, MISService, determinism.

Covers the contracts ``docs/serving.md`` documents:

* strict op parsing (bad JSON / unknown ops / wrong fields fail loudly,
  semantic failures are *rejections*, not parse errors);
* degree-cap (ℓmax-validity) enforcement — a rejected op leaves both
  topology and engine untouched;
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

from repro.core.engines import BatchedEngine
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


@pytest.mark.parametrize("algorithm,engine", [
    ("single", "vectorized"),
    ("two_channel", "vectorized"),
    ("single", "batched"),
])
def test_deterministic_replay(algorithm, engine):
    graph = _graph()
    cap = graph.max_degree() + 2
    outcomes = []
    for _ in range(2):
        ops = generate_ops("churn-heavy", 120, 5, graph, degree_cap=cap)
        service = MISService(
            graph, degree_cap=cap, seed=5, algorithm=algorithm, engine=engine
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
    engine = service._engine
    if isinstance(engine, BatchedEngine):
        members = engine.mis_vertices(0)
    else:
        members = engine.mis_vertices()
    return tuple(sorted(v for v in members if service.topology.is_live(v)))


@pytest.mark.parametrize("mix", ["churn-heavy", "burst"])
@pytest.mark.parametrize("algorithm,engine,channel", [
    ("single", "vectorized", None),
    ("two_channel", "vectorized", None),
    ("single", "batched", None),
    ("single", "vectorized", "lossy:0.05"),  # stressed: fused too
])
def test_served_mis_matches_engine_after_every_op(
    mix, algorithm, engine, channel, fused_runs
):
    graph = _graph()
    cap = graph.max_degree() + 2
    ops = generate_ops(mix, 300, 4, graph, degree_cap=cap)
    service = MISService(
        graph, degree_cap=cap, seed=4, algorithm=algorithm, engine=engine,
        channel=channel,
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
    assert set(fused_runs) == {service._engine._fused}


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
