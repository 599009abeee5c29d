"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest -q bench``."""

from __future__ import annotations

import json
import os
import re
from dataclasses import replace

import pytest

from bench import oracle
from bench.hostspeed import HostSpeed
from bench.measure import END_TO_END_UNITS, _Tally, make_runner, run_workload
from bench.run import report_lines
from bench.trace import PER_LAYER, NullTracer, Tracer, install_layers
from bench.workloads import SPECS, WORKLOAD_NAMES, SweepSpec, build_inputs

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def small(name):
    """The workload at n=64, so a whole run takes a fraction of a second."""
    spec = SPECS[name]
    if isinstance(spec, SweepSpec):
        groups = tuple(
            replace(g, n=64, replicas=4, graphs=min(g.graphs, 2)) for g in spec.groups
        )
        return replace(spec, groups=groups)
    return replace(spec, n=64, ops=60)


def declared():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        doc = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_inputs_depend_only_on_the_seed(name):
    from repro.serve import parse_op

    spec = small(name)
    first, again, other = (build_inputs(spec, s) for s in (3, 3, 4))
    assert first == again
    assert first != other
    for line in getattr(first, "lines", ()):
        parse_op(line)  # the program accepts every generated op


def test_oracle_rejects_a_corrupted_mis():
    from repro.graphs import generators

    graph = generators.by_name("er", 64, seed=5)
    members = set()
    for v in graph.vertices():  # greedy: a maximal independent set
        if not members.intersection(graph.neighbors(v)):
            members.add(v)
    assert oracle.mis_problems(graph.vertices(), graph.neighbors, members) == []
    dropped = members - {min(members)}
    assert oracle.mis_problems(graph.vertices(), graph.neighbors, dropped)
    u, v = next((u, v) for u, v in graph.edges if u in members)
    adjacent = members | {v}
    assert oracle.mis_problems(graph.vertices(), graph.neighbors, adjacent)


def test_failures_count_in_attempted_units():
    serve = make_runner(small("serve-read"), 1)
    serve.setup(prime=True)
    done = serve.run_pass(NullTracer(), HostSpeed("interpreter"))
    index = next(i for i, o in enumerate(done.outputs) if "neighbors" in o)
    done.outputs[index] = {**done.outputs[index], "neighbors": [-1]}
    tally = _Tally(serve)
    tally.first(done, serve.check(done))
    assert (tally.attempted, tally.failed) == (len(serve.inputs.lines), 1)

    sweep = make_runner(small("sweep-stress"), 1)
    sweep.setup(prime=True)
    done = sweep.run_pass(NullTracer(), HostSpeed("interpreter"))
    done.outputs[0] = []  # as when a replica of cell 0 did not stabilize
    tally = _Tally(sweep)
    tally.first(done, sweep.check(done))
    assert (tally.attempted, tally.failed) == (sum(sweep.units()), sweep.units()[0])


def test_tracer_restores_every_patched_attribute():
    with Tracer() as tracer:
        install_layers(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


def test_child_self_times_fit_inside_the_parent_span():
    runner = make_runner(small("sweep-stress"), 2)
    with Tracer() as tracer:
        install_layers(tracer)
        with tracer.span("bench.iteration"):
            with tracer.span("bench.setup"):
                runner.setup(prime=True)
            with tracer.span("bench.pass"):
                runner.run_pass(tracer, HostSpeed("interpreter"))
    spans = tracer.spans
    children = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def subtree_self(span):
        own = span["self_s"] + sum(t for t, _ in span["agg"].values())
        return own + sum(subtree_self(c) for c in children[span["id"]])

    for span in spans:
        duration = span["end"] - span["start"]
        assert span["self_s"] >= -1e-9
        inside = subtree_self(span) - span["self_s"]
        assert inside <= duration + 1e-9
        assert subtree_self(span) == pytest.approx(duration, abs=1e-6)
    assert any(s["name"] == "sweep.cell" for s in spans)
    assert tracer.totals["engines.step"][1] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(trace):
    end_to_end, per_layer = declared()
    assert END_TO_END_UNITS == end_to_end
    expected = per_layer if trace else end_to_end
    result = run_workload(small("serve-read"), seed=1, seconds=0.01, trace=trace)
    lines = report_lines(result, 0.01)
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert all(NAME.match(name) for name in printed)
    assert set(printed) == set(expected)
    contract = json.loads(lines[-1])
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in contract["metrics"].items()} == expected


def test_per_layer_table_matches_benchmark_json():
    _, per_layer = declared()
    table = {name: unit for name, unit, _ in PER_LAYER}
    table["trace.overhead_pct"] = "%"
    assert table == per_layer


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_each_workload_passes_its_oracle_at_n64(name):
    result = run_workload(small(name), seed=7, seconds=0.01)
    assert result.correct, result.problems
    assert result.attempted >= 1 and result.failed == 0
    assert all(value > 0 for value, _ in result.metrics.values())
    assert len(result.info["outputs_sha256"]) == 64
