"""Independent correctness checks for every benchmark output.

Nothing here trusts the program's own validators: MIS legality is checked
directly on the input graph (sweeps) or on the bench's shadow topology
(serve), and each sweep cell's replica 0 is replayed through the solo
engine on the seed the documented sweep seed tree gives it.  The checks
run after a pass, outside its timed region.  Each function returns a list
of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .workloads import ServeInputs, ShadowTopology, SweepCall

__all__ = [
    "digest",
    "mis_problems",
    "check_sweep_call",
    "check_serve_outcomes",
]


def digest(outputs: object) -> str:
    """``sha256`` of the canonical JSON encoding of ``outputs``."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mis_problems(
    vertices: Iterable[int],
    neighbors: Callable[[int], Iterable[int]],
    members: Iterable[int],
) -> List[str]:
    """Why ``members`` is not a maximal independent set over ``vertices``.

    ``neighbors(v)`` lists ``v``'s neighbors; every neighbor of a vertex
    in ``vertices`` must itself be in ``vertices``.
    """
    universe = set(vertices)
    chosen = set(members)
    problems = [f"vertex {v} is not in the graph" for v in sorted(chosen - universe)]
    for v in sorted(universe):
        hits = chosen.intersection(neighbors(v))
        if v in chosen and hits:
            problems.append(f"members {v} and {min(hits)} are adjacent")
        elif v not in chosen and not hits:
            problems.append(f"vertex {v} has no member in its closed neighborhood")
        if len(problems) >= 5:
            break
    return problems


def check_sweep_call(call: SweepCall, samples: Sequence[float]) -> List[str]:
    """Check the samples of one ``run_sweep`` call (one cell).

    Replica 0 is re-run through the solo engine, seeded as the sweep
    seed tree documents (``SeedSequence(master).spawn(1)[0]
    .spawn(replicas)[0]``): its round count must equal the batched
    sample and its MIS must be legal on the cell's graph.
    """
    from repro.analysis import StabilizationRounds, graph_for_config
    from repro.core.engines import simulate_single, simulate_two_channel
    from repro.core.runner import policy_for_variant

    group = call.group
    config = call.config()
    label = f"{group.variant} n={group.n} graph_seed={call.graph_seed}"
    if len(samples) != group.replicas:
        return [f"{label}: {len(samples)} samples for {group.replicas} replicas"]
    problems: List[str] = []
    if any(s < 0 or s != int(s) for s in samples):
        problems.append(f"{label}: a sample is not a round count")
    graph = graph_for_config(config)
    (config_seq,) = np.random.SeedSequence(call.master_seed).spawn(1)
    simulate = simulate_two_channel if group.variant == "two_channel" else simulate_single
    outcome = simulate(
        graph,
        policy_for_variant(graph, group.variant),
        seed=np.random.default_rng(config_seq.spawn(group.replicas)[0]),
        max_rounds=StabilizationRounds().max_rounds,
        arbitrary_start=True,
        channel=group.channel,
        scheduler=group.scheduler,
    )
    if not outcome.stabilized:
        return problems + [f"{label}: solo replay of replica 0 did not stabilize"]
    if outcome.rounds != samples[0]:
        problems.append(
            f"{label}: replica 0 took {samples[0]} rounds batched, {outcome.rounds} solo"
        )
    problems += [
        f"{label}: {p}" for p in mis_problems(graph.vertices(), graph.neighbors, outcome.mis)
    ]
    return problems


def check_serve_outcomes(
    inputs: ServeInputs,
    outcomes: Sequence[Dict[str, object]],
    final_mis: Sequence[int],
) -> List[Tuple[int, str]]:
    """Check every op answer of one full pass, then the final MIS.

    The op stream is replayed on a fresh :class:`ShadowTopology`: each
    op must be accepted, READ_NBRS must return the shadow's neighbor
    list, QUERY_MIS a maximal independent set of the live graph as of
    that op, and ADD_NODE the id the tombstone-reuse rule assigns.  An
    op left unanswered fails.  The final MIS is the answer as of the
    last op, so its problems count against that op.

    Returns ``(op index, problem)`` pairs.
    """
    shadow = ShadowTopology(inputs.n, inputs.edges, inputs.degree_cap)
    problems: List[Tuple[int, str]] = []
    for index, (line, outcome) in enumerate(zip(inputs.lines, outcomes)):
        record = json.loads(line)
        kind = record["op"]
        where = f"op {index} {line}"
        if outcome["status"] != "ok":
            problems.append((index, f"{where}: rejected ({outcome.get('error')})"))
        elif kind == "READ_NBRS":
            if tuple(outcome["neighbors"]) != shadow.neighbors(record["v"]):  # type: ignore[arg-type]
                problems.append((index, f"{where}: wrong neighbor list"))
        elif kind == "QUERY_MIS":
            bad = mis_problems(
                shadow.live_vertices(), shadow.adj.__getitem__, outcome["mis"]  # type: ignore[arg-type]
            )
            if bad:
                problems.append((index, f"{where}: {bad[0]}"))
        assigned = shadow.apply(record)
        if outcome["status"] == "ok" and kind == "ADD_NODE" and outcome["node"] != assigned:
            problems.append(
                (index, f"{where}: assigned id {outcome.get('node')}, expected {assigned}")
            )
    problems += [
        (index, f"op {index} {inputs.lines[index]}: not answered")
        for index in range(len(outcomes), len(inputs.lines))
    ]
    if len(outcomes) == len(inputs.lines):
        last = len(inputs.lines) - 1
        bad = mis_problems(shadow.live_vertices(), shadow.adj.__getitem__, final_mis)
        problems += [(last, f"final MIS: {p}") for p in bad]
    return problems
