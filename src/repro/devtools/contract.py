"""Runtime engine-contract verification.

The static RPR4xx lint rules catch contract drift syntactically; this
module checks the same contract *behaviorally*, by inspecting and
actually running registered backends on a tiny fixture graph:

* :func:`verify_backend` — a registered backend callable has the
  uniform ``(graph, policy, variant, seed, max_rounds,
  arbitrary_start)`` signature, returns an outcome exposing
  ``stabilized`` / ``rounds`` / ``mis``, produces a valid MIS when it
  stabilizes, and never mutates the input :class:`Graph`.
* :func:`verify_registry` — every registered backend, in one sweep.

Each function returns a list of human-readable problems (empty = pass),
so tests can assert emptiness and ``repro check`` can print specifics.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List

from ..core.engines.registry import EngineBackend, available_engines, get_engine
from ..core.knowledge import EllMaxPolicy, max_degree_policy
from ..graphs.graph import Graph
from ..graphs.mis import is_maximal_independent_set

__all__ = [
    "BACKEND_PARAMS",
    "verify_backend",
    "verify_registry",
]

#: The uniform backend signature, in order (see registry module docstring).
BACKEND_PARAMS = (
    "graph",
    "policy",
    "variant",
    "seed",
    "max_rounds",
    "arbitrary_start",
)

#: Fixture: a 5-cycle plus one chord — small enough for the reference
#: engine, non-trivial enough that an MIS needs at least two vertices.
_FIXTURE_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3))


def _fixture() -> "tuple[Graph, EllMaxPolicy]":
    graph = Graph(5, _FIXTURE_EDGES)
    return graph, max_degree_policy(graph)


def _signature_problems(run: Callable[..., Any], name: str) -> List[str]:
    try:
        signature = inspect.signature(run)
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return []
    names = [
        p.name
        for p in signature.parameters.values()
        if p.kind
        in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        )
    ]
    if tuple(names[: len(BACKEND_PARAMS)]) != BACKEND_PARAMS:
        return [
            f"backend {name!r} signature {tuple(names)} does not start "
            f"with the uniform parameters {BACKEND_PARAMS}"
        ]
    return []


def verify_backend(backend: EngineBackend, max_rounds: int = 2000) -> List[str]:
    """Problems with a registered backend (empty = conformant).

    Runs the backend on the fixture graph from a legal-seed start and
    checks the outcome surface, MIS validity, and Graph immutability.
    """
    problems = _signature_problems(backend.run, backend.name)
    graph, policy = _fixture()
    pristine = Graph(graph.num_vertices, graph.edges)
    try:
        outcome = backend.run(graph, policy, "single", 7, max_rounds, True)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        problems.append(f"backend {backend.name!r} raised {exc!r} on fixture run")
        return problems
    for attribute in ("stabilized", "rounds", "mis"):
        if not hasattr(outcome, attribute):
            problems.append(
                f"backend {backend.name!r} outcome lacks .{attribute}"
            )
    if hasattr(outcome, "stabilized") and hasattr(outcome, "mis"):
        if outcome.stabilized and not is_maximal_independent_set(
            graph, set(outcome.mis)
        ):
            problems.append(
                f"backend {backend.name!r} stabilized on an invalid MIS "
                f"{sorted(outcome.mis)}"
            )
        if not outcome.stabilized:
            problems.append(
                f"backend {backend.name!r} failed to stabilize the fixture "
                f"graph within {max_rounds} rounds"
            )
    if graph != pristine:
        problems.append(f"backend {backend.name!r} mutated the input Graph")
    return problems


def verify_registry(max_rounds: int = 2000) -> Dict[str, List[str]]:
    """Map every registered backend name to its problem list."""
    return {
        name: verify_backend(get_engine(name), max_rounds=max_rounds)
        for name in available_engines()
    }
