"""Engine-backend registry: the named execution backends, one semantics.

The high-level entry points (:func:`repro.core.runner.compute_mis`, the
CLI) dispatch on an engine *name* rather than on hard-coded ``if``
chains.  A backend is a callable with the uniform signature

    run(graph, policy, variant, seed, max_rounds, arbitrary_start,
        collector=None, channel=None, scheduler=None)
        -> outcome with .stabilized / .rounds / .mis

(``collector`` is an optional trailing zero-perturbation observer — see
:func:`repro.obs.collector_for_backend` for the shape each backend
expects; ``channel`` / ``scheduler`` select the stress models of
:mod:`repro.beeping.channels` / :mod:`repro.beeping.schedulers`,
``None`` meaning the byte-identical perfect/synchronous defaults; the
contract checker only pins the six leading parameters.)

The backends (a literal table, :data:`_REGISTRY`):

* ``"vectorized"`` — the numpy/scipy solo engines (default, fast).
* ``"reference"``  — the semantics-defining object-per-node engine.
* ``"batched"``    — :class:`~repro.core.engines.batched.BatchedEngine`
  with one replica (useful to exercise the batched code path end to
  end; its seed stream differs from ``"vectorized"`` because the seed
  is spawned through a ``SeedSequence`` child).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple

from .batched import simulate_batched
from .single import SingleChannelEngine
from .two_channel import TwoChannelEngine

if TYPE_CHECKING:
    from ...devtools.seeding import SeedLike
    from ...graphs.graph import Graph
    from ..knowledge import EllMaxPolicy

__all__ = [
    "EngineBackend",
    "get_engine",
    "available_engines",
]

#: Uniform backend signature (see module docstring).
BackendRunner = Callable[..., Any]


@dataclass(frozen=True)
class EngineBackend:
    """A named execution backend."""

    name: str
    run: BackendRunner
    description: str = ""


def get_engine(name: str) -> EngineBackend:
    """Look up a backend; raises ``ValueError`` naming the alternatives."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def available_engines() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
def _run_vectorized(
    graph: "Graph",
    policy: "EllMaxPolicy",
    variant: str,
    seed: "SeedLike",
    max_rounds: int,
    arbitrary_start: bool,
    collector: Any = None,
    channel: Any = None,
    scheduler: Any = None,
) -> Any:
    engine_cls = TwoChannelEngine if variant == "two_channel" else SingleChannelEngine
    return engine_cls.simulate(
        graph, policy, seed, max_rounds, arbitrary_start=arbitrary_start,
        collector=collector, channel=channel, scheduler=scheduler,
    )


def _run_reference(
    graph: "Graph",
    policy: "EllMaxPolicy",
    variant: str,
    seed: "SeedLike",
    max_rounds: int,
    arbitrary_start: bool,
    collector: Any = None,
    channel: Any = None,
    scheduler: Any = None,
) -> Any:
    if channel is not None and channel != "perfect":
        raise ValueError("the reference engine has no channel-model choice")
    if scheduler is not None and scheduler != "synchronous":
        raise ValueError("the reference engine has no scheduler choice")
    # Imported lazily: the reference engine lives outside repro.core and
    # pulling it in here at import time would cycle through repro.beeping.
    from ...beeping.faults import random_states
    from ...beeping.network import BeepingNetwork
    from ...beeping.simulator import run_until_stable
    from ...devtools.seeding import resolve_rng
    from ..algorithm_single import SelfStabilizingMIS
    from ..algorithm_two_channel import TwoChannelMIS

    algorithm = TwoChannelMIS() if variant == "two_channel" else SelfStabilizingMIS()
    knowledge = policy.knowledge(graph)
    rng = resolve_rng(seed)
    initial = random_states(algorithm, knowledge, rng) if arbitrary_start else None
    network = BeepingNetwork(
        graph, algorithm, knowledge, seed=rng, initial_states=initial
    )
    return run_until_stable(network, max_rounds=max_rounds, collector=collector)


def _run_batched(
    graph: "Graph",
    policy: "EllMaxPolicy",
    variant: str,
    seed: "SeedLike",
    max_rounds: int,
    arbitrary_start: bool,
    collector: Any = None,
    channel: Any = None,
    scheduler: Any = None,
) -> Any:
    algorithm = "two_channel" if variant == "two_channel" else "single"
    return simulate_batched(
        graph, policy, replicas=1, seed=seed, algorithm=algorithm,
        max_rounds=max_rounds, arbitrary_start=arbitrary_start,
        collector=collector, channel=channel, scheduler=scheduler,
    )[0]


_REGISTRY: Dict[str, EngineBackend] = {
    "vectorized": EngineBackend(
        "vectorized", _run_vectorized, "numpy/scipy solo engines (fast, default)"
    ),
    "reference": EngineBackend(
        "reference", _run_reference,
        "object-per-node semantics-defining engine (slow, exact)",
    ),
    "batched": EngineBackend(
        "batched", _run_batched, "multi-replica (R, n) engine; one hear per round"
    ),
}
