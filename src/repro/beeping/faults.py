"""Transient-fault injection (the paper's RAM-corruption model).

Fault model (paper §1.1): node state lives in RAM and can be corrupted by
transient faults; code lives in ROM and cannot.  Self-stabilization is
measured over the *fault-free suffix* after the last corruption.  The
injectors below therefore mutate the state vector of a prepared network
(or produce an initial state vector) and leave everything else alone.

Three classes of corruption are provided:

* random — every targeted vertex gets a uniformly random state from the
  algorithm's state universe (the canonical "arbitrary configuration"),
* adversarial — structured worst-case patterns (everything at ``ℓmax``,
  everything prominent, a *fake MIS* that is not independent, ...),
* partial — Bernoulli(ρ) per-vertex corruption, interpolating between a
  single bit flip and full randomization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

from ..devtools.seeding import SeedLike, resolve_rng
from .algorithm import BeepingAlgorithm, LocalKnowledge
from .network import BeepingNetwork

__all__ = [
    "Fault",
    "RandomCorruption",
    "BernoulliCorruption",
    "TargetedCorruption",
    "AdversarialPattern",
    "FaultSchedule",
    "FAULT_SPECS",
    "fault_from_spec",
    "random_states",
]

def random_states(
    algorithm: BeepingAlgorithm,
    knowledge: Sequence[LocalKnowledge],
    seed: SeedLike = None,
) -> List[Any]:
    """A fully random state vector — the canonical arbitrary start."""
    rng = resolve_rng(seed)
    return [algorithm.random_state(k, rng) for k in knowledge]


class Fault:
    """A state-corrupting event that can be applied to a network.

    Two application surfaces:

    * :meth:`apply` — the object-engine path (a
      :class:`BeepingNetwork`'s per-node state list),
    * :meth:`apply_levels` — the array-engine path (an
      :class:`~repro.core.engines.base.EngineBase`-style level vector),
      drawing from the same distributions as :meth:`apply`.
    """

    def apply(self, network: BeepingNetwork, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def apply_levels(self, engine: Any, rng: np.random.Generator) -> None:
        """Corrupt an array engine's level vector in place.

        ``engine`` is any level-array engine (``levels`` / ``ell_max`` /
        ``_floor_vector()``), not the two-state tag (floor above ℓmax).
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no level-array form"
        )


def _level_universe(engine: Any) -> Tuple[np.ndarray, np.ndarray]:
    """``(floor, span)`` of an engine's per-vertex state universe."""
    floor = engine._floor_vector()
    return floor, engine.ell_max - floor + 1


@dataclass
class RandomCorruption(Fault):
    """Replace *every* vertex's state with a uniformly random one."""

    def apply(self, network: BeepingNetwork, rng: np.random.Generator) -> None:
        network.set_states(
            random_states(network.algorithm, network.knowledge, rng)
        )

    def apply_levels(self, engine: Any, rng: np.random.Generator) -> None:
        floor, span = _level_universe(engine)
        engine.levels = rng.integers(0, span, size=engine.n).astype(np.int64) + floor


@dataclass
class BernoulliCorruption(Fault):
    """Each vertex is independently corrupted with probability ``rho``."""

    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0,1], got {self.rho}")

    def apply(self, network: BeepingNetwork, rng: np.random.Generator) -> None:
        hits = rng.random(network.graph.num_vertices) < self.rho
        for v in np.nonzero(hits)[0]:
            v = int(v)
            network.set_state(
                v, network.algorithm.random_state(network.knowledge[v], rng)
            )

    def apply_levels(self, engine: Any, rng: np.random.Generator) -> None:
        # A Bernoulli hit vector, then a full fresh vector (drawn for
        # every vertex so the stream layout is data-independent).
        hits = rng.random(engine.n) < self.rho
        floor, span = _level_universe(engine)
        fresh = rng.integers(0, span, size=engine.n).astype(np.int64) + floor
        engine.levels = np.where(hits, fresh, engine.levels)


@dataclass
class TargetedCorruption(Fault):
    """Corrupt an explicit set of vertices (random replacement states)."""

    vertices: Tuple[int, ...]

    def apply(self, network: BeepingNetwork, rng: np.random.Generator) -> None:
        for v in self.vertices:
            network.set_state(
                v, network.algorithm.random_state(network.knowledge[v], rng)
            )

    def apply_levels(self, engine: Any, rng: np.random.Generator) -> None:
        idx = np.asarray(self.vertices, dtype=np.int64)
        floor, span = _level_universe(engine)
        fresh = rng.integers(0, span[idx]).astype(np.int64) + floor[idx]
        levels = engine.levels.copy()
        levels[idx] = fresh
        engine.levels = levels


@dataclass
class AdversarialPattern(Fault):
    """Set every vertex's state via a user function of its knowledge.

    ``pattern(vertex, knowledge) -> state``.  The named constructors
    cover the worst-case patterns used in EXPERIMENTS.md (E5):

    * :meth:`all_silent` — every vertex at ``ℓmax`` (the "everyone thinks
      a neighbor is in the MIS" deadlock attempt),
    * :meth:`all_prominent` — every vertex believes it just joined the
      MIS (level ``-ℓmax``), the maximally-conflicting fake MIS,
    * :meth:`threshold` — every vertex one step from giving up.

    These constructors assume the integer-level state universe of the
    core algorithms (:mod:`repro.core`); they are not meaningful for the
    baselines.
    """

    pattern: Callable[[int, LocalKnowledge], Any]
    name: str = "custom"

    def apply(self, network: BeepingNetwork, rng: np.random.Generator) -> None:
        network.set_states(
            [
                self.pattern(v, network.knowledge[v])
                for v in range(network.graph.num_vertices)
            ]
        )

    def apply_levels(self, engine: Any, rng: np.random.Generator) -> None:
        # Only the named constructors have an array form — a custom
        # ``pattern`` callable is phrased over per-node knowledge
        # objects the array engines don't materialize.
        if self.name == "all_silent":
            engine.levels = engine.ell_max.copy()
        elif self.name == "all_prominent":
            engine.levels = engine._floor_vector().copy()
        elif self.name == "threshold":
            engine.levels = engine.ell_max - 1
        else:
            raise NotImplementedError(
                f"adversarial pattern {self.name!r} has no level-array form"
            )

    @classmethod
    def all_silent(cls) -> "AdversarialPattern":
        return cls(lambda v, k: k.ell_max, name="all_silent")

    @classmethod
    def all_prominent(cls) -> "AdversarialPattern":
        return cls(lambda v, k: -k.ell_max, name="all_prominent")

    @classmethod
    def threshold(cls) -> "AdversarialPattern":
        return cls(lambda v, k: k.ell_max - 1, name="threshold")


#: Spec strings understood by :func:`fault_from_spec` (``bernoulli``
#: takes a ``:RHO`` suffix).
FAULT_SPECS = ("random", "bernoulli:RHO", "all_silent", "all_prominent", "threshold")


def fault_from_spec(spec: str) -> Fault:
    """Parse a CLI/config fault spec string into a :class:`Fault`.

    Accepted forms: ``random``, ``bernoulli:RHO`` (ρ ∈ [0, 1]),
    ``all_silent``, ``all_prominent``, ``threshold``.
    """
    if spec == "random":
        return RandomCorruption()
    if spec.startswith("bernoulli:"):
        return BernoulliCorruption(float(spec.split(":", 1)[1]))
    if spec == "all_silent":
        return AdversarialPattern.all_silent()
    if spec == "all_prominent":
        return AdversarialPattern.all_prominent()
    if spec == "threshold":
        return AdversarialPattern.threshold()
    raise ValueError(
        f"unknown fault spec {spec!r}; accepted: {', '.join(FAULT_SPECS)}"
    )


@dataclass
class FaultSchedule:
    """A sequence of timed faults driven alongside a simulation.

    ``events`` maps round indices to faults; :meth:`maybe_fire` (object
    engines) / :meth:`maybe_fire_engine` (array engines) is called once
    per round *before* the round executes.  The stabilization clock in
    the experiments is restarted after the last event, matching the
    fault-free-suffix convention.

    Ordering vs. the stress models (pinned; see ``docs/robustness.md``
    and the regression test in ``tests/test_faults.py``): a fault at
    round ``t`` corrupts RAM **before** round ``t`` executes, so inside
    the round the scheduler's activity gate, the fresh beeps (computed
    from the *corrupted* levels for active vertices — delayed vertices
    keep their stale carriers), the hear matvec, and finally the channel
    perturbation all see the post-fault state.  Faults are therefore
    applied before channel noise, never to the hear vector itself —
    RAM corruption is a state event, not a communication event.
    """

    events: Tuple[Tuple[int, Fault], ...]

    def __post_init__(self):
        self.events = tuple(sorted(self.events, key=lambda e: e[0]))

    @property
    def last_fault_round(self) -> int:
        """Round index of the final scheduled fault (-1 when empty)."""
        return self.events[-1][0] if self.events else -1

    def maybe_fire(
        self, round_index: int, network: BeepingNetwork, rng: np.random.Generator
    ) -> bool:
        """Apply all faults scheduled for ``round_index``; report if any."""
        fired = False
        for when, fault in self.events:
            if when == round_index:
                fault.apply(network, rng)
                fired = True
        return fired

    def maybe_fire_engine(
        self,
        round_index: int,
        engine: Any,
        rng: np.random.Generator = None,
    ) -> bool:
        """Array-engine twin of :meth:`maybe_fire`.

        Applies all faults scheduled for ``round_index`` to the engine's
        level vector (``rng`` defaults to the engine's own stream —
        note that consuming it perturbs the subsequent trajectory
        exactly as the reference path's shared-stream convention does).
        """
        if rng is None:
            rng = engine.rng
        fired = False
        for when, fault in self.events:
            if when == round_index:
                fault.apply_levels(engine, rng)
                fired = True
        return fired

    def run_with_engine(
        self,
        engine: Any,
        max_rounds: int,
        rng: np.random.Generator = None,
    ) -> Tuple[bool, int]:
        """Drive an array engine through the schedule, then to legality.

        Mirrors :meth:`run_with_faults` round for round: faults fire
        *before* their round executes (the pinned fault-before-channel
        ordering above), and ``recovery_rounds`` counts the fault-free
        suffix after the last scheduled event.
        """
        if rng is None:
            rng = engine.rng
        executed = 0
        # Phase 1: execute through the faulty prefix.
        while executed <= self.last_fault_round:
            self.maybe_fire_engine(executed, engine, rng)
            if executed == self.last_fault_round:
                break
            engine.step()
            executed += 1
        # Phase 2: fault-free suffix, measured.
        recovery = 0
        budget = max_rounds - executed
        while recovery <= budget:
            if engine.is_legal():
                return True, recovery
            if recovery == budget:
                break
            engine.step()
            recovery += 1
        return False, recovery

    def run_with_faults(
        self,
        network: BeepingNetwork,
        max_rounds: int,
        seed: SeedLike = None,
    ) -> Tuple[bool, int]:
        """Drive the network through the schedule, then to stabilization.

        Returns ``(stabilized, recovery_rounds)`` where
        ``recovery_rounds`` counts fault-free rounds after the last
        scheduled fault.  ``max_rounds`` bounds the *total* execution.
        """
        rng = resolve_rng(seed)
        executed = 0
        # Phase 1: execute through the faulty prefix.
        while executed <= self.last_fault_round:
            self.maybe_fire(executed, network, rng)
            if executed == self.last_fault_round:
                break
            network.step()
            executed += 1
        # Phase 2: fault-free suffix, measured.
        recovery = 0
        budget = max_rounds - executed
        while recovery <= budget:
            if network.is_legal():
                return True, recovery
            if recovery == budget:
                break
            network.step()
            recovery += 1
        return False, recovery
