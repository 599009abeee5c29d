"""The reference synchronous round engine for the beeping model.

This is the object-per-node, semantics-defining implementation: slow but
transparent.  The fast numpy engines in :mod:`repro.core.engines`
replicate its behaviour bit-for-bit (same seed → same trajectory) and are
tested against it.

Round structure (full-duplex beeping with collision detection):

1. every vertex ``v`` (in id order) receives one uniform draw and decides
   its beep pattern,
2. every vertex hears, per channel, the OR over its *neighbors'* beeps
   (its own beep is excluded — full duplex),
3. every vertex deterministically updates its state.

All three phases are synchronous: decisions in step 1 depend only on the
states at the start of the round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..devtools.seeding import SeedLike, resolve_rng
from ..graphs.graph import Graph
from .algorithm import BeepingAlgorithm, LocalKnowledge, NodeOutput
from .signals import Beeps

__all__ = ["RoundRecord", "BeepingNetwork"]


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one simulated round (for tracing/metrics)."""

    round_index: int
    #: Per-vertex transmitted patterns.
    sent: Tuple[Beeps, ...]
    #: Per-vertex heard patterns.
    heard: Tuple[Beeps, ...]

    def beep_count(self, channel: int = 0) -> int:
        """How many vertices beeped on ``channel`` this round."""
        return sum(1 for pattern in self.sent if pattern[channel])


class BeepingNetwork:
    """A synchronous anonymous beeping network executing one algorithm.

    Parameters
    ----------
    graph:
        The topology.
    algorithm:
        The anonymous node program (shared by all vertices — it is
        stateless; per-vertex state lives in the network).
    knowledge:
        Per-vertex :class:`LocalKnowledge`.  Must have length ``n``.
    seed:
        Seed or Generator for the per-round beep draws.
    initial_states:
        Optional explicit starting states; default is
        ``algorithm.fresh_state`` everywhere.  Pass the output of
        :meth:`randomize_states` (or use :mod:`repro.beeping.faults`) to
        start from arbitrary configurations.
    full_duplex:
        Reception model.  ``True`` (default) is the paper's model —
        "beeping with collision detection": a transmitting vertex still
        hears its neighbors' beeps.  ``False`` is the *half-duplex*
        variant, where a transmitting vertex hears nothing that round.
        Algorithm 1 provably needs full duplex (a solo beep is its
        membership certificate); the half-duplex mode exists to
        demonstrate that dependence (see ``bench_model_ablation``).
    """

    def __init__(
        self,
        graph: Graph,
        algorithm: BeepingAlgorithm,
        knowledge: Sequence[LocalKnowledge],
        seed: SeedLike = None,
        initial_states: Optional[Sequence[Any]] = None,
        full_duplex: bool = True,
    ):
        if len(knowledge) != graph.num_vertices:
            raise ValueError(
                f"knowledge has length {len(knowledge)}, "
                f"expected {graph.num_vertices}"
            )
        self.graph = graph
        self.algorithm = algorithm
        self.knowledge: Tuple[LocalKnowledge, ...] = tuple(knowledge)
        self._rng = resolve_rng(seed)
        if initial_states is None:
            self._states: List[Any] = [
                algorithm.fresh_state(k) for k in self.knowledge
            ]
        else:
            if len(initial_states) != graph.num_vertices:
                raise ValueError("initial_states has wrong length")
            self._states = list(initial_states)
        self.full_duplex = bool(full_duplex)
        # Wake-up model: dormant vertices neither beep, hear, nor update.
        # All awake by default; see repro.beeping.wakeup for schedules.
        self._awake = [True] * graph.num_vertices
        self._round = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """Number of completed rounds."""
        return self._round

    @property
    def states(self) -> Tuple[Any, ...]:
        """A snapshot of all vertex states (start-of-round values)."""
        return tuple(self._states)

    def set_states(self, states: Sequence[Any]) -> None:
        """Overwrite all vertex states (used by the fault injector)."""
        if len(states) != self.graph.num_vertices:
            raise ValueError("states has wrong length")
        self._states = list(states)

    def set_state(self, vertex: int, state: Any) -> None:
        """Overwrite one vertex's state (targeted fault)."""
        self._states[vertex] = state

    def outputs(self) -> Tuple[NodeOutput, ...]:
        """Per-vertex MIS decisions for the current states."""
        return tuple(
            self.algorithm.output(s, k)
            for s, k in zip(self._states, self.knowledge)
        )

    def mis_vertices(self) -> frozenset:
        """Vertices currently reporting ``IN_MIS``."""
        return self.algorithm.mis_vertices(self._states, self.knowledge)

    def is_legal(self) -> bool:
        """Whether the current configuration satisfies the algorithm's
        legality predicate (i.e. the run has stabilized)."""
        return self.algorithm.is_legal_configuration(
            self.graph, self._states, self.knowledge
        )

    def randomize_states(self) -> None:
        """Replace every state by a uniformly random one (full corruption)."""
        self._states = [
            self.algorithm.random_state(k, self._rng) for k in self.knowledge
        ]

    # ------------------------------------------------------------------
    # Wake-up model (adversarial activation schedules)
    # ------------------------------------------------------------------
    @property
    def awake(self) -> Tuple[bool, ...]:
        """Per-vertex awake flags.  A *dormant* vertex transmits nothing,
        hears nothing, and does not update its state — the activation
        model of Afek et al.'s lower-bound setting, where an adversary
        chooses wake-up rounds."""
        return tuple(self._awake)

    def set_awake(self, vertex: int, awake: bool = True) -> None:
        """Wake (or suspend) a single vertex."""
        self._awake[vertex] = bool(awake)

    def set_all_awake(self, awake: bool = True) -> None:
        """Wake or suspend every vertex at once."""
        self._awake = [bool(awake)] * self.graph.num_vertices

    def all_awake(self) -> bool:
        return all(self._awake)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> RoundRecord:
        """Execute one synchronous round and return its record."""
        n = self.graph.num_vertices
        algorithm = self.algorithm
        num_channels = algorithm.num_channels

        # Phase 1: beep decisions, one uniform per vertex in id order.
        # Drawing all n uniforms in a single call keeps the stream
        # identical to the vectorized engine's ``rng.random(n)``.
        draws = self._rng.random(n)
        silent = (False,) * num_channels
        sent: List[Beeps] = [
            algorithm.beeps(self._states[v], self.knowledge[v], float(draws[v]))
            if self._awake[v]
            else silent
            for v in range(n)
        ]
        for v, pattern in enumerate(sent):
            if len(pattern) != num_channels:
                raise ValueError(
                    f"vertex {v} produced a {len(pattern)}-channel pattern; "
                    f"algorithm declares {num_channels} channels"
                )

        # Phase 2: reception — OR over neighbors, own beep excluded.
        # In half-duplex mode a transmitting vertex is deaf this round.
        heard: List[Beeps] = []
        silence = (False,) * num_channels
        for v in range(n):
            if not self._awake[v]:
                heard.append(silence)  # dormant vertices are deaf
                continue
            if not self.full_duplex and any(sent[v]):
                heard.append(silence)
                continue
            bits = [False] * num_channels
            for w in self.graph.neighbors(v):
                pattern = sent[w]
                for c in range(num_channels):
                    if pattern[c]:
                        bits[c] = True
            heard.append(tuple(bits))

        # Phase 3: synchronous updates (same per-vertex draw as phase 1).
        # Dormant vertices keep their state frozen.
        self._states = [
            algorithm.step(
                self._states[v], sent[v], heard[v], self.knowledge[v],
                u=float(draws[v]),
            )
            if self._awake[v]
            else self._states[v]
            for v in range(n)
        ]
        record = RoundRecord(
            round_index=self._round, sent=tuple(sent), heard=tuple(heard)
        )
        self._round += 1
        return record

    def run(self, rounds: int) -> List[RoundRecord]:
        """Execute ``rounds`` rounds and return their records."""
        return [self.step() for _ in range(rounds)]
