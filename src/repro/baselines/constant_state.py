"""A two-state self-stabilizing beeping MIS (reference [16] style).

The paper cites Giakkoupis & Ziccardi (PODC 2023) [16]: a
*constant-state* self-stabilizing MIS in the full-duplex beeping model,
stabilizing in polylogarithmic rounds w.h.p. — "albeit being efficient
only for some graph families".  This module implements the minimal
two-state dynamics in that spirit (a faithful-in-spirit reconstruction,
not a line-by-line port):

* state ∈ {IN, OUT} — a single bit of RAM;
* IN vertices beep **every** round (the membership heartbeat);
* randomized update (coin = this round's uniform draw):

  - IN and heard a beep → conflict with another candidate: retreat to
    OUT with probability 1/2,
  - OUT and heard nothing → no active candidate nearby: rejoin IN with
    probability 1/2,
  - otherwise unchanged.

Legal configurations are exactly the MIS configurations, and they are
absorbing: an IN vertex of an MIS hears nothing (all neighbors OUT) and
stays IN; an OUT vertex hears its IN neighbor every round and stays OUT.

Contrast with the paper's Algorithm 1: no ``ℓmax``, no topology
knowledge, one bit of state — and no O(log n) guarantee.  [16] reports
that such dynamics are efficient only for some graph families; this
reconstruction does not show it so far.  E13 (EXPERIMENTS.md,
``results/constant_state.txt``) measures 12–13 mean rounds from random
starts on six families at n = 1,024 (cycle to star), below Algorithm
1's 25–44, and ``tests/test_baseline_constant_state.py`` only checks
that runs converge.  Whether a family or a start separates the two
processes is ROADMAP item 15.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..beeping.algorithm import BeepingAlgorithm, LocalKnowledge, NodeOutput
from ..beeping.signals import Beeps
from ..graphs.graph import Graph
from ..graphs.mis import is_maximal_independent_set

__all__ = ["IN", "OUT", "FewStatesMIS"]

IN = "in"
OUT = "out"


class FewStatesMIS(BeepingAlgorithm):
    """Two-state self-stabilizing beeping MIS (no topology knowledge).

    The state is the bare role string (``"in"`` / ``"out"``).  The beep
    rule is deterministic (IN beeps, OUT is silent); the update consumes
    the round's uniform draw as its retreat/rejoin coin.
    """

    num_channels = 1

    def fresh_state(self, knowledge: LocalKnowledge) -> str:
        return IN

    def random_state(
        self, knowledge: LocalKnowledge, rng: np.random.Generator
    ) -> str:
        return IN if rng.integers(2) else OUT

    def beeps(self, state: str, knowledge: LocalKnowledge, u: float) -> Beeps:
        return (state == IN,)

    def step(
        self,
        state: str,
        sent: Beeps,
        heard: Beeps,
        knowledge: LocalKnowledge,
        u: float = 0.0,
    ) -> str:
        coin = u < 0.5
        if state == IN and heard[0] and coin:
            return OUT
        if state == OUT and not heard[0] and coin:
            return IN
        return state

    def output(self, state: str, knowledge: LocalKnowledge) -> NodeOutput:
        return NodeOutput.IN_MIS if state == IN else NodeOutput.NOT_IN_MIS

    def is_legal_configuration(
        self,
        graph: Graph,
        states: Sequence[str],
        knowledge: Sequence[LocalKnowledge],
    ) -> bool:
        """Legal iff the IN set is an MIS (such configurations are
        absorbing under the update rules)."""
        members = [v for v, s in enumerate(states) if s == IN]
        return is_maximal_independent_set(graph, members)
