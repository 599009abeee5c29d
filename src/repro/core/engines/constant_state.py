"""Array implementation of the two-state baseline.

Vectorizes :class:`repro.baselines.constant_state.FewStatesMIS`.
Matches the reference engine bit-for-bit under the shared randomness
discipline: the per-round draw decides the update coin (``u < 1/2``)
exactly as ``FewStatesMIS.step`` does.  The round itself is
:class:`~repro.core.kernels.RoundKernel`'s two-state body, reached
through :meth:`ConstantStateEngine.step` and the fused run loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, Optional

import numpy as np
import numpy.typing as npt

from ...graphs.graph import Graph
from ...devtools.seeding import SeedLike, resolve_rng
from ..kernels import (
    HearKernel,
    PerRoundDraws,
    RoundKernel,
    structure_for,
)
from ..kernels.round import constant_legality
from .base import StressState, VectorizedResult, bind_stress_models

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...beeping.channels import BoundChannel, ChannelLike
    from ...beeping.schedulers import SchedulerLike

__all__ = ["ConstantStateEngine", "simulate_constant_state"]


class ConstantStateEngine:
    """Vectorized two-state self-stabilizing MIS ([16] style)."""

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike = None,
        channel: "ChannelLike" = None,
        scheduler: "SchedulerLike" = None,
    ):
        self.graph = graph
        self.n = graph.num_vertices
        self.structure = structure_for(graph)
        self.adjacency = self.structure.csr
        self.kernel = HearKernel(self.structure)
        self.rng = resolve_rng(seed)
        # Stress models (docs/robustness.md); the defaults draw nothing
        # and hand the kernel no stress rows.
        self._stress = bind_stress_models(self.n, channel, scheduler, self.rng)
        self.channel: "BoundChannel" = self._stress.channel
        self._stress_rows: Optional[List[StressState]] = (
            None if self._stress.ideal else [self._stress]
        )
        #: True = IN (the fresh state), False = OUT.
        self.in_mis: npt.NDArray[np.bool_] = np.ones(self.n, dtype=bool)
        self.round_index = 0
        # Per-round uniform-draw scratch (hot-path allocation contract).
        self._draws: npt.NDArray[np.float64] = np.empty(
            (1, self.n), dtype=np.float64
        )
        # The round kernel runs every round; built on the first one.
        self._fused: Optional[RoundKernel] = None

    def set_membership(self, in_mis: npt.ArrayLike) -> None:
        in_mis = np.asarray(in_mis, dtype=bool)
        if in_mis.shape != (self.n,):
            raise ValueError(f"in_mis must have shape ({self.n},)")
        self.in_mis = in_mis.copy()

    def randomize(self) -> None:
        self.in_mis = self.rng.integers(0, 2, size=self.n).astype(bool)

    def _kernel(self) -> RoundKernel:
        """The engine's round kernel, built on first use."""
        if self._fused is None:
            self._fused = RoundKernel(self.kernel, algorithm="constant_state")
        return self._fused

    def step(self) -> npt.NDArray[np.bool_]:
        """One round; returns a fresh copy of the *emitted* beeps."""
        self.rng.random(out=self._draws)
        emitted = self._kernel().step(
            self.in_mis.reshape(1, self.n),
            self._draws,
            self._stress_rows,
            self.round_index,
        )
        self.round_index += 1
        return emitted[0].copy()

    def is_legal(self) -> bool:
        """Legal iff the IN set is an MIS (independent + dominating)."""
        return bool(constant_legality(self.kernel, self.in_mis.reshape(1, self.n))[0])

    def mis_vertices(self) -> FrozenSet[int]:
        return frozenset(int(v) for v in np.nonzero(self.in_mis)[0])

    def _run_fused(self, max_rounds: int) -> VectorizedResult:  # repro: cold
        """Run to the first MIS in the fused round kernel (in place).

        Byte-identical to a :meth:`step` loop that checks
        :meth:`is_legal` before every round, including every generator's
        stream position and the channel counters afterwards.
        """
        membership = self.in_mis.reshape(1, self.n)
        draws = PerRoundDraws([self.rng], self._draws)
        outcomes, executed = self._kernel().run_constant(
            membership, draws, max_rounds, self._stress_rows, self.round_index
        )
        self.round_index += executed
        outcome = outcomes[0]
        return VectorizedResult(
            stabilized=outcome.stabilized,
            rounds=outcome.rounds,
            mis=outcome.mis,
            final_levels=self.in_mis.astype(np.int64),
        )


def simulate_constant_state(
    graph: Graph,
    seed: SeedLike = None,
    max_rounds: int = 1_000_000,
    arbitrary_start: bool = False,
    channel: "ChannelLike" = None,
    scheduler: "SchedulerLike" = None,
) -> VectorizedResult:
    """Run the two-state baseline to its first MIS configuration.

    The run goes through the fused round kernel, stress models
    included; the result equals a hand-driven :meth:`step` loop's
    (``docs/performance.md``).
    """
    engine = ConstantStateEngine(
        graph,
        seed,
        channel=channel,
        scheduler=scheduler,
    )
    if arbitrary_start:
        engine.randomize()
    return engine._run_fused(max_rounds)
