"""Array implementation of the two-state baseline.

Vectorizes :class:`repro.baselines.constant_state.FewStatesMIS`.
Matches the reference engine bit-for-bit under the shared randomness
discipline: the per-round draw decides the update coin (``u < 1/2``)
exactly as ``FewStatesMIS.step`` does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Optional

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
from .base import VectorizedResult, bind_stress_models

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
        # and keep the historical step path byte for byte.
        self._stress = bind_stress_models(self.n, channel, scheduler, self.rng)
        self.channel: "BoundChannel" = self._stress.channel
        self._ideal = self._stress.ideal
        #: True = IN (the fresh state), False = OUT.
        self.in_mis: npt.NDArray[np.bool_] = np.ones(self.n, dtype=bool)
        self.round_index = 0
        # Per-round uniform-draw scratch (hot-path allocation contract).
        self._draws: npt.NDArray[np.float64] = np.empty(
            self.n, dtype=np.float64
        )
        # The fused round kernel runs every ideal-model run of
        # :func:`simulate_constant_state`; built on the first one.
        self._fused: Optional[RoundKernel] = None

    def set_membership(self, in_mis: npt.ArrayLike) -> None:
        in_mis = np.asarray(in_mis, dtype=bool)
        if in_mis.shape != (self.n,):
            raise ValueError(f"in_mis must have shape ({self.n},)")
        self.in_mis = in_mis.copy()

    def randomize(self) -> None:
        self.in_mis = self.rng.integers(0, 2, size=self.n).astype(bool)

    def step(self) -> npt.NDArray[np.bool_]:
        draws = self._draws
        self.rng.random(out=draws)
        beeps = self.in_mis.copy()
        active = None
        if not self._ideal:
            stress = self._stress
            stress.begin_round()
            active = stress.active_mask(self.round_index)
            if active is not None:
                beeps = stress.transmit(0, beeps, active)
        heard = self.kernel.hear(beeps)
        if not self._ideal:
            heard = self._stress.apply_channel(heard)
        coin = draws < 0.5
        retreat = self.in_mis & heard & coin
        rejoin = ~self.in_mis & ~heard & coin
        new_membership = (self.in_mis & ~retreat) | rejoin
        if active is not None:
            new_membership = np.where(active, new_membership, self.in_mis)
        self.in_mis = new_membership
        self.round_index += 1
        return beeps

    def is_legal(self) -> bool:
        """Legal iff the IN set is an MIS (independent + dominating)."""
        heard_members = self.kernel.hear(self.in_mis)
        independent = not bool((self.in_mis & heard_members).any())
        dominated = bool(np.all(self.in_mis | heard_members))
        return independent and dominated

    def mis_vertices(self) -> FrozenSet[int]:
        return frozenset(int(v) for v in np.nonzero(self.in_mis)[0])

    def _run_fused(self, max_rounds: int) -> VectorizedResult:  # repro: cold
        """Run to the first MIS in the fused round kernel (in place).

        Byte-identical to the :meth:`step` loop of
        :func:`simulate_constant_state`, including the generator's
        stream position afterwards.
        """
        if self._fused is None:
            self._fused = RoundKernel(
                self.kernel, algorithm="constant_state"
            )
        membership = self.in_mis.reshape(1, self.n)
        draws = PerRoundDraws([self.rng], self.n)
        outcomes, executed = self._fused.run_constant(
            membership, draws, max_rounds
        )
        draws.finish()
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

    Under the perfect channel and synchronous scheduler the run goes
    through the fused round kernel; otherwise through :meth:`step`.
    The result is the same either way (``docs/performance.md``).
    """
    engine = ConstantStateEngine(
        graph,
        seed,
        channel=channel,
        scheduler=scheduler,
    )
    if arbitrary_start:
        engine.randomize()
    if engine._ideal:
        return engine._run_fused(max_rounds)
    executed = 0
    while not engine.is_legal():
        if executed >= max_rounds:
            return VectorizedResult(
                stabilized=False,
                rounds=executed,
                mis=frozenset(),
                final_levels=engine.in_mis.astype(np.int64),
            )
        engine.step()
        executed += 1
    return VectorizedResult(
        stabilized=True,
        rounds=executed,
        mis=engine.mis_vertices(),
        final_levels=engine.in_mis.astype(np.int64),
    )
