"""Array implementation of the two-state baseline.

Vectorizes :class:`repro.baselines.constant_state.FewStatesMIS` as the
``"constant_state"`` tag of the solo facade: ``levels`` hold 1 = IN,
0 = OUT (the fresh all-ones start is "all IN").  Matches the reference
engine bit-for-bit: the per-round draw decides the update coin
(``u < 1/2``) exactly as ``FewStatesMIS.step`` does.  Round body and
legality: :mod:`repro.core.kernels.round`, "Algorithm tags and their
bands".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...devtools.seeding import SeedLike
from ...graphs.graph import Graph
from .base import EngineBase, VectorizedResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...beeping.channels import ChannelLike
    from ...beeping.schedulers import SchedulerLike

__all__ = ["ConstantStateEngine", "simulate_constant_state"]


class ConstantStateEngine(EngineBase):
    """Two-state self-stabilizing MIS ([16] style): no ℓmax policy."""

    algorithm = "constant_state"

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike = None,
        channel: "ChannelLike" = None,
        scheduler: "SchedulerLike" = None,
    ):
        super().__init__(graph, None, seed, channel=channel, scheduler=scheduler)

    @classmethod
    def simulate(  # type: ignore[override]
        cls,
        graph: Graph,
        seed: SeedLike = None,
        max_rounds: int = 1_000_000,
        arbitrary_start: bool = False,
        channel: "ChannelLike" = None,
        scheduler: "SchedulerLike" = None,
    ) -> VectorizedResult:
        """Run the two-state baseline to its first MIS configuration.

        ``arbitrary_start=True`` draws a uniformly random IN/OUT start;
        otherwise every vertex starts IN (see :meth:`EngineBase.simulate`).
        """
        engine = cls(graph, seed, channel=channel, scheduler=scheduler)
        if arbitrary_start:
            engine.randomize_levels()
        return engine.until_stable(max_rounds)


#: Run the two-state baseline to its first MIS (:meth:`ConstantStateEngine.simulate`).
simulate_constant_state = ConstantStateEngine.simulate
