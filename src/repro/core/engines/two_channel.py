"""Array implementation of Algorithm 2 (two channels).

The round itself is :class:`~repro.core.kernels.RoundKernel`'s
Algorithm-2 body, reached through :meth:`EngineBase.step` and the
fused run loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy.typing as npt

from ...graphs.graph import Graph
from ..knowledge import EllMaxPolicy
from .base import EngineBase, SeedLike, VectorizedResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...beeping.channels import ChannelLike
    from ...beeping.schedulers import SchedulerLike
    from ...obs.collectors import RunCollector

__all__ = ["TwoChannelEngine", "simulate_two_channel"]


class TwoChannelEngine(EngineBase):
    """Array implementation of Algorithm 2 (levels in ``[0, ℓmax]``)."""

    uses_negative_levels = False


def simulate_two_channel(
    graph: Graph,
    policy: EllMaxPolicy,
    seed: SeedLike = None,
    max_rounds: int = 100_000,
    initial_levels: Optional[npt.ArrayLike] = None,
    arbitrary_start: bool = False,
    check_every: int = 1,
    collector: Optional["RunCollector"] = None,
    channel: "ChannelLike" = None,
    scheduler: "SchedulerLike" = None,
) -> VectorizedResult:
    """Run Algorithm 2 to stabilization on the vectorized engine.

    Parameters as in :func:`repro.core.engines.single.simulate_single`.
    """
    engine = TwoChannelEngine(
        graph,
        policy,
        seed,
        channel=channel,
        scheduler=scheduler,
    )
    if initial_levels is not None:
        engine.set_levels(initial_levels)
    elif arbitrary_start:
        engine.randomize_levels()
    return engine.until_stable(
        max_rounds,
        check_every=check_every,
        collector=collector,
    )
