"""Array implementation of Algorithm 1 (single channel).

The round itself is :class:`~repro.core.kernels.RoundKernel`'s
Algorithm-1 body, reached through :meth:`EngineBase.step` and the
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

__all__ = ["SingleChannelEngine", "simulate_single"]


class SingleChannelEngine(EngineBase):
    """Array implementation of Algorithm 1 on a fixed graph + policy.

    Levels live in ``[-ℓmax, ℓmax]``; the level floor ``-ℓmax`` marks the
    MIS candidates.
    """

    uses_negative_levels = True


def simulate_single(
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
    """Run Algorithm 1 to stabilization on the vectorized engine.

    ``arbitrary_start=True`` draws a uniformly random initial
    configuration (the self-stabilization setting); otherwise the run
    starts from the fresh level-1 configuration, unless
    ``initial_levels`` overrides it.  ``collector`` attaches a
    zero-perturbation :class:`repro.obs.RunCollector`.  ``channel`` /
    ``scheduler`` select
    the stress models of :mod:`repro.beeping.channels` /
    :mod:`repro.beeping.schedulers`; the defaults reproduce the
    historical trajectories byte for byte.
    """
    engine = SingleChannelEngine(
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
