"""Array implementation of Algorithm 2 (two channels)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np
import numpy.typing as npt

from ...graphs.graph import Graph
from ..knowledge import EllMaxPolicy
from .base import MAX_EXPONENT, EngineBase, SeedLike, VectorizedResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...beeping.channels import ChannelLike
    from ...beeping.schedulers import SchedulerLike
    from ...obs.collectors import RunCollector

__all__ = ["TwoChannelEngine", "simulate_two_channel"]


class TwoChannelEngine(EngineBase):
    """Array implementation of Algorithm 2 (levels in ``[0, ℓmax]``)."""

    uses_negative_levels = False

    def step(self) -> Tuple[npt.NDArray[np.bool_], npt.NDArray[np.bool_]]:
        """One round; returns the *emitted* ``(beep1, beep2)`` vectors.

        Stress semantics mirror the single-channel engine: delayed
        vertices emit stale carriers on both channels and skip the
        update; a non-perfect channel perturbs ``heard1`` then
        ``heard2`` (in that documented order).  With the defaults this
        is the historical step, operation for operation.
        """
        draws = self._draws
        self.rng.random(out=draws)
        exponent = self._pfloat
        np.clip(self.levels, 0, MAX_EXPONENT, out=exponent)
        np.negative(exponent, out=exponent)
        p1 = np.power(2.0, exponent)
        active = (self.levels > 0) & (self.levels < self.ell_max)
        beep1 = active & (draws < p1)
        beep2 = self.levels == 0
        firing = None
        if not self._ideal:
            stress = self._stress
            stress.begin_round()
            firing = stress.active_mask(self.round_index)
            if firing is not None:
                beep1 = stress.transmit(0, beep1, firing)
                beep2 = stress.transmit(1, beep2, firing)
        heard1 = self.kernel.hear(beep1)
        heard2 = self.kernel.hear(beep2)
        if not self._ideal:
            heard1 = self._stress.apply_channel(heard1)
            heard2 = self._stress.apply_channel(heard2)
        up = np.minimum(self.levels + 1, self.ell_max)
        down = np.maximum(self.levels - 1, 1)
        new_levels = np.where(
            heard2,
            self.ell_max,
            np.where(
                heard1,
                up,
                np.where(beep1, 0, np.where(~beep2, down, self.levels)),
            ),
        )
        if firing is not None:
            new_levels = np.where(firing, new_levels, self.levels)
        self.levels = new_levels
        self.round_index += 1
        return beep1, beep2


def simulate_two_channel(
    graph: Graph,
    policy: EllMaxPolicy,
    seed: SeedLike = None,
    max_rounds: int = 100_000,
    initial_levels: Optional[npt.ArrayLike] = None,
    arbitrary_start: bool = False,
    check_every: int = 1,
    record_series: bool = False,
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
        record_series=record_series,
        collector=collector,
    )
